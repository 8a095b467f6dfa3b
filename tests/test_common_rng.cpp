// Tests for the deterministic RNG and its distribution samplers, and for
// CRC-32: known values and equivalence of the dispatched (PCLMUL-folded where
// the CPU has it) crc32 with the portable slicing-by-8 reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"

namespace {

using abftc::common::crc32;
using abftc::common::crc32_portable;
using abftc::common::Rng;

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  const Rng base(7);
  Rng s0 = base.split(0);
  Rng s1 = base.split(1);
  Rng s0b = base.split(0);
  EXPECT_EQ(s0(), s0b());  // same stream id -> same sequence
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (s0() == s1());
  EXPECT_LT(same, 3);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01OpenLowNeverZero) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.uniform01_open_low(), 0.0);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  const double mean = 123.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(mean);
  EXPECT_NEAR(sum / n, mean, mean * 0.02);
}

TEST(Rng, ExponentialMemorylessQuantile) {
  // Median of Exp(mean) is mean*ln 2.
  Rng rng(17);
  const double mean = 50.0;
  int below = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    below += rng.exponential(mean) < mean * std::numbers::ln2;
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.01);
}

TEST(Rng, WeibullMeanMatches) {
  Rng rng(19);
  const double shape = 0.7, scale = 100.0;
  const double expect = scale * std::tgamma(1.0 + 1.0 / shape);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.weibull(shape, scale);
  EXPECT_NEAR(sum / n, expect, expect * 0.03);
}

TEST(Rng, LogNormalMeanMatches) {
  Rng rng(23);
  // exp(mu + sigma^2/2) is the mean.
  const double mu = 1.0, sigma = 0.5;
  const double expect = std::exp(mu + 0.5 * sigma * sigma);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, sigma);
  EXPECT_NEAR(sum / n, expect, expect * 0.03);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(29);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / n - mean * mean), 3.0, 0.05);
}

TEST(Crc32, KnownVector) {
  const char* s = "123456789";
  const auto bytes = std::as_bytes(std::span(s, 9));
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);  // the classic check value
}

TEST(Crc32, SeedChainsIncrementally) {
  const char* s = "hello world";
  const auto all = std::as_bytes(std::span(s, 11));
  const auto head = std::as_bytes(std::span(s, 5));
  const auto tail = std::as_bytes(std::span(s + 5, 6));
  EXPECT_EQ(crc32(all), crc32(tail, crc32(head)));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::byte> data(64, std::byte{0xA5});
  const auto before = crc32(data);
  data[17] ^= std::byte{0x04};
  EXPECT_NE(before, crc32(data));
}

/// Pseudo-random bytes, so no fold or table lookup can hit a lucky pattern.
std::vector<std::byte> crc_test_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (std::byte& b : v) b = static_cast<std::byte>(rng() >> 56);
  return v;
}

TEST(Crc32, DispatchedEqualsPortableAtEveryLengthAndOffset) {
  const std::vector<std::byte> buf = crc_test_bytes(1024 + 16, 11);
  const std::uint32_t seeds[] = {0u, 0xFFFFFFFFu, 0x12345678u, 0xCBF43926u};
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::span<const std::byte> piece(buf.data() + offset, len);
      for (const std::uint32_t seed : seeds)
        ASSERT_EQ(crc32(piece, seed), crc32_portable(piece, seed))
            << "offset=" << offset << " len=" << len << " seed=" << seed;
    }
  }
}

TEST(Crc32, DispatchedEqualsPortableOnAnElevenMegabyteBuffer) {
  const std::vector<std::byte> big = crc_test_bytes(11u << 20, 12);
  EXPECT_EQ(crc32(big), crc32_portable(big));
  EXPECT_EQ(crc32(big, 0x9E3779B9u), crc32_portable(big, 0x9E3779B9u));
  // An odd length and a misaligned start leave a tail for the fallback.
  const std::span<const std::byte> odd(big.data() + 3, big.size() - 10);
  EXPECT_EQ(crc32(odd), crc32_portable(odd));
}

TEST(Crc32, StreamsMixingShortAndLongPiecesEqualTheReference) {
  const std::vector<std::byte> buf = crc_test_bytes(64 * 1024, 13);
  const std::uint32_t want = crc32_portable(buf);
  // Piece lengths alternate under and over the 64-byte fold threshold.
  const std::size_t pattern[] = {1, 63, 64, 65, 7, 200, 16, 1000, 31, 4096, 0,
                                 129};
  abftc::common::Crc32 stream;
  abftc::common::Crc32Chunks chunks;
  std::size_t at = 0;
  for (std::size_t i = 0; at < buf.size(); ++i) {
    const std::size_t len =
        std::min(pattern[i % std::size(pattern)], buf.size() - at);
    const std::span<const std::byte> piece(buf.data() + at, len);
    stream.update(piece);
    chunks.add(crc32(piece), len);
    ASSERT_EQ(stream.value(), crc32_portable(std::span(buf.data(), at + len)))
        << "after " << at + len << " bytes";
    at += len;
  }
  EXPECT_EQ(stream.value(), want);
  EXPECT_EQ(chunks.value(), want);
}

}  // namespace
