/// \file probes.cpp
/// Layer probes that do not depend on the workload under measurement:
/// kernel rates at the shapes one lu_serial step uses (n=1536, nb=32,
/// P=3), getf2 per factorization, the AbftLu reference for the dist
/// runtime, and CRC / memcpy bandwidth on a buffer four times the
/// last-level cache, so the numbers are memory-bound like a checkpoint.
/// Kernels run on one thread, as they do in lu_serial and in dist ranks.

#include <unistd.h>

#include <cstring>

#include "abft/abft_lu.hpp"
#include "abft/blas.hpp"
#include "abft/kernels.hpp"
#include "bench.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

using abftc::abft::Matrix;

constexpr std::size_t kN = 1536;
constexpr std::size_t kNb = 32;
constexpr std::size_t kChecksumRows = kN / kNb / 3 * kNb;  // groups·nb
constexpr std::size_t kDistN = 768;

template <class Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

double gemm_gflops(std::size_t m, std::size_t n, std::size_t k,
                   abftc::common::Rng& rng) {
  const Matrix a = Matrix::random(m, k, rng);
  const Matrix b = Matrix::random(k, n, rng);
  Matrix c = Matrix::random(m, n, rng);
  abftc::abft::gemm_sub(a.view(), b.view(), c.view());  // first touch
  const double s = median_seconds(
      7, [&] { abftc::abft::gemm_sub(a.view(), b.view(), c.view()); });
  return 2.0 * static_cast<double>(m * n * k) / s * 1e-9;
}

}  // namespace

void probe_layers(Metrics& out) {
  abftc::abft::KernelPolicy serial = abftc::abft::kernel_policy();
  serial.threads = 1;
  const abftc::abft::KernelPolicyGuard guard(serial);
  abftc::common::Rng rng(0x5eedULL);
  const std::size_t rest = kN - kNb;
  out["abft.gemm_gflops"] = {gemm_gflops(rest, rest, kNb, rng), "GFLOP/s"};
  out["abft.cs_gemm_gflops"] = {gemm_gflops(kChecksumRows, rest, kNb, rng),
                                "GFLOP/s"};

  const Matrix a = Matrix::diag_dominant(kN, rng);
  {
    Matrix lu = a;
    abftc::abft::getf2_nopiv(lu.block(0, 0, kNb, kNb));
    const Matrix b = Matrix::random(kNb, rest, rng);
    std::vector<double> s;
    for (int r = 0; r < 21; ++r) {
      Matrix x = b;
      const auto t0 = Clock::now();
      abftc::abft::trsm_left_lower_unit(lu.block(0, 0, kNb, kNb), x.view());
      s.push_back(seconds_since(t0));
    }
    out["abft.trsm_gflops"] = {
        static_cast<double>(kNb * kNb * rest) / median(s) * 1e-9, "GFLOP/s"};
  }
  {
    // Every diagonal block of one factorization, as AbftLu::step meets them.
    std::vector<double> s;
    for (int r = 0; r < 5; ++r) {
      Matrix lu = a;
      const auto t0 = Clock::now();
      for (std::size_t off = 0; off < kN; off += kNb)
        abftc::abft::getf2_nopiv(lu.block(off, off, kNb, kNb));
      s.push_back(seconds_since(t0));
    }
    out["abft.getf2_s"] = {median(s), "s"};
  }
  {
    const Matrix d = Matrix::diag_dominant(kDistN, rng);
    std::vector<double> s;
    for (int r = 0; r < 5; ++r) {
      Matrix input = d;
      const auto t0 = Clock::now();
      abftc::abft::AbftLu lu(std::move(input), kNb, {3, 2});
      lu.factor();
      s.push_back(seconds_since(t0));
    }
    out["abft.lu_1t_s"] = {median(s), "s"};
  }

  long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  const std::size_t bytes = 4 * static_cast<std::size_t>(llc);
  std::vector<std::byte> buf(bytes);
  for (std::size_t i = 0; i < bytes; ++i)
    buf[i] = static_cast<std::byte>(i * 131 + (i >> 12));
  const double crc_s = median_seconds(3, [&] {
    (void)abftc::common::crc32(std::span<const std::byte>(buf));
  });
  out["common.crc32_gbps"] = {static_cast<double>(bytes) / crc_s * 1e-9,
                              "GB/s"};
  const std::size_t half = bytes / 2;
  const double copy_s = median_seconds(
      3, [&] { std::memcpy(buf.data() + half, buf.data(), half); });
  out["common.memcpy_gbps"] = {static_cast<double>(half) / copy_s * 1e-9,
                               "GB/s"};
}

}  // namespace perfbench
