#include "common/crc32.hpp"

#include <array>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#include <immintrin.h>
#define ABFTC_CRC32_PCLMUL 1
#else
#define ABFTC_CRC32_PCLMUL 0
#endif

namespace abftc::common {

namespace {

/// Slice-by-8 tables: t[0] is the classic byte-at-a-time table; t[k][v] is
/// the CRC of byte v followed by k zero bytes, so eight table lookups advance
/// the CRC over eight input bytes at once (Intel's slicing-by-8 scheme).
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr auto kT = make_tables();

inline std::uint32_t load_le32(const std::byte* p) noexcept {
  // Byte-compose so the code is endian-independent; compilers fold this to a
  // single 32-bit load on little-endian targets.
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Advance the raw (pre-/post-inversion-free) CRC register over n bytes.
std::uint32_t slice8(std::uint32_t c, const std::byte* p, std::size_t n) {
  while (n >= 8) {
    c ^= load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kT[7][c & 0xFFu] ^ kT[6][(c >> 8) & 0xFFu] ^ kT[5][(c >> 16) & 0xFFu] ^
        kT[4][c >> 24] ^ kT[3][hi & 0xFFu] ^ kT[2][(hi >> 8) & 0xFFu] ^
        kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p)
    c = kT[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  return c;
}

#if ABFTC_CRC32_PCLMUL

/// Shortest input the fold takes: four 128-bit lanes.
constexpr std::size_t kFoldMin = 64;

#define ABFTC_PCLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

ABFTC_PCLMUL_TARGET inline __m128i load128(const std::byte* q) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

/// x folded forward and added to the next block: x's low qword times k's
/// low constant, its high qword times k's high one.
ABFTC_PCLMUL_TARGET inline __m128i fold128(__m128i x, __m128i k,
                                           __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Advance the raw CRC register over the first n bytes (n ≥ 64, n a
/// multiple of 16) by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009). The
/// constants are the bit-reflected ones for the IEEE polynomial 0xEDB88320,
/// as in zlib-ng and Linux's crc32-pclmul: k1/k2 = x^(4·128±32) mod P fold
/// a lane forward by 512 bits, k3/k4 by 128 bits, k5 folds 64 → 32 bits,
/// and P′/μ drive the final Barrett reduction to the 32-bit register.
ABFTC_PCLMUL_TARGET std::uint32_t fold_pclmul(std::uint32_t c,
                                              const std::byte* p,
                                              std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596LL, 0x154442bd4LL);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009eLL, 0x1751997d0LL);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124LL);
  const __m128i poly_mu = _mm_set_epi64x(0x1F7011641LL, 0x1DB710641LL);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16), x2 = load128(p + 32), x3 = load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold128(x0, k1k2, load128(p));
    x1 = fold128(x1, k1k2, load128(p + 16));
    x2 = fold128(x2, k1k2, load128(p + 32));
    x3 = fold128(x3, k1k2, load128(p + 48));
  }
  // Four lanes into one, then the remaining 16-byte blocks.
  __m128i x = fold128(x0, k3k4, x1);
  x = fold128(x, k3k4, x2);
  x = fold128(x, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x = fold128(x, k3k4, load128(p));

  // 128 → 64 bits (appending the 32 zero bits the CRC definition implies),
  // then 64 → 32, then Barrett-reduce the 64-bit remainder.
  x = _mm_xor_si128(_mm_clmulepi64_si128(k3k4, x, 0x01), _mm_srli_si128(x, 8));
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00),
      _mm_srli_si128(x, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(t, x), 1));
}

bool cpu_has_pclmul() noexcept {
  __builtin_cpu_init();  // safe before other static constructors have run
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // ABFTC_CRC32_PCLMUL

}  // namespace

bool crc32_uses_pclmul() noexcept {
#if ABFTC_CRC32_PCLMUL
  static const bool has = cpu_has_pclmul();
  return has;
#else
  return false;
#endif
}

std::uint32_t crc32_portable(std::span<const std::byte> data,
                             std::uint32_t seed) {
  return slice8(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
#if ABFTC_CRC32_PCLMUL
  if (n >= kFoldMin && crc32_uses_pclmul()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = fold_pclmul(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return slice8(c, p, n) ^ 0xFFFFFFFFu;
}

namespace {

/// 32x32 GF(2) matrix (one column per register bit) times a register vector.
inline std::uint32_t gf2_times(const std::array<std::uint32_t, 32>& m,
                               std::uint32_t vec) noexcept {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; vec != 0; vec >>= 1, ++i)
    if (vec & 1u) sum ^= m[i];
  return sum;
}

inline void gf2_square(std::array<std::uint32_t, 32>& out,
                       const std::array<std::uint32_t, 32>& m) noexcept {
  for (std::size_t i = 0; i < 32; ++i) out[i] = gf2_times(m, m[i]);
}

}  // namespace

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b) {
  if (len_b == 0) return crc_a;

  // `odd` starts as the operator advancing the register by one zero *bit*:
  // column 0 is the polynomial (feedback of the low bit), column i the shift
  // of bit i into bit i-1. Repeated squaring yields the 2^k-zero-bit
  // operators, applied for each set bit of the zero count (8 * len_b bits;
  // the first square inside the loop makes `even` the one-zero-byte
  // operator, so the loop walks the *byte* count).
  std::array<std::uint32_t, 32> odd{}, even{};
  odd[0] = 0xEDB88320u;
  for (std::size_t i = 1; i < 32; ++i) odd[i] = 1u << (i - 1);
  gf2_square(even, odd);  // two zero bits
  gf2_square(odd, even);  // four zero bits

  std::size_t len = len_b;
  do {
    gf2_square(even, odd);
    if (len & 1u) crc_a = gf2_times(even, crc_a);
    len >>= 1;
    if (len == 0) break;
    gf2_square(odd, even);
    if (len & 1u) crc_a = gf2_times(odd, crc_a);
    len >>= 1;
  } while (len != 0);

  return crc_a ^ crc_b;
}

}  // namespace abftc::common
