#include "abft/blas.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace abftc::abft {

namespace {

constexpr double kPivotTiny = 1e-13;

// Block sizes for the blocked triangular solves and factorizations. The
// diagonal blocks are handled by the reference loops; everything off the
// diagonal is delegated to gemm, which carries the O(n³) work.
constexpr std::size_t kTrsmNb = 64;
constexpr std::size_t kFactorNb = 64;

// Below these sizes the blocked algorithms would degenerate to a single
// diagonal block anyway, so the dispatchers keep the reference loops.
constexpr std::size_t kTrsmCutoff = 2 * kTrsmNb;
constexpr std::size_t kFactorCutoff = 2 * kFactorNb;

bool use_blocked() noexcept {
  return kernel_policy().path == KernelPath::blocked;
}

// The row-parallel lanes of small_trsm_right_upper: one double per lane, as
// wide as the ISA allows (plain scalar without AVX). Two update forms,
// s − x·u: `sub_mul` rounds the product, then the difference; `sub_fma`
// rounds once where the target has FMA and falls back to sub_mul elsewhere.
// C++ builds default to -ffp-contract=fast, under which GCC would fuse an
// intrinsic mul into the following sub; the empty asm pins the rounded
// product in a register so sub_mul stays unfused.
#if defined(__AVX512F__)
using Lanes = __m512d;
constexpr std::size_t kLanes = 8;
inline Lanes lanes_load(const double* p) { return _mm512_loadu_pd(p); }
inline void lanes_store(double* p, Lanes v) { _mm512_storeu_pd(p, v); }
inline Lanes lanes_set1(double v) { return _mm512_set1_pd(v); }
inline Lanes lanes_div(Lanes a, Lanes b) { return _mm512_div_pd(a, b); }
inline Lanes lanes_sub_mul(Lanes s, Lanes x, Lanes u) {
  Lanes prod = _mm512_mul_pd(x, u);
  __asm__("" : "+v"(prod));
  return _mm512_sub_pd(s, prod);
}
inline Lanes lanes_sub_fma(Lanes s, Lanes x, Lanes u) {
  return _mm512_fnmadd_pd(x, u, s);
}
#elif defined(__AVX2__)
using Lanes = __m256d;
constexpr std::size_t kLanes = 4;
inline Lanes lanes_load(const double* p) { return _mm256_loadu_pd(p); }
inline void lanes_store(double* p, Lanes v) { _mm256_storeu_pd(p, v); }
inline Lanes lanes_set1(double v) { return _mm256_set1_pd(v); }
inline Lanes lanes_div(Lanes a, Lanes b) { return _mm256_div_pd(a, b); }
inline Lanes lanes_sub_mul(Lanes s, Lanes x, Lanes u) {
  Lanes prod = _mm256_mul_pd(x, u);
  __asm__("" : "+x"(prod));
  return _mm256_sub_pd(s, prod);
}
inline Lanes lanes_sub_fma(Lanes s, Lanes x, Lanes u) {
#if defined(__FMA__)
  return _mm256_fnmadd_pd(x, u, s);
#else
  return lanes_sub_mul(s, x, u);
#endif
}
#else
using Lanes = double;
constexpr std::size_t kLanes = 1;
inline Lanes lanes_load(const double* p) { return *p; }
inline void lanes_store(double* p, Lanes v) { *p = v; }
inline Lanes lanes_set1(double v) { return v; }
inline Lanes lanes_div(Lanes a, Lanes b) { return a / b; }
inline Lanes lanes_sub_mul(Lanes s, Lanes x, Lanes u) {
  Lanes prod = x * u;
#if defined(__FMA__)
  __asm__("" : "+x"(prod));
#endif
  return s - prod;
}
inline Lanes lanes_sub_fma(Lanes s, Lanes x, Lanes u) {
#if defined(__FMA__)
  return std::fma(-x, u, s);
#else
  return lanes_sub_mul(s, x, u);
#endif
}
#endif

void small_trsm_right_upper(ConstMatrixView u, MatrixView b) {
  const std::size_t n = u.rows();
  const std::size_t m = b.rows();
  if (m == 0) return;
  for (std::size_t j = 0; j < n; ++j)
    ABFTC_CHECK(std::fabs(u(j, j)) > kPivotTiny, "singular triangular factor");
  // Solve X·U = B: x_j = (b_j − Σ_{p<j} x_p u_pj) / u_jj, subtracting in p
  // order. Rows are independent, so a block of two lane groups (2·kLanes
  // rows, zero-padded at the tail) is transposed into x[j·kBlock + row] and
  // solved at once, one row per lane: two independent dependency chains per
  // column instead of one serial chain per row.
  //
  // Every element rounds exactly as the row-by-row loop this replaced did
  // under GCC, whose vectorizer computed the products two p at a time and
  // subtracted them unfused, contracting only an odd last term into an FMA
  // (when the target had one): so p < 2⌊j/2⌋ use sub_mul, p = j − 1 for
  // odd j uses sub_fma. Factors stay bitwise equal across the change.
  constexpr std::size_t kBlock = 2 * kLanes;
  thread_local std::vector<double> scratch;
  scratch.resize(n * kBlock);
  double* const x = scratch.data();
  for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::size_t rows = std::min(kBlock, m - i0);
    for (std::size_t r = 0; r < kBlock; ++r)
      for (std::size_t j = 0; j < n; ++j)
        x[j * kBlock + r] = r < rows ? b(i0 + r, j) : 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      double* const xj = x + j * kBlock;
      Lanes s0 = lanes_load(xj);
      Lanes s1 = lanes_load(xj + kLanes);
      const std::size_t paired = j & ~std::size_t{1};
      for (std::size_t p = 0; p < paired; ++p) {
        const Lanes upj = lanes_set1(u(p, j));
        s0 = lanes_sub_mul(s0, lanes_load(x + p * kBlock), upj);
        s1 = lanes_sub_mul(s1, lanes_load(x + p * kBlock + kLanes), upj);
      }
      if (paired != j) {
        const Lanes upj = lanes_set1(u(paired, j));
        s0 = lanes_sub_fma(s0, lanes_load(x + paired * kBlock), upj);
        s1 = lanes_sub_fma(s1, lanes_load(x + paired * kBlock + kLanes), upj);
      }
      const Lanes ujj = lanes_set1(u(j, j));
      lanes_store(xj, lanes_div(s0, ujj));
      lanes_store(xj + kLanes, lanes_div(s1, ujj));
    }
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t j = 0; j < n; ++j) b(i0 + r, j) = x[j * kBlock + r];
  }
}

void small_trsm_left_lower_unit(ConstMatrixView l, MatrixView b) {
  const std::size_t n = l.rows();
  // Forward substitution: row i of the solution depends on rows < i.
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t p = 0; p < i; ++p) {
      const double lip = l(i, p);
      if (lip == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) -= lip * b(p, j);
    }
}

void small_trsm_right_lower_trans(ConstMatrixView l, MatrixView b) {
  const std::size_t n = l.rows();
  // Solve X·Lᵀ = B: x_j = (b_j − Σ_{p<j} x_p l_jp) / l_jj.
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = b(i, j);
      for (std::size_t p = 0; p < j; ++p) s -= b(i, p) * l(j, p);
      ABFTC_CHECK(std::fabs(l(j, j)) > kPivotTiny,
                  "singular triangular factor");
      b(i, j) = s / l(j, j);
    }
}

void small_getf2(MatrixView a) {
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    ABFTC_CHECK(std::fabs(a(k, k)) > kPivotTiny,
                "zero pivot in unpivoted LU (matrix not diagonally dominant?)");
    const double inv = 1.0 / a(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      a(i, k) *= inv;
      const double lik = a(i, k);
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= lik * a(k, j);
    }
  }
}

void small_potf2(MatrixView a) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t p = 0; p < j; ++p) d -= a(j, p) * a(j, p);
    ABFTC_CHECK(d > 0.0, "matrix is not positive definite");
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t p = 0; p < j; ++p) s -= a(i, p) * a(j, p);
      a(i, j) = s / ljj;
    }
  }
}

}  // namespace

void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
          Trans tb, double beta, MatrixView c) {
  const GemmShape s = gemm_shape(a, ta, b, tb, c);
  if (gemm_uses_blocked_path(s.m, s.n, s.k))
    blocked_gemm(alpha, a, ta, b, tb, beta, c, kernel_policy().threads,
                 kernel_policy().dispatch);
  else
    naive_gemm(alpha, a, ta, b, tb, beta, c);
}

void gemm_sub(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  gemm(-1.0, a, Trans::No, b, Trans::No, 1.0, c);
}

void trsm_right_upper(ConstMatrixView u, MatrixView b) {
  const std::size_t n = u.rows();
  ABFTC_REQUIRE(u.cols() == n, "triangular factor must be square");
  ABFTC_REQUIRE(b.cols() == n, "shape mismatch in trsm_right_upper");
  if (!use_blocked() || n < kTrsmCutoff) {
    small_trsm_right_upper(u, b);
    return;
  }
  // Column-block j: X_j = (B_j − X_{<j}·U_{<j,j}) · U_jj⁻¹, the subtraction
  // carried by gemm.
  const std::size_t m = b.rows();
  for (std::size_t j0 = 0; j0 < n; j0 += kTrsmNb) {
    const std::size_t jb = std::min(kTrsmNb, n - j0);
    MatrixView bj = b.block(0, j0, m, jb);
    if (j0 > 0)
      gemm(-1.0, b.block(0, 0, m, j0), Trans::No, u.block(0, j0, j0, jb),
           Trans::No, 1.0, bj);
    small_trsm_right_upper(u.block(j0, j0, jb, jb), bj);
  }
}

void trsm_left_lower_unit(ConstMatrixView l, MatrixView b) {
  const std::size_t n = l.rows();
  ABFTC_REQUIRE(l.cols() == n, "triangular factor must be square");
  ABFTC_REQUIRE(b.rows() == n, "shape mismatch in trsm_left_lower_unit");
  if (!use_blocked() || n < kTrsmCutoff) {
    small_trsm_left_lower_unit(l, b);
    return;
  }
  // Row-block i: X_i = B_i − L_{i,<i}·X_{<i} (unit diagonal block solve).
  for (std::size_t i0 = 0; i0 < n; i0 += kTrsmNb) {
    const std::size_t ib = std::min(kTrsmNb, n - i0);
    MatrixView bi = b.block(i0, 0, ib, b.cols());
    if (i0 > 0)
      gemm(-1.0, l.block(i0, 0, ib, i0), Trans::No, b.block(0, 0, i0, b.cols()),
           Trans::No, 1.0, bi);
    small_trsm_left_lower_unit(l.block(i0, i0, ib, ib), bi);
  }
}

void trsm_right_lower_trans(ConstMatrixView l, MatrixView b) {
  const std::size_t n = l.rows();
  ABFTC_REQUIRE(l.cols() == n, "triangular factor must be square");
  ABFTC_REQUIRE(b.cols() == n, "shape mismatch in trsm_right_lower_trans");
  if (!use_blocked() || n < kTrsmCutoff) {
    small_trsm_right_lower_trans(l, b);
    return;
  }
  // Column-block j: X_j = (B_j − X_{<j}·Lᵀ_{<j,j}) · L_jjᵀ⁻¹ where
  // Lᵀ_{<j,j} = L(j0:,0:j0)ᵀ.
  const std::size_t m = b.rows();
  for (std::size_t j0 = 0; j0 < n; j0 += kTrsmNb) {
    const std::size_t jb = std::min(kTrsmNb, n - j0);
    MatrixView bj = b.block(0, j0, m, jb);
    if (j0 > 0)
      gemm(-1.0, b.block(0, 0, m, j0), Trans::No, l.block(j0, 0, jb, j0),
           Trans::Yes, 1.0, bj);
    small_trsm_right_lower_trans(l.block(j0, j0, jb, jb), bj);
  }
}

void getf2_nopiv(MatrixView a) {
  const std::size_t n = a.rows();
  ABFTC_REQUIRE(a.cols() == n, "getf2_nopiv expects a square block");
  if (!use_blocked() || n < kFactorCutoff) {
    small_getf2(a);
    return;
  }
  // Right-looking blocked LU: factor the diagonal block with the reference
  // loops, solve the block row/column against it, push the trailing update
  // through gemm.
  for (std::size_t off = 0; off < n; off += kFactorNb) {
    const std::size_t nb = std::min(kFactorNb, n - off);
    const std::size_t rest = n - off - nb;
    MatrixView diag = a.block(off, off, nb, nb);
    small_getf2(diag);
    if (rest == 0) break;
    small_trsm_left_lower_unit(diag, a.block(off, off + nb, nb, rest));
    small_trsm_right_upper(diag, a.block(off + nb, off, rest, nb));
    gemm(-1.0, a.block(off + nb, off, rest, nb), Trans::No,
         a.block(off, off + nb, nb, rest), Trans::No, 1.0,
         a.block(off + nb, off + nb, rest, rest));
  }
}

void potf2_lower(MatrixView a) {
  const std::size_t n = a.rows();
  ABFTC_REQUIRE(a.cols() == n, "potf2 expects a square block");
  if (!use_blocked() || n < kFactorCutoff) {
    small_potf2(a);
    return;
  }
  // Right-looking blocked Cholesky restricted to the lower triangle: the
  // strictly-below-diagonal part of each trailing block column goes through
  // gemm; diagonal blocks keep a scalar loop so entries above the diagonal
  // are never written (matching the reference kernel's contract).
  for (std::size_t off = 0; off < n; off += kFactorNb) {
    const std::size_t nb = std::min(kFactorNb, n - off);
    const std::size_t rest = n - off - nb;
    MatrixView diag = a.block(off, off, nb, nb);
    small_potf2(diag);
    if (rest == 0) break;
    MatrixView panel = a.block(off + nb, off, rest, nb);
    small_trsm_right_lower_trans(diag, panel);
    for (std::size_t bj = off + nb; bj < n; bj += kFactorNb) {
      const std::size_t jb = std::min(kFactorNb, n - bj);
      // Diagonal block of the trailing update, lower triangle only.
      for (std::size_t i = bj; i < bj + jb; ++i)
        for (std::size_t j = bj; j <= i; ++j) {
          double s = 0.0;
          for (std::size_t p = off; p < off + nb; ++p) s += a(i, p) * a(j, p);
          a(i, j) -= s;
        }
      if (bj + jb < n)
        gemm(-1.0, a.block(bj + jb, off, n - bj - jb, nb), Trans::No,
             a.block(bj, off, jb, nb), Trans::Yes, 1.0,
             a.block(bj + jb, bj, n - bj - jb, jb));
    }
  }
}

void geqr2(MatrixView a, std::vector<double>& tau) {
  const std::size_t m = a.rows();
  const std::size_t k = std::min(m, a.cols());
  tau.assign(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    // Build the Householder reflector annihilating a(j+1:, j).
    double norm2 = 0.0;
    for (std::size_t i = j; i < m; ++i) norm2 += a(i, j) * a(i, j);
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) {
      tau[j] = 0.0;
      continue;
    }
    const double alpha = a(j, j);
    const double beta = (alpha >= 0.0) ? -norm : norm;
    tau[j] = (beta - alpha) / beta;
    const double inv = 1.0 / (alpha - beta);
    for (std::size_t i = j + 1; i < m; ++i) a(i, j) *= inv;
    a(j, j) = beta;
    // Apply (I − τ v vᵀ) to the remaining columns.
    for (std::size_t c = j + 1; c < a.cols(); ++c) {
      double s = a(j, c);
      for (std::size_t i = j + 1; i < m; ++i) s += a(i, j) * a(i, c);
      s *= tau[j];
      a(j, c) -= s;
      for (std::size_t i = j + 1; i < m; ++i) a(i, c) -= s * a(i, j);
    }
  }
}

namespace {

// Flop-count cutover for the compact-WY applicator, in the spirit of the
// gemm dispatcher's kBlockedFlopCutoff: below it the V/T scratch and the
// form_t accumulation cost more than the GEMMs save. A single reflector
// (k = 1) never benefits.
constexpr std::size_t kQrApplyFlopCutoff = 32 * 32 * 32;

void check_apply_shapes(ConstMatrixView v_panel, const std::vector<double>& tau,
                        MatrixView c) {
  ABFTC_REQUIRE(v_panel.rows() == c.rows(),
                "reflector panel and target must share row count");
  ABFTC_REQUIRE(tau.size() <= v_panel.cols(), "too many tau coefficients");
}

// One reflector of the reference loops: C ← (I − τ_j v_j v_jᵀ)·C with
// v_j = [0…0, 1, v_panel(j+1:, j)]. Shared by the forward and reverse
// reference applications so both orders are bitwise-stable.
void apply_one_reflector(ConstMatrixView v_panel, double tau_j, std::size_t j,
                         MatrixView c) {
  const std::size_t m = c.rows();
  for (std::size_t col = 0; col < c.cols(); ++col) {
    double s = c(j, col);
    for (std::size_t i = j + 1; i < m; ++i) s += v_panel(i, j) * c(i, col);
    s *= tau_j;
    c(j, col) -= s;
    for (std::size_t i = j + 1; i < m; ++i) c(i, col) -= s * v_panel(i, j);
  }
}

}  // namespace

CompactWy::CompactWy(ConstMatrixView v_panel, const std::vector<double>& tau)
    : v_(v_panel.rows(), tau.size()), t_(tau.size(), tau.size()) {
  ABFTC_REQUIRE(!tau.empty(), "compact-WY panel needs at least one reflector");
  ABFTC_REQUIRE(tau.size() <= v_panel.cols(), "too many tau coefficients");
  const std::size_t m = v_.rows();
  const std::size_t k = tau.size();
  // Materialize the unit lower-trapezoidal V: the stored panel's upper
  // triangle holds R, which must not leak into the products.
  for (std::size_t j = 0; j < k; ++j) {
    v_(j, j) = 1.0;
    for (std::size_t i = j + 1; i < m; ++i) v_(i, j) = v_panel(i, j);
  }
  form_t(v_panel, tau, t_.view());
}

void CompactWy::apply(MatrixView c, Trans t_trans) const {
  ABFTC_REQUIRE(c.rows() == v_.rows(),
                "reflector panel and target must share row count");
  const std::size_t k = t_.rows();
  const std::size_t n = c.cols();
  if (n == 0) return;
  // W ← Vᵀ·C and C ← C − V·W carry the O(m·n·k) work and dispatch through
  // gemm (blocked above the gemm cutoff); the k×k triangular factor multiply
  // stays on the reference loop — it is O(n·k²) and serial keeps the result
  // worker-count-invariant for free. Forward order applies Tᵀ, reverse T.
  Matrix w(k, n, 0.0);
  gemm(1.0, v_.view(), Trans::Yes, c, Trans::No, 0.0, w.view());
  Matrix tw(k, n, 0.0);
  naive_gemm(1.0, t_.view(), t_trans, w.view(), Trans::No, 0.0, tw.view());
  gemm(-1.0, v_.view(), Trans::No, tw.view(), Trans::No, 1.0, c);
}

void form_t(ConstMatrixView v_panel, const std::vector<double>& tau,
            MatrixView t) {
  const std::size_t k = tau.size();
  const std::size_t m = v_panel.rows();
  ABFTC_REQUIRE(k <= v_panel.cols(), "too many tau coefficients");
  ABFTC_REQUIRE(k <= m, "reflector count exceeds panel rows");
  ABFTC_REQUIRE(t.rows() == k && t.cols() == k, "T must be k×k");
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < k; ++j) t(i, j) = 0.0;
  std::vector<double> w(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    if (tau[j] == 0.0) continue;  // H_j = I: the column stays zero.
    // w ← V(:, 0:j)ᵀ·v_j over the rows where v_j is nonzero (v_j(j) = 1
    // implicit, v_j(i) = v_panel(i, j) below), traversed row-major.
    for (std::size_t i = 0; i < j; ++i) w[i] = v_panel(j, i);
    for (std::size_t r = j + 1; r < m; ++r) {
      const double vrj = v_panel(r, j);
      if (vrj == 0.0) continue;
      for (std::size_t i = 0; i < j; ++i) w[i] += v_panel(r, i) * vrj;
    }
    // T(0:j, j) = −τ_j · T(0:j, 0:j)·w (T upper triangular).
    for (std::size_t i = 0; i < j; ++i) {
      double s = 0.0;
      for (std::size_t p = i; p < j; ++p) s += t(i, p) * w[p];
      t(i, j) = -tau[j] * s;
    }
    t(j, j) = tau[j];
  }
}

void apply_reflectors_blocked_left(ConstMatrixView v_panel,
                                   const std::vector<double>& tau,
                                   MatrixView c) {
  check_apply_shapes(v_panel, tau, c);
  if (tau.empty() || c.cols() == 0) return;
  CompactWy(v_panel, tau).apply_left(c);
}

void apply_reflectors_left_reference(ConstMatrixView v_panel,
                                     const std::vector<double>& tau,
                                     MatrixView c) {
  check_apply_shapes(v_panel, tau, c);
  for (std::size_t j = 0; j < tau.size(); ++j) {
    if (tau[j] == 0.0) continue;
    apply_one_reflector(v_panel, tau[j], j, c);
  }
}

bool qr_apply_uses_blocked_path(std::size_t m, std::size_t n,
                                std::size_t k) noexcept {
  return kernel_policy().path == KernelPath::blocked && k >= 2 &&
         m * n * k >= kQrApplyFlopCutoff;
}

void apply_reflectors_left(ConstMatrixView v_panel,
                           const std::vector<double>& tau, MatrixView c) {
  if (qr_apply_uses_blocked_path(c.rows(), c.cols(), tau.size()))
    apply_reflectors_blocked_left(v_panel, tau, c);
  else
    apply_reflectors_left_reference(v_panel, tau, c);
}

void apply_reflectors_left_reverse(ConstMatrixView v_panel,
                                   const std::vector<double>& tau,
                                   MatrixView c) {
  check_apply_shapes(v_panel, tau, c);
  if (qr_apply_uses_blocked_path(c.rows(), c.cols(), tau.size())) {
    CompactWy(v_panel, tau).apply_left_reverse(c);
    return;
  }
  for (std::size_t j = tau.size(); j-- > 0;) {
    if (tau[j] == 0.0) continue;
    apply_one_reflector(v_panel, tau[j], j, c);
  }
}

void gemv(ConstMatrixView a, const std::vector<double>& x,
          std::vector<double>& y) {
  ABFTC_REQUIRE(x.size() == a.cols(), "gemv dimension mismatch");
  y.assign(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    y[i] = s;
  }
}

std::vector<double> lu_solve(const Matrix& lu, std::vector<double> b) {
  const std::size_t n = lu.rows();
  ABFTC_REQUIRE(lu.cols() == n && b.size() == n, "lu_solve shape mismatch");
  // Ly = b (unit lower).
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t p = 0; p < i; ++p) b[i] -= lu(i, p) * b[p];
  // Ux = y.
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t p = ii + 1; p < n; ++p) b[ii] -= lu(ii, p) * b[p];
    ABFTC_CHECK(std::fabs(lu(ii, ii)) > kPivotTiny, "singular U factor");
    b[ii] /= lu(ii, ii);
  }
  return b;
}

std::vector<double> cholesky_solve(const Matrix& l, std::vector<double> b) {
  const std::size_t n = l.rows();
  ABFTC_REQUIRE(l.cols() == n && b.size() == n,
                "cholesky_solve shape mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < i; ++p) b[i] -= l(i, p) * b[p];
    ABFTC_CHECK(std::fabs(l(i, i)) > kPivotTiny, "singular Cholesky factor");
    b[i] /= l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    for (std::size_t p = ii + 1; p < n; ++p) b[ii] -= l(p, ii) * b[p];
    b[ii] /= l(ii, ii);
  }
  return b;
}

}  // namespace abftc::abft
