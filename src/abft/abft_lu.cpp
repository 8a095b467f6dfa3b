#include "abft/abft_lu.hpp"

#include <chrono>
#include <cmath>

#include "abft/blas.hpp"

namespace abftc::abft {

AbftLu::AbftLu(Matrix a, std::size_t nb, ProcessGrid grid)
    : a_(std::move(a)), nb_(nb), grid_(grid) {
  grid_.validate();
  ABFTC_REQUIRE(a_.rows() == a_.cols(), "LU expects a square matrix");
  ABFTC_REQUIRE(nb > 0 && a_.rows() % nb == 0,
                "dimension must be a multiple of the block size");
  nbk_ = a_.rows() / nb_;
  ABFTC_REQUIRE(nbk_ % grid_.prows == 0,
                "block count must be a multiple of the grid rows");
  active_cs_ = row_group_checksums(a_, nb_, grid_.prows);
  frozen_cs_ = Matrix::zeros(active_cs_.rows(), active_cs_.cols());
  wactive_cs_ = row_group_weighted_checksums(a_, nb_, grid_.prows);
  wfrozen_cs_ = Matrix::zeros(active_cs_.rows(), active_cs_.cols());
}

void AbftLu::factor(const std::vector<Fault>& faults,
                    const StepObserver& after_step) {
  recovery_ = RecoveryStats{};
  std::size_t next_fault = 0;
  for (std::size_t k = 0; k <= nbk_; ++k) {
    // Faults with the same step are simultaneous: all ranks die before any
    // reconstruction begins (the hard case for checksum protection).
    std::size_t batch_end = next_fault;
    while (batch_end < faults.size() && faults[batch_end].at_step == k) {
      ABFTC_REQUIRE(faults[batch_end].dead_rank < grid_.size(),
                    "dead rank out of range");
      kill_rank_blocks(a_, nb_, grid_, faults[batch_end].dead_rank);
      ++batch_end;
    }
    for (; next_fault < batch_end; ++next_fault)
      recover_rank(k, faults[next_fault].dead_rank);
    if (k == nbk_) break;
    step(k);
    if (after_step) after_step(k + 1);
  }
  ABFTC_REQUIRE(next_fault == faults.size(),
                "faults must be sorted by step and within range");
}

void AbftLu::step(std::size_t k) {
  const std::size_t n = a_.rows();
  const std::size_t off = k * nb_;
  const std::size_t rest = n - off - nb_;
  const std::size_t g = k / grid_.prows;
  // Live active-accumulator rows [lo, csr): the fully frozen groups below
  // lo (this step's pivot group too, when k is its last member) hold only
  // drained rounding noise and skip the trsm and the GEMM.
  const std::size_t lo = live_checksum_row(k, grid_.prows, nb_);
  const std::size_t live = active_cs_.rows() - lo;

  // The pivot block row's weight inside its checksum group. Every operation
  // below is linear in rows, so the weighted accumulators stay consistent by
  // receiving the identical transformations as the sum accumulators.
  const double w = static_cast<double>(k % grid_.prows + 1);

  // The pivot block row leaves the active set: remove its pre-step values
  // from the active accumulator (they are re-added, post-factorization, to
  // the frozen accumulator at the end of the step).
  for (std::size_t r = 0; r < nb_; ++r)
    for (std::size_t j = 0; j < n; ++j) {
      active_cs_(g * nb_ + r, j) -= a_(off + r, j);
      wactive_cs_(g * nb_ + r, j) -= w * a_(off + r, j);
    }

  // (a) Factor the diagonal block.
  MatrixView diag = a_.block(off, off, nb_, nb_);
  getf2_nopiv(diag);

  // (b) U block row: A(k, j>k) <- L_kk^{-1} A(k, j>k).
  if (rest > 0)
    trsm_left_lower_unit(diag, a_.block(off, off + nb_, nb_, rest));

  // (c) L block column: A(i>k, k) <- A(i>k, k) U_kk^{-1}; the active
  //     checksums receive the identical transformation.
  if (rest > 0)
    trsm_right_upper(diag, a_.block(off + nb_, off, rest, nb_));
  trsm_right_upper(diag, active_cs_.block(lo, off, live, nb_));
  trsm_right_upper(diag, wactive_cs_.block(lo, off, live, nb_));

  // (d) Trailing update A(i>k, j>k) -= A(i>k, k) · A(k, j>k), applied to the
  //     payload and to the active checksums alike.
  if (rest > 0) {
    gemm_sub(a_.block(off + nb_, off, rest, nb_),
             a_.block(off, off + nb_, nb_, rest),
             a_.block(off + nb_, off + nb_, rest, rest));
    gemm_sub(active_cs_.block(lo, off, live, nb_),
             a_.block(off, off + nb_, nb_, rest),
             active_cs_.block(lo, off + nb_, live, rest));
    gemm_sub(wactive_cs_.block(lo, off, live, nb_),
             a_.block(off, off + nb_, nb_, rest),
             wactive_cs_.block(lo, off + nb_, live, rest));
  }

  // Freeze the finalized pivot block row into the frozen accumulators.
  for (std::size_t r = 0; r < nb_; ++r)
    for (std::size_t j = 0; j < n; ++j) {
      frozen_cs_(g * nb_ + r, j) += a_(off + r, j);
      wfrozen_cs_(g * nb_ + r, j) += w * a_(off + r, j);
    }
  frozen_steps_ = k + 1;
}

void AbftLu::recover_rank(std::size_t k, std::size_t dead_rank) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryStats stats;
  stats.recoveries = 1;

  for (const auto& [bi, bj] : blocks_of_rank(grid_, dead_rank, nbk_, nbk_)) {
    MatrixView lost = a_.view().block(bi * nb_, bj * nb_, nb_, nb_);
    if (!has_nan(lost)) continue;
    const bool frozen = bi < k;
    const Matrix& cs = frozen ? frozen_cs_ : active_cs_;
    const std::size_t g = bi / grid_.prows;
    // lost = cs_g − Σ other group members with the same frozen/active state.
    for (std::size_t r = 0; r < nb_; ++r)
      for (std::size_t c = 0; c < nb_; ++c)
        lost(r, c) = cs(g * nb_ + r, bj * nb_ + c);
    const std::size_t first = g * grid_.prows;
    for (std::size_t mi = first; mi < first + grid_.prows; ++mi) {
      if (mi == bi) continue;
      if ((mi < k) != frozen) continue;  // other accumulator covers it
      ConstMatrixView other = a_.view().block(mi * nb_, bj * nb_, nb_, nb_);
      if (has_nan(other))
        throw unrecoverable_error(
            "two lost block rows share a checksum group");
      for (std::size_t r = 0; r < nb_; ++r)
        for (std::size_t c = 0; c < nb_; ++c) lost(r, c) -= other(r, c);
    }
    ++stats.blocks_recovered;
    stats.values_recovered += nb_ * nb_;
  }
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  recovery_ += stats;
}

Matrix AbftLu::reconstruct_product() const {
  const std::size_t n = a_.rows();
  Matrix prod(n, n, 0.0);
  // prod = L · U with L unit-lower and U upper from the compact factor.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = (i <= j) ? a_(i, j) : 0.0;  // L(i,i)=1 times U(i,j)
      const std::size_t kmax = std::min(i, j + 1);
      for (std::size_t p = 0; p < kmax; ++p) s += a_(i, p) * a_(p, j);
      prod(i, j) = s;
    }
  return prod;
}

double AbftLu::checksum_residual() const {
  // Recompute all four accumulators from the payload and compare.
  Matrix expect_active = Matrix::zeros(active_cs_.rows(), active_cs_.cols());
  Matrix expect_frozen = Matrix::zeros(frozen_cs_.rows(), frozen_cs_.cols());
  Matrix expect_wactive = Matrix::zeros(active_cs_.rows(), active_cs_.cols());
  Matrix expect_wfrozen = Matrix::zeros(frozen_cs_.rows(), frozen_cs_.cols());
  const std::size_t n = a_.rows();
  for (std::size_t bi = 0; bi < nbk_; ++bi) {
    const bool frozen = bi < frozen_steps_;
    Matrix& target = frozen ? expect_frozen : expect_active;
    Matrix& wtarget = frozen ? expect_wfrozen : expect_wactive;
    const std::size_t g = bi / grid_.prows;
    const double w = static_cast<double>(bi % grid_.prows + 1);
    for (std::size_t r = 0; r < nb_; ++r)
      for (std::size_t j = 0; j < n; ++j) {
        target(g * nb_ + r, j) += a_(bi * nb_ + r, j);
        wtarget(g * nb_ + r, j) += w * a_(bi * nb_ + r, j);
      }
  }
  return std::max(std::max(max_abs_diff(expect_active, active_cs_),
                           max_abs_diff(expect_frozen, frozen_cs_)),
                  std::max(max_abs_diff(expect_wactive, wactive_cs_),
                           max_abs_diff(expect_wfrozen, wfrozen_cs_)));
}

void plain_blocked_lu(Matrix& a, std::size_t nb) {
  ABFTC_REQUIRE(a.rows() == a.cols(), "LU expects a square matrix");
  ABFTC_REQUIRE(nb > 0 && a.rows() % nb == 0,
                "dimension must be a multiple of the block size");
  const std::size_t n = a.rows();
  for (std::size_t off = 0; off < n; off += nb) {
    const std::size_t rest = n - off - nb;
    MatrixView diag = a.block(off, off, nb, nb);
    getf2_nopiv(diag);
    if (rest == 0) break;
    trsm_left_lower_unit(diag, a.block(off, off + nb, nb, rest));
    trsm_right_upper(diag, a.block(off + nb, off, rest, nb));
    gemm_sub(a.block(off + nb, off, rest, nb),
             a.block(off, off + nb, nb, rest),
             a.block(off + nb, off + nb, rest, rest));
  }
}

}  // namespace abftc::abft
