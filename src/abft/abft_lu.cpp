#include "abft/abft_lu.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "abft/blas.hpp"
#include "abft/kernels.hpp"
#include "common/executor.hpp"

namespace abftc::abft {

namespace {

/// sum(g·nb + r, c) += sign · A(k·nb + r, c) and the weighted twin, over
/// columns [c_lo, c_hi): sign −1 moves the pivot block row of step k out of
/// the active pair, +1 freezes it into the frozen pair. The pivot row's
/// weight inside its checksum group is exact in double, and every step
/// operation is linear in rows, so the weighted accumulators stay consistent
/// by receiving the identical transformations as the sum ones.
void add_pivot_row(const LuView& v, MatrixView sum, MatrixView wsum,
                   std::size_t k, std::size_t c_lo, std::size_t c_hi,
                   double sign) {
  const std::size_t nb = v.nb, off = k * nb, g = k / v.group;
  const double w = sign * static_cast<double>(k % v.group + 1);
  for (std::size_t r = 0; r < nb; ++r)
    for (std::size_t c = c_lo; c < c_hi; ++c) {
      sum(g * nb + r, c) += sign * v.a(off + r, c);
      wsum(g * nb + r, c) += w * v.a(off + r, c);
    }
}

}  // namespace

void lu_panel(const LuView& v, std::size_t k) {
  const std::size_t nb = v.nb, off = k * nb;
  const std::size_t rest = v.a.rows() - off - nb;

  // The pivot block row leaves the active set: remove its pre-step values
  // from the active accumulators (column block k here, the others in
  // lu_update_columns, which also freezes the factored row).
  add_pivot_row(v, v.active, v.wactive, k, off, off + nb, -1.0);

  const MatrixView diag = v.a.block(off, off, nb, nb);
  getf2_nopiv(diag);

  // L block column: A(i>k, k) <- A(i>k, k) U_kk^{-1}; the live active
  // checksum rows receive the identical transformation. The fully frozen
  // groups below lo hold only drained rounding noise and skip it.
  if (rest > 0) trsm_right_upper(diag, v.a.block(off + nb, off, rest, nb));
  const std::size_t lo = live_checksum_row(k, v.group, nb);
  const std::size_t live = v.active.rows() - lo;
  trsm_right_upper(diag, v.active.block(lo, off, live, nb));
  trsm_right_upper(diag, v.wactive.block(lo, off, live, nb));
}

void lu_update_columns(const LuView& v, std::size_t k, std::size_t j_lo,
                       std::size_t j_hi) {
  const std::size_t nb = v.nb, off = k * nb;
  const std::size_t c_lo = j_lo * nb, c_hi = j_hi * nb;

  // Pre-subtract the pivot row's pre-step values (the trsm below has not
  // touched them yet); lu_panel already did column block k.
  add_pivot_row(v, v.active, v.wactive, k, c_lo, std::min(c_hi, off), -1.0);
  add_pivot_row(v, v.active, v.wactive, k, std::max(c_lo, off + nb), c_hi,
                -1.0);

  // U block row A(k, j>k) <- L_kk^{-1} A(k, j>k), then the trailing update
  // A(i>k, j>k) -= A(i>k, k) · A(k, j>k) on the payload and the live active
  // rows alike.
  const std::size_t t_lo = std::max(j_lo, k + 1);
  if (t_lo < j_hi) {
    const std::size_t col = t_lo * nb, width = c_hi - col;
    const std::size_t rest = v.a.rows() - off - nb;
    const std::size_t lo = live_checksum_row(k, v.group, nb);
    const std::size_t live = v.active.rows() - lo;
    const MatrixView u = v.a.block(off, col, nb, width);
    trsm_left_lower_unit(v.a.block(off, off, nb, nb), u);
    gemm_sub(v.a.block(off + nb, off, rest, nb), u,
             v.a.block(off + nb, col, rest, width));
    gemm_sub(v.active.block(lo, off, live, nb), u,
             v.active.block(lo, col, live, width));
    gemm_sub(v.wactive.block(lo, off, live, nb), u,
             v.wactive.block(lo, col, live, width));
  }

  // Freeze the finished pivot row into the frozen accumulators.
  add_pivot_row(v, v.frozen, v.wfrozen, k, c_lo, c_hi, 1.0);
}

double lu_checksum_residual(const LuView& v, std::size_t frozen_steps,
                            unsigned threads) {
  // The invariants hold at every step boundary, so any excess residual is
  // corruption. One accumulator row per index: each worker writes only its
  // own slot and the max-fold runs serially in row order. Tiny states stay
  // inline: below ~16k elements dispatch would dominate the sweep.
  const std::size_t rows = v.active.rows(), n = v.a.cols();
  std::vector<double> partial(rows, 0.0);
  common::parallel_for(
      rows,
      [&](std::size_t row) {
        double worst = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          const LuResidual res = lu_residual_at(v, row, j, frozen_steps);
          for (int cls = 0; cls < 2; ++cls) {
            worst = std::max(worst, std::abs(res.sum[cls]));
            worst = std::max(worst, std::abs(res.weighted[cls]));
          }
        }
        partial[row] = worst;
      },
      rows * n >= 16'384 ? threads : 1);
  double worst = 0.0;
  for (const double p : partial) worst = std::max(worst, p);
  return worst;
}

void lu_rebuild_block(const LuView& v, std::size_t bi, std::size_t bj,
                      std::size_t frozen_steps) {
  const std::size_t nb = v.nb, g = bi / v.group;
  const bool frozen = bi < frozen_steps;
  const ConstMatrixView cs =
      (frozen ? v.frozen : v.active).block(g * nb, bj * nb, nb, nb);
  const MatrixView lost = v.a.block(bi * nb, bj * nb, nb, nb);
  // lost = cs_g − Σ other group members with the same frozen/active state.
  copy_into(cs, lost);
  for (std::size_t mi = g * v.group; mi < (g + 1) * v.group; ++mi) {
    if (mi == bi || (mi < frozen_steps) != frozen) continue;
    const ConstMatrixView other = v.a.block(mi * nb, bj * nb, nb, nb);
    if (has_nan(other))
      throw unrecoverable_error("two lost block rows share a checksum group");
    for (std::size_t r = 0; r < nb; ++r)
      for (std::size_t c = 0; c < nb; ++c) lost(r, c) -= other(r, c);
  }
}

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
      recover_rank(faults[next_fault].dead_rank);
    if (k == nbk_) break;
    const LuView v = view();
    lu_panel(v, k);
    lu_update_columns(v, k, 0, nbk_);
    frozen_steps_ = k + 1;
    if (after_step) after_step(k + 1);
  }
  ABFTC_REQUIRE(next_fault == faults.size(),
                "faults must be sorted by step and within range");
}

LuView AbftLu::view() const {
  auto& self = const_cast<AbftLu&>(*this);
  return {self.a_.view(),       self.active_cs_.view(),
          self.frozen_cs_.view(), self.wactive_cs_.view(),
          self.wfrozen_cs_.view(), nb_, grid_.prows};
}

void AbftLu::recover_rank(std::size_t dead_rank) {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryStats stats;
  stats.recoveries = 1;
  const LuView v = view();
  for (const auto& [bi, bj] : blocks_of_rank(grid_, dead_rank, nbk_, nbk_)) {
    if (!has_nan(v.a.block(bi * nb_, bj * nb_, nb_, nb_))) continue;
    lu_rebuild_block(v, bi, bj, frozen_steps_);
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
  return lu_checksum_residual(view(), frozen_steps_,
                              resolved_threads(kernel_policy()));
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
