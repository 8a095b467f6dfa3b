#pragma once
/// \file abft_lu.hpp
/// ABFT-protected right-looking blocked LU factorization (no pivoting; use
/// diagonally dominant inputs), after Du, Bouteiller, Bosilca et al. [9].
///
/// Protection scheme ("dual accumulator" checksums, the algebra of Bosilca,
/// Delmas, Dongarra and Langou, arXiv:0806.3121):
///  * `active` row-group checksums cover the not-yet-factored block rows and
///    are carried through every panel/update operation — the same linear row
///    operations applied to the data are applied to the checksums, so the
///    invariant   active_cs[g] = Σ_{i ∈ g, i active} row_i   is exact at
///    every block-step boundary.
///  * When a block row is factored it freezes; its contribution moves from
///    the active accumulator to the `frozen` accumulator
///    (frozen_cs[g] = Σ_{i ∈ g, i frozen} row_i), which thereafter protects
///    the L and U factors at O(n²) total maintenance cost.
///  * A position-weighted twin of each accumulator (weight = 1-based position
///    of the block row inside its group, the second Huang–Abraham relation)
///    receives the identical operations; the ratio of the weighted and plain
///    residuals names a single corrupted block row.
///  * Only the live active rows [lo, csr), lo = live_checksum_row(k, P, nb),
///    go through step k's trsm and GEMM. A group whose last block row has
///    frozen has nothing left to protect in `active`: its rows there keep
///    the rounding noise left when they drained, and no recovery reads them
///    (recovery of a frozen block row reads `frozen`). This trims the
///    checksum GEMM flops by 32% (2.37 → 1.61 GFLOP at n = 1536, nb = 32,
///    P = 3).
///
/// A rank killed at a block-step boundary is reconstructed block-by-block by
/// subtracting the surviving group members from the matching accumulator;
/// the factorization then resumes where it stopped — no work is lost, which
/// is exactly the property the paper's Recons_ABFT term models.
///
/// The step, the invariant sweep and the block rebuild are free functions
/// over an `LuView`, shared by `AbftLu` and the forked dist runtime
/// (dist/worker.hpp). AbftLu updates all trailing columns in one call per
/// step; a dist rank updates one nb-wide block column per call. The GEMM may
/// pick a different kernel path for the two widths, so serial and dist
/// factors agree to rounding, while dist results are bitwise identical
/// across rank counts and repeats.

#include <functional>
#include <vector>

#include "abft/checksum.hpp"

namespace abftc::abft {

/// The protected-LU state as views: the n×n payload and the four
/// (groups·nb)×n accumulators.
struct LuView {
  MatrixView a, active, frozen, wactive, wfrozen;
  std::size_t nb = 0;
  std::size_t group = 0;  ///< block rows per checksum group (P)
};

/// Panel of block step k: move the pivot block out of the active
/// accumulators' column block k, factor the diagonal block, and apply
/// U_kk^{-1} to the L block column and to the live active rows of column
/// block k.
void lu_panel(const LuView& v, std::size_t k);

/// Update of block step k over block columns [j_lo, j_hi), after
/// lu_panel(k): move the pivot row out of the active accumulators (column
/// block k excepted), apply L_kk^{-1} to the U block row and the trailing
/// GEMM to the payload and the live active rows over [max(j_lo, k+1), j_hi)
/// — one trsm and three GEMM calls — then freeze the finished pivot row into
/// the frozen accumulators. Calls over disjoint column ranges write disjoint
/// bytes.
void lu_update_columns(const LuView& v, std::size_t k, std::size_t j_lo,
                       std::size_t j_hi);

/// Recomputed-minus-stored residuals of accumulator element (row, j) with
/// block rows [0, frozen_steps) frozen; index 0 is the active class, 1 the
/// frozen one. A single corrupted element with delta d at group position m
/// leaves sum = d and weighted = (m+1)·d in its class.
struct LuResidual {
  double sum[2];
  double weighted[2];
};
[[nodiscard]] inline LuResidual lu_residual_at(const LuView& v,
                                               std::size_t row, std::size_t j,
                                               std::size_t frozen_steps) {
  const std::size_t g = row / v.nb, r = row % v.nb;
  double ea = 0.0, ef = 0.0, wa = 0.0, wf = 0.0;
  for (std::size_t m = 0; m < v.group; ++m) {
    const std::size_t bi = g * v.group + m;
    const double x = v.a(bi * v.nb + r, j);
    const double w = static_cast<double>(m + 1);
    if (bi < frozen_steps) {
      ef += x;
      wf += w * x;
    } else {
      ea += x;
      wa += w * x;
    }
  }
  return {{ea - v.active(row, j), ef - v.frozen(row, j)},
          {wa - v.wactive(row, j), wf - v.wfrozen(row, j)}};
}

/// Max-abs residual of all four invariants. Runs on `threads` workers
/// (inline for small states) with one output slot per accumulator row and a
/// serial max-fold, so the result is bitwise identical for every thread
/// count.
[[nodiscard]] double lu_checksum_residual(const LuView& v,
                                          std::size_t frozen_steps,
                                          unsigned threads);

/// Rebuild payload block (bi, bj) from its accumulator (frozen when
/// bi < frozen_steps, else active) minus the group's other members of the
/// same class. Throws unrecoverable_error if one of those is lost (NaN).
void lu_rebuild_block(const LuView& v, std::size_t bi, std::size_t bj,
                      std::size_t frozen_steps);

class AbftLu {
 public:
  struct Fault {
    std::size_t at_step = 0;  ///< inject before block step `at_step`
    std::size_t dead_rank = 0;
  };

  /// A must be square, its dimension a multiple of nb, and the block count a
  /// multiple of the grid row count.
  AbftLu(Matrix a, std::size_t nb, ProcessGrid grid);

  /// Runs after every block step with the count of finished steps; tests
  /// use it to check the invariants at each step boundary.
  using StepObserver = std::function<void(std::size_t steps_done)>;

  /// Factor in place, optionally injecting rank failures (sorted by step;
  /// at_step == block-count means "after the last step").
  void factor(const std::vector<Fault>& faults = {},
              const StepObserver& after_step = {});

  /// Compact L\U factor (unit lower / upper in one matrix).
  [[nodiscard]] const Matrix& lu() const noexcept { return a_; }

  /// L·U recomputed from the compact factor (verification helper).
  [[nodiscard]] Matrix reconstruct_product() const;

  /// Max-abs residual of all four checksum invariants (sum + weighted,
  /// active + frozen) at the current state (tests assert ~0 at every step
  /// boundary); lu_checksum_residual on kernel_policy()'s threads.
  [[nodiscard]] double checksum_residual() const;

  /// The weighted accumulator pair (Huang–Abraham localization relation):
  /// w_cs[g] = Σ_m (m+1)·row_{g·P+m} over the matching frozen/active split.
  [[nodiscard]] const Matrix& weighted_active_cs() const noexcept {
    return wactive_cs_;
  }
  [[nodiscard]] const Matrix& weighted_frozen_cs() const noexcept {
    return wfrozen_cs_;
  }

  [[nodiscard]] const RecoveryStats& recovery() const noexcept {
    return recovery_;
  }

  /// Fraction of extra arithmetic spent maintaining checksums: the active
  /// accumulator adds 1/P worth of rows to every panel and update.
  [[nodiscard]] double overhead_fraction() const noexcept {
    return 1.0 / static_cast<double>(grid_.prows);
  }

  [[nodiscard]] std::size_t block_steps() const noexcept { return nbk_; }

 private:
  /// Views over the owned matrices; a const AbftLu only reads through them.
  [[nodiscard]] LuView view() const;
  void recover_rank(std::size_t dead_rank);

  Matrix a_;           // n×n working matrix (becomes L\U)
  Matrix active_cs_;   // (groups·nb) × n
  Matrix frozen_cs_;   // (groups·nb) × n
  Matrix wactive_cs_;  // position-weighted twins of the two above
  Matrix wfrozen_cs_;
  std::size_t nb_, nbk_;
  std::size_t frozen_steps_ = 0;  ///< block rows 0..frozen_steps_-1 frozen
  ProcessGrid grid_;
  RecoveryStats recovery_;
};

/// Baseline: plain blocked LU without checksums (for overhead benches).
void plain_blocked_lu(Matrix& a, std::size_t nb);

}  // namespace abftc::abft
