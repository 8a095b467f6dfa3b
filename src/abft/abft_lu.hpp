#pragma once
/// \file abft_lu.hpp
/// ABFT-protected right-looking blocked LU factorization (no pivoting; use
/// diagonally dominant inputs), after Du, Bouteiller, Bosilca et al. [9].
///
/// Protection scheme ("dual accumulator" checksums):
///  * `active` row-group checksums cover the not-yet-factored block rows and
///    are carried through every panel/update operation — the same linear row
///    operations applied to the data are applied to the checksums, so the
///    invariant   active_cs[g] = Σ_{i ∈ g, i active} row_i   is exact at
///    every block-step boundary.
///  * When a block row is factored it freezes; its contribution moves from
///    the active accumulator to the `frozen` accumulator
///    (frozen_cs[g] = Σ_{i ∈ g, i frozen} row_i), which thereafter protects
///    the L and U factors at O(n²) total maintenance cost.
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

#include <functional>
#include <optional>
#include <vector>

#include "abft/checksum.hpp"

namespace abftc::abft {

struct InjectedFault;  // abft_gemm.hpp; redefined here to avoid the include

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
  /// boundary).
  [[nodiscard]] double checksum_residual() const;

  /// The weighted accumulator pair (Huang–Abraham localization relation):
  /// w_cs[g] = Σ_m (m+1)·row_{g·P+m} over the matching frozen/active split.
  /// Maintained through the identical per-step operations as the sum pair,
  /// so the dist runtime's copies must match these bitwise.
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
  void step(std::size_t k);
  void recover_rank(std::size_t k, std::size_t dead_rank);

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
