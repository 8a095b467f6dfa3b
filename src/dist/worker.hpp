#pragma once
/// \file worker.hpp
/// The shared-arena layout and the worker side of the distributed
/// ABFT-protected LU factorization.
///
/// Ownership is panel-cyclic over block columns: rank `j % nranks` owns
/// block column j of the matrix and of the four checksum accumulators. Block
/// step k is two commands over the shared step functions of abft_lu.hpp:
/// Panel(k) runs abft::lu_panel on owner(k) alone, then Update(k) runs
/// abft::lu_update_columns on every rank, one owned block column per call.
///
/// No two ranks ever write the same bytes within a phase: Panel writes only
/// column block k, Update writes only the executing rank's owned columns,
/// and column block k of the payload and active accumulators is read-only
/// during Update.

#include <cstddef>
#include <cstdint>

#include "abft/abft_lu.hpp"
#include "dist/channel.hpp"

namespace abftc::dist {

inline constexpr std::uint64_t kArenaMagic = 0xABF7'D157'0000'0002ULL;

/// Byte offsets of everything in the shared arena, derived from the
/// problem shape. Both sides compute it; the control block holds the shape
/// so a respawned worker can cross-check it re-attached to the right run.
struct DistLayout {
  std::size_t n = 0;       ///< matrix dimension
  std::size_t nb = 0;      ///< block size
  std::size_t nbk = 0;     ///< block steps (n / nb)
  std::size_t group = 0;   ///< block rows per checksum group
  std::size_t groups = 0;  ///< nbk / group
  std::size_t csr = 0;     ///< checksum rows = groups * nb
  std::size_t nranks = 0;

  std::size_t cmd_off = 0;     ///< nranks coordinator→worker mailboxes
  std::size_t rsp_off = 0;     ///< nranks worker→coordinator mailboxes
  std::size_t matrix_off = 0;   ///< n × n doubles
  std::size_t active_off = 0;   ///< csr × n doubles
  std::size_t frozen_off = 0;   ///< csr × n doubles
  std::size_t wactive_off = 0;  ///< position-weighted twin of active
  std::size_t wfrozen_off = 0;  ///< position-weighted twin of frozen
  std::size_t total_bytes = 0;

  [[nodiscard]] static DistLayout compute(std::size_t n, std::size_t nb,
                                          std::size_t group,
                                          std::size_t nranks);
};

/// Run identity at arena offset 0, written by the coordinator before any
/// fork; workers (including respawns) validate it on attach.
struct ControlBlock {
  std::uint64_t magic = 0;
  std::uint64_t n = 0, nb = 0, group = 0, nranks = 0;
};

/// Typed windows into the arena for one process.
struct SharedState {
  ControlBlock* ctl = nullptr;
  Mailbox* cmd = nullptr;  ///< [nranks]
  Mailbox* rsp = nullptr;  ///< [nranks]
  double* matrix = nullptr;
  double* active = nullptr;
  double* frozen = nullptr;
  double* wactive = nullptr;
  double* wfrozen = nullptr;
  DistLayout layout;

  [[nodiscard]] static SharedState attach(void* base, const DistLayout& lay);

  /// The protected-LU state in the arena, as the shared step functions
  /// take it.
  [[nodiscard]] abft::LuView lu() const;
};

/// Panel-cyclic owner of block column j.
[[nodiscard]] constexpr std::size_t owner_of(std::size_t block_col,
                                             std::size_t nranks) noexcept {
  return block_col % nranks;
}

/// Child-process entry point: pins the kernel policy to one inline thread
/// (a forked child must never touch the parent's executor pool), signals
/// readiness with one byte on `ready_fd`, then serves Panel/Update commands
/// from its mailbox until Shutdown. Exits via _exit — never returns, never
/// runs parent-inherited atexit handlers or flushes parent stdio buffers.
[[noreturn]] void worker_main(void* arena, const DistLayout& lay,
                              std::size_t rank, int ready_fd);

}  // namespace abftc::dist
