#pragma once
/// \file timing_backend.hpp
/// A StorageBackend decorator that times and counts what passes through it,
/// built like ckpt::io::FaultingBackend: the traced dist_faults jobs put it
/// outermost, so the launcher's commits and restores are timed exactly at
/// the ckpt layer's public interface.

#include <cstddef>
#include <cstdint>

#include "ckpt/io/backend.hpp"

namespace perfbench {

struct CkptTally {
  double commit_s = 0.0;  ///< inside write_snapshot / session append+commit
  double read_s = 0.0;    ///< inside read_snapshot
  std::size_t commits = 0;
  std::uint64_t bytes_written = 0;  ///< committed payload bytes
};

class TimingBackend final : public abftc::ckpt::io::StorageBackend {
 public:
  /// Decorate `inner` (non-owning; must outlive the decorator).
  explicit TimingBackend(abftc::ckpt::io::StorageBackend& inner)
      : inner_(inner) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "timing";
  }
  void open() override { inner_.open(); }
  void write_snapshot(const abftc::ckpt::io::SnapshotBlob& blob) override;
  [[nodiscard]] abftc::ckpt::io::SnapshotBlob read_snapshot(
      abftc::ckpt::CkptId id) const override;
  [[nodiscard]] std::vector<abftc::ckpt::io::SnapshotMeta> list()
      const override {
    return inner_.list();
  }
  void drop(abftc::ckpt::CkptId id) override { inner_.drop(id); }
  [[nodiscard]] std::unique_ptr<WriteSession> begin_snapshot(
      const abftc::ckpt::io::SnapshotMeta& meta,
      std::vector<abftc::ckpt::RegionId> regions,
      std::vector<std::uint64_t> region_sizes) override;

  [[nodiscard]] const CkptTally& tally() const noexcept { return tally_; }

 private:
  class Session;
  abftc::ckpt::io::StorageBackend& inner_;
  mutable CkptTally tally_;  // read_snapshot is const on the interface
};

}  // namespace perfbench
