#include "timing_backend.hpp"

#include "bench.hpp"

namespace perfbench {

namespace io = abftc::ckpt::io;

class TimingBackend::Session final : public io::StorageBackend::WriteSession {
 public:
  Session(std::unique_ptr<WriteSession> inner, CkptTally& tally,
          std::uint64_t bytes)
      : inner_(std::move(inner)), tally_(tally), bytes_(bytes) {}

  void append(std::span<const std::byte> chunk) override {
    const auto t0 = Clock::now();
    inner_->append(chunk);
    tally_.commit_s += seconds_since(t0);
  }
  void commit(const std::vector<std::uint32_t>& region_crcs) override {
    const auto t0 = Clock::now();
    inner_->commit(region_crcs);
    tally_.commit_s += seconds_since(t0);
    ++tally_.commits;
    tally_.bytes_written += bytes_;
  }

 private:
  std::unique_ptr<WriteSession> inner_;
  CkptTally& tally_;
  std::uint64_t bytes_;
};

void TimingBackend::write_snapshot(const io::SnapshotBlob& blob) {
  const auto t0 = Clock::now();
  inner_.write_snapshot(blob);  // throws before counting a failed commit
  tally_.commit_s += seconds_since(t0);
  ++tally_.commits;
  tally_.bytes_written += blob.meta.bytes;
}

io::SnapshotBlob TimingBackend::read_snapshot(abftc::ckpt::CkptId id) const {
  const auto t0 = Clock::now();
  io::SnapshotBlob blob = inner_.read_snapshot(id);
  tally_.read_s += seconds_since(t0);
  return blob;
}

std::unique_ptr<io::StorageBackend::WriteSession> TimingBackend::begin_snapshot(
    const io::SnapshotMeta& meta, std::vector<abftc::ckpt::RegionId> regions,
    std::vector<std::uint64_t> region_sizes) {
  const auto t0 = Clock::now();
  auto inner =
      inner_.begin_snapshot(meta, std::move(regions), std::move(region_sizes));
  tally_.commit_s += seconds_since(t0);
  return std::make_unique<Session>(std::move(inner), tally_, meta.bytes);
}

}  // namespace perfbench
