/// \file dist_faults.cpp
/// Workload `dist_faults`: one job is one blind dist::Launcher run at n=768,
/// nb=32, group=3 with 3 ranks and a checkpoint at every second step
/// boundary, stored by a `log:` backend in the per-run directory. The
/// injected fault rotates clean → kill → flip → torn → flip2; torn faults
/// tear the covering checkpoint through ckpt::io::FaultingBackend. Steps,
/// ranks and flip sites come from the seed. Each job is checked: the run
/// completed, its checksum residual is below 1e-8, and its factors are
/// bitwise equal to those of the clean warm-up run (within 1e-12 relative
/// error for flip jobs, whose block is rebuilt from checksums).
///
/// `hang` is left out: its cost is a configured deadline, not program work.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "ckpt/io/faulting.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "dist/launcher.hpp"
#include "timing_backend.hpp"

namespace perfbench {
namespace {

using abftc::dist::FaultKind;
namespace io = abftc::ckpt::io;

constexpr std::size_t kN = 768;
constexpr std::size_t kNb = 32;
constexpr std::size_t kGroup = 3;
constexpr std::size_t kRanks = 3;
constexpr std::size_t kCkptEvery = 2;
constexpr double kResidualLimit = 1e-8;
constexpr double kRebuiltLimit = 1e-12;  // relative error of a rebuilt block

constexpr std::uint64_t kStreamMatrix = 1;
constexpr std::uint64_t kStreamFault = 2;
constexpr std::uint64_t kStreamFlip = 3;

/// The fault rotation; std::nullopt is the clean job.
const std::optional<FaultKind> kRotation[] = {
    std::nullopt, FaultKind::Kill, FaultKind::Flip, FaultKind::Torn,
    FaultKind::Flip2};
constexpr std::size_t kRotationLength = std::size(kRotation);

bool same_sites(std::vector<abftc::dist::FaultSite> a,
                std::vector<abftc::dist::FaultSite> b) {
  const auto by_coords = [](const auto& x, const auto& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  };
  std::sort(a.begin(), a.end(), by_coords);
  std::sort(b.begin(), b.end(), by_coords);
  return a == b;
}

bool bitwise_equal(const abftc::abft::Matrix& a, const abftc::abft::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.storage().data(), b.storage().data(),
                     a.storage().size() * sizeof(double)) == 0;
}

/// Removes a job's checkpoint store on every exit path.
struct RemoveOnExit {
  explicit RemoveOnExit(std::string p) : path(std::move(p)) {}
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;
  ~RemoveOnExit() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

/// What the traced jobs recorded, one entry per job.
struct Trace {
  std::vector<double> latency, steps, check, locate, recons, restore, commit,
      read, other, chunks, steals, parks;
  std::vector<double> clean_latency;
  std::size_t locate_jobs = 0, located_right = 0;
  // Exact counts over the first rotation of the traced phase.
  std::size_t restores = 0, respawns = 0, reconstructions = 0, escalations = 0,
              commits = 0;
  std::uint64_t bytes_written = 0;
};

class DistFaults final : public Workload {
 public:
  explicit DistFaults(const Options& opts)
      : seed_(opts.seed), store_dir_(opts.run_dir + "/dist-store") {
    cfg_.n = kN;
    cfg_.nb = kNb;
    cfg_.ranks = kRanks;
    cfg_.group = kGroup;
    cfg_.ckpt_every = kCkptEvery;
    cfg_.seed = derive(seed_, kStreamMatrix, 0);
    cfg_.blind = true;
  }

  void setup() override {
    // The warm-up job is the clean run whose factors every job must match.
    const RemoveOnExit cleanup{store_dir_};
    auto backend = open_store();
    abftc::dist::Launcher clean(cfg_, *backend);
    const auto rep = clean.run();
    if (!rep.completed || !(rep.residual < kResidualLimit))
      throw std::runtime_error("dist_faults warm-up run failed its check");
    reference_ = clean.lu();
  }

  Phase run(const Budget& budget, bool traced) override {
    return run_sequential(budget, kRotationLength,
                          [&](std::size_t i) { return job(i, traced); });
  }

  void layer_metrics(Metrics& out) override {
    const Trace& t = trace_;
    const double wall = mean(t.latency);
    out["dist.steps_s"] = {mean(t.steps), "s"};
    out["dist.check_s"] = {mean(t.check), "s"};
    out["dist.locate_s"] = {mean(t.locate), "s"};
    out["dist.recons_s"] = {mean(t.recons), "s"};
    out["dist.restore_s"] = {mean(t.restore), "s"};
    out["dist.other_s"] = {mean(t.other), "s"};
    out["dist.over_serial"] = {median(t.clean_latency) /
                                   out.at("abft.lu_1t_s").value,
                               "ratio"};
    out["dist.restores"] = {static_cast<double>(t.restores), "count"};
    out["dist.respawns"] = {static_cast<double>(t.respawns), "count"};
    out["dist.reconstructions"] = {static_cast<double>(t.reconstructions),
                                   "count"};
    out["dist.escalations"] = {static_cast<double>(t.escalations), "count"};
    out["dist.site_match_share"] = {
        static_cast<double>(t.located_right) /
            static_cast<double>(std::max<std::size_t>(t.locate_jobs, 1)),
        "ratio"};
    out["ckpt.commit_s"] = {mean(t.commit), "s"};
    out["ckpt.share"] = {mean(t.commit) / wall, "ratio"};
    out["ckpt.read_s"] = {mean(t.read), "s"};
    out["ckpt.commits"] = {static_cast<double>(t.commits) / kRotationLength,
                           "count"};
    out["ckpt.bytes_written"] = {
        static_cast<double>(t.bytes_written) / kRotationLength, "bytes"};
    out["common.exec_chunks"] = {mean(t.chunks), "count"};
    out["common.exec_steals"] = {mean(t.steals), "count"};
    out["common.exec_parks"] = {mean(t.parks), "count"};
  }

  [[nodiscard]] std::size_t sample_jobs() const override {
    return kRotationLength;
  }

 private:
  std::unique_ptr<io::StorageBackend> open_store() {
    // flush=0: the checkout may sit on a disk, and per-commit fdatasync
    // would time the device rather than the program (tmpfs makes it free).
    return io::make_backend("log:" + store_dir_ + "?flush=0");
  }

  double job(std::size_t index, bool traced) {
    const std::optional<FaultKind> kind = kRotation[index % kRotationLength];
    abftc::common::Rng rng(derive(seed_, kStreamFault, index));
    const std::size_t step = rng.below(kN / kNb);
    const std::size_t rank = rng.below(kRanks);
    abftc::dist::DistConfig cfg = cfg_;
    cfg.flip_seed = derive(seed_, kStreamFlip, index) | 1;  // 0 = unset
    std::vector<abftc::dist::Injection> faults;
    if (kind) faults.push_back({*kind, step, rank});

    auto& exec = abftc::common::Executor::global();
    const auto before = traced ? exec.stats() : abftc::common::ExecutorStats{};
    const RemoveOnExit cleanup{store_dir_};
    const auto t0 = Clock::now();
    std::unique_ptr<io::StorageBackend> store = open_store();
    io::StorageBackend* backend = store.get();
    std::optional<io::FaultingBackend> faulting;
    if (kind == FaultKind::Torn) {
      faulting.emplace(*backend,
                       std::vector<io::FaultingBackend::Fault>{
                           {step / kCkptEvery, io::WriteFault::TornPayload}});
      backend = &*faulting;
    }
    std::optional<TimingBackend> timing;
    if (traced) backend = &timing.emplace(*backend);
    abftc::dist::Launcher launcher(cfg, *backend);
    const abftc::dist::RunReport rep = launcher.run(faults);
    const double latency = seconds_since(t0);

    // Restore and replay reproduce the clean factors bit for bit; a block
    // rebuilt from checksums (flip) carries the subtraction's rounding.
    const bool ok =
        rep.completed && rep.residual < kResidualLimit &&
        (kind == FaultKind::Flip
             ? abftc::abft::relative_error(launcher.lu(), reference_) <
                   kRebuiltLimit
             : bitwise_equal(launcher.lu(), reference_));
    if (ok && traced)
      record(index, kind, latency, rep, timing->tally(),
             (exec.stats() - before).total);
    return ok ? latency : -1.0;
  }

  void record(std::size_t index, const std::optional<FaultKind>& kind,
              double latency, const abftc::dist::RunReport& rep,
              const CkptTally& io_tally,
              const abftc::common::ExecutorCounters& delta) {
    Trace& t = trace_;
    double steps = 0.0;
    for (const double s : rep.step_seconds) steps += s;
    const double rungs = rep.check_seconds + rep.locate_seconds +
                         rep.recons_seconds + rep.restore_seconds;
    t.latency.push_back(latency);
    t.steps.push_back(steps);
    t.check.push_back(rep.check_seconds);
    t.locate.push_back(rep.locate_seconds);
    t.recons.push_back(rep.recons_seconds);
    t.restore.push_back(rep.restore_seconds);
    t.commit.push_back(io_tally.commit_s);
    t.read.push_back(io_tally.read_s);
    t.other.push_back(latency - steps - io_tally.commit_s - rungs);
    t.chunks.push_back(static_cast<double>(delta.chunks_claimed));
    t.steals.push_back(static_cast<double>(delta.tasks_stolen));
    t.parks.push_back(static_cast<double>(delta.parks));
    if (!kind) t.clean_latency.push_back(latency);
    if (rep.locates > 0) {
      ++t.locate_jobs;
      if (same_sites(rep.injected, rep.located)) ++t.located_right;
    }
    if (index < kRotationLength) {
      t.restores += rep.restores;
      t.respawns += rep.respawns;
      t.reconstructions += rep.reconstructions;
      t.escalations += rep.escalations;
      t.commits += io_tally.commits;
      t.bytes_written += io_tally.bytes_written;
    }
  }

  std::uint64_t seed_;
  std::string store_dir_;
  abftc::dist::DistConfig cfg_;
  abftc::abft::Matrix reference_;
  Trace trace_;
};

}  // namespace

std::unique_ptr<Workload> make_dist_faults(const Options& opts) {
  return std::make_unique<DistFaults>(opts);
}

}  // namespace perfbench
