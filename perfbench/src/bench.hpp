#pragma once
/// \file bench.hpp
/// Shared pieces of the benchmark driver: clocks, sample statistics, the
/// metric map the workloads fill, and the workload interface.
///
/// A workload times whole jobs from outside the program, through the public
/// entry points of the layer it drives (abft::AbftLu, dist::Launcher, the
/// sweepd socket), and checks every job's output outside the timed part.
/// Untraced phases measure only job latency; traced phases also time the
/// calls into each layer and feed the per-layer metrics.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// CLOCK_MONOTONIC in seconds: comparable across processes, so run.py can
/// time set-up from before the driver process exists.
[[nodiscard]] double monotonic_now();

/// Independent 64-bit stream `stream` of the workload seed, element `index`
/// (splitmix64 mixing): the only way workloads derive inputs from the seed.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                                   std::uint64_t index);

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// The value at the highest percentile that still has at least ten samples
/// beyond it (the one with exactly ten larger samples; percentile
/// 100·(N−10)/N). Needs at least 11 samples.
[[nodiscard]] double tail(std::vector<double> v);

/// Peak RSS in MiB of this process plus the largest reaped child (the
/// dist ranks, sweepd): getrusage SELF + CHILDREN.
[[nodiscard]] double peak_rss_mb();

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// How long a phase runs: until `seconds` of wall time have passed and at
/// least `min_jobs` jobs have been issued.
struct Budget {
  double seconds = 0.0;
  std::size_t min_jobs = 0;
};

/// One timed phase. Failed jobs are counted, never retried, and their
/// latencies are left out.
struct Phase {
  std::vector<double> latencies;  ///< verified jobs only
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double elapsed = 0.0;  ///< wall seconds from first issue to last finish
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Inputs, backends or daemons, and one untimed warm-up job, so lazy
  /// set-up is paid here and not by the first timed job.
  virtual void setup() = 0;
  /// Run jobs for `budget`. Job indices restart at 0 in every phase, so
  /// two phases (and two runs with one seed) issue the same job sequence.
  virtual Phase run(const Budget& budget, bool traced) = 0;
  /// Layer metrics accumulated by the traced phases.
  virtual void layer_metrics(Metrics& out) = 0;
  /// Jobs a traced sample of this workload needs when another workload is
  /// the one under measurement.
  [[nodiscard]] virtual std::size_t sample_jobs() const = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string run_dir;  ///< per-run working directory (log: stores, socket)
  std::string sweepd;   ///< path of the sweepd binary
};

[[nodiscard]] std::unique_ptr<Workload> make_lu_serial(const Options& opts);
[[nodiscard]] std::unique_ptr<Workload> make_dist_faults(const Options& opts);
[[nodiscard]] std::unique_ptr<Workload> make_sweep_served(const Options& opts);

/// Workload-independent layer probes: kernel GFLOP/s at the shapes the LU
/// step uses, getf2, the 1-thread AbftLu reference, CRC and memcpy
/// bandwidth over a buffer of four times the last-level cache.
void probe_layers(Metrics& out);

/// Loop `job(index)` until the budget is spent, issuing jobs in whole
/// groups of `group`. `job` returns the latency of a verified job or a
/// negative value for a failed one; a job that throws has failed too.
template <class Job>
Phase run_sequential(const Budget& budget, std::size_t group, Job&& job) {
  Phase phase;
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i % group == 0 && i >= budget.min_jobs &&
        seconds_since(t0) >= budget.seconds)
      break;
    ++phase.attempted;
    double latency = -1.0;
    try {
      latency = job(i);
    } catch (const std::exception& e) {
      std::cerr << "job " << i << " failed: " << e.what() << '\n';
    }
    if (latency < 0.0)
      ++phase.failed;
    else
      phase.latencies.push_back(latency);
  }
  phase.elapsed = seconds_since(t0);
  return phase;
}

}  // namespace perfbench
