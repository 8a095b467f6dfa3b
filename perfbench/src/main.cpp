/// \file main.cpp
/// The benchmark driver behind perfbench/run.py.
///
///   perfbench_driver --workload=lu_serial|dist_faults|sweep_served
///                    --seed=N --seconds=S --trace=0|1 --run-dir=DIR
///                    --sweepd=PATH [--min-jobs=N]
///
/// --trace=0 is one slice of an end-to-end run: it sets the workload up,
/// runs untraced jobs for S seconds (and at least N jobs) and prints the
/// raw samples; run.py pools several slices, each in a fresh process, and
/// computes the end-to-end metrics. The last stdout line is
///   {"setup_done", "attempted", "failed", "elapsed", "peak_rss_mb",
///    "latencies": [...]}
/// where setup_done is CLOCK_MONOTONIC seconds when the first timed job was
/// about to start.
///
/// --trace=1 first runs the layer probes and a short traced sample of every
/// other workload, then the workload itself for S/2 seconds untraced and
/// S/2 seconds traced, and prints {"correct", "attempted", "failed",
/// "metrics"} with the per-layer metrics, including trace.overhead (traced
/// over untraced median job latency).

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench.hpp"
#include "common/cli.hpp"

namespace {

using namespace perfbench;

const char* const kWorkloads[] = {"lu_serial", "dist_faults", "sweep_served"};

std::unique_ptr<Workload> make(const std::string& name, const Options& opts) {
  if (name == "lu_serial") return make_lu_serial(opts);
  if (name == "dist_faults") return make_dist_faults(opts);
  if (name == "sweep_served") return make_sweep_served(opts);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("a result is not finite");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_slice(const Phase& p, double setup_done) {
  std::string out = "{\"setup_done\": " + number(setup_done) +
                    ", \"attempted\": " + std::to_string(p.attempted) +
                    ", \"failed\": " + std::to_string(p.failed) +
                    ", \"elapsed\": " + number(p.elapsed) +
                    ", \"peak_rss_mb\": " + number(peak_rss_mb()) +
                    ", \"latencies\": [";
  for (std::size_t i = 0; i < p.latencies.size(); ++i)
    out += (i == 0 ? "" : ", ") + number(p.latencies[i]);
  std::cout << out << "]}" << std::endl;
}

void print_layers(std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += failed == 0 && attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
           number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  std::cout << out << "}}" << std::endl;
}

int run(const abftc::common::ArgParser& args) {
  Options opts;
  opts.workload = args.get_string("workload", "");
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opts.seconds = args.get_double("seconds", 10.0);
  opts.run_dir = args.get_string("run-dir", "");
  opts.sweepd = args.get_string("sweepd", "");
  const bool trace = args.get_bool("trace", false);
  // A traced phase needs a tail's worth of jobs on its own.
  const auto min_jobs =
      static_cast<std::size_t>(args.get_int("min-jobs", 11));
  args.warn_unknown(std::cerr);
  if (opts.run_dir.empty() || opts.sweepd.empty())
    throw std::invalid_argument("--run-dir and --sweepd are required");

  std::unique_ptr<Workload> w = make(opts.workload, opts);
  if (!trace) {
    w->setup();
    const double setup_done = monotonic_now();
    const Phase p = w->run({opts.seconds, min_jobs}, false);
    w.reset();  // reap sweepd before reading the children's peak RSS
    print_slice(p, setup_done);
    return 0;
  }

  Metrics metrics;
  std::size_t attempted = 0, failed = 0;
  const auto count = [&](const Phase& p) {
    attempted += p.attempted;
    failed += p.failed;
  };
  probe_layers(metrics);
  for (const char* other : kWorkloads) {
    if (opts.workload == other) continue;
    auto sample = make(other, opts);
    sample->setup();
    count(sample->run({0.0, sample->sample_jobs()}, true));
    sample->layer_metrics(metrics);
  }
  // The measured workload goes last, so its executor counters are the ones
  // reported.
  w->setup();
  const Phase untraced = w->run({opts.seconds / 2, min_jobs}, false);
  const Phase traced = w->run({opts.seconds / 2, min_jobs}, true);
  count(untraced);
  count(traced);
  w->layer_metrics(metrics);
  metrics["trace.overhead"] = {
      median(traced.latencies) / median(untraced.latencies), "ratio"};
  print_layers(attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const abftc::common::ArgParser args(argc, argv);
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}
