/// \file sweep_served.cpp
/// Workload `sweep_served`: a sweepd child process serves three closed-loop
/// tenants over its Unix socket; each tenant sends its next request only
/// after the previous reply ended. Every request is the same fig7-shaped
/// sim sweep, with one `seed=` per tenant derived from the workload seed.
/// All requests are the same size, so the median is a request and not a
/// scheduler wake-up.
///
/// Check, after the timed phase: the rows equal the grid cells in grid
/// order, and each value matches the batch reference (core::Experiment::run
/// of the same spec, in this process) within 1e-9 relative. A reply whose
/// values match but whose bytes differ is counted in svc.byte_mismatch, not
/// as a failure: core::monte_carlo folds chunk statistics in completion
/// order, so served and batch bytes can differ in the last ulp.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "svc/net.hpp"
#include "svc/protocol.hpp"

namespace perfbench {
namespace {

namespace svc = abftc::svc;
namespace core = abftc::core;

constexpr std::size_t kTenants = 3;
constexpr double kRelTolerance = 1e-9;
constexpr std::uint64_t kStreamRequest = 1;
const char* const kSpec =
    "sweep proto=pure,bi,abft evaluator=sim reps=300 "
    "axis=alpha:0.0-1.0:11 axis=mtbf:3600-28800:6 sink=csv";

/// Value of a numeric key in a flat one-line JSON record; NaN if absent.
double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = json.find(needle);
  if (at == std::string::npos) return NAN;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, sep)) out.push_back(item);
  return out;
}

/// Rows in grid order with every value within kRelTolerance of `ref`.
bool rows_match(const std::string& got, const std::string& ref) {
  const auto got_lines = split(got, '\n');
  const auto ref_lines = split(ref, '\n');
  if (got_lines.size() != ref_lines.size() || got_lines.empty() ||
      got_lines[0] != ref_lines[0])
    return false;
  for (std::size_t i = 1; i < got_lines.size(); ++i) {
    const auto g = split(got_lines[i], ',');
    const auto r = split(ref_lines[i], ',');
    if (g.size() != r.size()) return false;
    for (std::size_t c = 0; c < g.size(); ++c) {
      const double a = std::strtod(g[c].c_str(), nullptr);
      const double b = std::strtod(r[c].c_str(), nullptr);
      const double scale = std::max(std::abs(a), std::abs(b));
      if (!(std::abs(a - b) <= kRelTolerance * scale)) return false;
    }
  }
  return true;
}

/// The sweepd child: started on a Unix socket, stopped with SIGTERM (a
/// graceful drain) and reaped on every exit path.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket) {
    std::string arg = "--socket=" + socket;
    char* argv[] = {const_cast<char*>(binary.c_str()), arg.data(), nullptr};
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(out[0]);
      ::close(out[1]);
      throw std::runtime_error("fork of sweepd failed");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      ::execv(binary.c_str(), argv);
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_ = out[0];
    try {
      await_listening();
    } catch (...) {
      stop();  // the destructor does not run for a failed constructor
      throw;
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

 private:
  /// sweepd prints `listening unix=PATH` once its listener is bound.
  void await_listening() const {
    std::string seen;
    const auto t0 = Clock::now();
    while (seen.find('\n') == std::string::npos) {
      pollfd p{stdout_, POLLIN, 0};
      if (seconds_since(t0) > 10.0 || ::poll(&p, 1, 100) < 0)
        throw std::runtime_error("sweepd did not start listening");
      char buf[256];
      if ((p.revents & (POLLIN | POLLHUP)) == 0) continue;
      const ssize_t r = ::read(stdout_, buf, sizeof buf);
      if (r <= 0) throw std::runtime_error("sweepd exited before listening");
      seen.append(buf, static_cast<std::size_t>(r));
    }
    if (seen.rfind("listening", 0) != 0)
      throw std::runtime_error("unexpected sweepd banner: " + seen);
  }

  /// SIGTERM (a graceful drain), then SIGKILL after 10 s; always reaped.
  void stop() noexcept {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      for (int i = 0; i < 1000 && ::waitpid(pid_, &status, WNOHANG) == 0; ++i)
        ::usleep(10'000);
      if (::waitpid(pid_, &status, WNOHANG) == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (stdout_ >= 0) ::close(stdout_);
    stdout_ = -1;
  }

  pid_t pid_ = -1;
  int stdout_ = -1;
};

struct Reply {
  bool ok = false;
  double latency = 0.0;
  double first_row = 0.0;
  std::string payload, trailer, error;
};

/// One tenant: a persistent connection and its request line.
class Tenant {
 public:
  Tenant(const std::string& socket, std::string request)
      : fd_(svc::connect_unix(socket)),
        reader_(fd_.get()),
        request_(std::move(request)) {}

  [[nodiscard]] const std::string& request() const noexcept {
    return request_;
  }

  Reply exchange() {
    Reply r;
    const auto t0 = Clock::now();
    bool row_seen = false;
    if (!svc::write_line(fd_.get(), request_)) {
      r.error = "write failed";
      return r;
    }
    std::string line;
    while (reader_.read_line(line) == svc::LineReader::Status::Ok) {
      if (line.rfind("data ", 0) == 0) {
        const std::size_t len = std::strtoull(line.c_str() + 5, nullptr, 10);
        if (reader_.read_exact(len, r.payload) != svc::LineReader::Status::Ok)
          break;
        // The first frame may carry only the CSV header line.
        if (!row_seen &&
            std::count(r.payload.begin(), r.payload.end(), '\n') >= 2) {
          r.first_row = seconds_since(t0);
          row_seen = true;
        }
      } else if (line.rfind("trailer ", 0) == 0) {
        r.trailer = line.substr(8);
      } else if (line.rfind("end", 0) == 0) {
        r.ok = true;
        r.latency = seconds_since(t0);
        return r;
      } else if (line.rfind("ok", 0) != 0) {
        r.error = line;
        return r;
      }
    }
    r.error = r.error.empty() ? "connection lost before end" : r.error;
    return r;
  }

  /// The service totals (`stats` command) as one JSON line.
  std::string stats() {
    std::string line;
    if (!svc::write_line(fd_.get(), "stats") ||
        reader_.read_line(line) != svc::LineReader::Status::Ok ||
        line.rfind("ok ", 0) != 0)
      throw std::runtime_error("sweepd stats probe failed");
    return line.substr(3);
  }

 private:
  svc::Fd fd_;
  svc::LineReader reader_;
  std::string request_;
};

struct Reference {
  std::string bytes;
  double seconds = 0.0;
};

class SweepServed final : public Workload {
 public:
  explicit SweepServed(const Options& opts)
      : seed_(opts.seed),
        binary_(opts.sweepd),
        socket_(opts.run_dir + "/sweepd.sock") {}

  void setup() override {
    daemon_ = std::make_unique<Daemon>(binary_, socket_);
    for (std::size_t t = 0; t < kTenants; ++t) {
      const std::uint64_t request_seed =
          derive(seed_, kStreamRequest, t) % 1'000'000'007ULL;
      tenants_.push_back(std::make_unique<Tenant>(
          socket_, std::string(kSpec) + " seed=" +
                       std::to_string(request_seed)));
    }
    cells_ = svc::parse_request_line(tenants_[0]->request()).cells();
    const Reply warm = tenants_[0]->exchange();
    if (!warm.ok || split(warm.payload, '\n').size() != cells_ + 1)
      throw std::runtime_error("sweep_served warm-up request failed: " +
                               warm.error);
  }

  Phase run(const Budget& budget, bool traced) override {
    std::vector<std::vector<Reply>> replies(kTenants);
    std::vector<double> finished(kTenants, 0.0);
    std::atomic<std::size_t> issued{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kTenants; ++t)
      threads.emplace_back([&, t] {
        while (seconds_since(t0) < budget.seconds ||
               issued.load() < budget.min_jobs) {
          issued.fetch_add(1);
          Reply r = tenants_[t]->exchange();
          finished[t] = seconds_since(t0);
          const bool lost = !r.ok;
          replies[t].push_back(std::move(r));
          if (lost) break;  // never retried; the tenant stops
        }
      });
    for (std::thread& th : threads) th.join();

    Phase phase;
    for (const double f : finished) phase.elapsed = std::max(phase.elapsed, f);
    for (std::size_t t = 0; t < kTenants; ++t) {
      const Reference& ref = reference(t);
      for (const Reply& r : replies[t]) {
        ++phase.attempted;
        const bool same_bytes = r.ok && r.payload == ref.bytes;
        if (!same_bytes && !(r.ok && rows_match(r.payload, ref.bytes))) {
          ++phase.failed;
          std::cerr << "sweep_served: tenant " << t << " reply failed its check"
                    << (r.error.empty() ? "" : ": " + r.error) << '\n';
          continue;
        }
        phase.latencies.push_back(r.latency);
        if (!traced) continue;
        if (!same_bytes) ++byte_mismatch_;
        serve_s_.push_back(r.latency);
        first_row_s_.push_back(r.first_row);
        queue_wait_s_.push_back(json_number(r.trailer, "queue_wait_s"));
        batch_tenants_.push_back(json_number(r.trailer, "batch_requests"));
        chunks_.push_back(json_number(r.trailer, "chunks_claimed"));
        steals_.push_back(json_number(r.trailer, "tasks_stolen"));
        parks_.push_back(json_number(r.trailer, "parks"));
      }
    }
    if (traced) rejected_ = json_number(tenants_[0]->stats(), "rejected_full");
    return phase;
  }

  void layer_metrics(Metrics& out) override {
    // Serial per-cell timing of one request's grid through the engine's
    // own loop body, at the inner budget Experiment::run would grant.
    const core::ExperimentSpec spec = svc::to_experiment_spec(
        svc::parse_request_line(tenants_[0]->request()));
    const auto evaluators = core::resolve_evaluators(spec);
    std::vector<double> cell_s;
    for (std::size_t c = 0; c < cells_; ++c) {
      const auto t0 = Clock::now();
      (void)core::evaluate_cell(spec, evaluators, c, 1);
      cell_s.push_back(seconds_since(t0));
    }
    std::vector<double> batch_s;
    for (std::size_t t = 0; t < kTenants; ++t)
      batch_s.push_back(reference(t).seconds);

    const double serve = median(serve_s_);
    const double batch = median(batch_s);
    const double tenants = mean(batch_tenants_);
    out["svc.first_row_s"] = {median(first_row_s_), "s"};
    out["svc.queue_wait_s"] = {median(queue_wait_s_), "s"};
    out["svc.serve_s"] = {serve, "s"};
    out["svc.batch_tenants"] = {tenants, "count"};
    out["svc.rejected"] = {rejected_, "count"};
    out["svc.overhead_share"] = {1.0 - batch * tenants / serve, "ratio"};
    out["svc.byte_mismatch"] = {static_cast<double>(byte_mismatch_), "count"};
    out["core.batch_run_s"] = {batch, "s"};
    out["core.cell_p50_s"] = {median(cell_s), "s"};
    out["core.cell_tail_s"] = {tail(cell_s), "s"};
    out["common.exec_chunks"] = {mean(chunks_), "count"};
    out["common.exec_steals"] = {mean(steals_), "count"};
    out["common.exec_parks"] = {mean(parks_), "count"};
  }

  [[nodiscard]] std::size_t sample_jobs() const override { return 6; }

 private:
  /// The batch reference of tenant `t`'s request, computed once, outside
  /// every timed phase.
  const Reference& reference(std::size_t t) {
    auto& ref = references_[t];
    if (ref.bytes.empty()) {
      const svc::RequestSpec req =
          svc::parse_request_line(tenants_[t]->request());
      core::Experiment exp(svc::to_experiment_spec(req));
      std::ostringstream bytes;
      const auto sink = svc::make_sink(req.sink, bytes, false);
      exp.add_sink(*sink);
      const auto t0 = Clock::now();
      (void)exp.run();
      ref.seconds = seconds_since(t0);
      ref.bytes = bytes.str();
    }
    return ref;
  }

  std::uint64_t seed_;
  std::string binary_, socket_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::size_t cells_ = 0;
  std::map<std::size_t, Reference> references_;
  std::size_t byte_mismatch_ = 0;
  double rejected_ = 0.0;
  std::vector<double> serve_s_, first_row_s_, queue_wait_s_, batch_tenants_,
      chunks_, steals_, parks_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_served(const Options& opts) {
  return std::make_unique<SweepServed>(opts);
}

}  // namespace perfbench
