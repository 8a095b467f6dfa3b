/// \file lu_serial.cpp
/// Workload `lu_serial`: one job builds an abft::AbftLu on an n=1536,
/// nb=32, P=3 diagonally dominant matrix made from the seed, kills one rank
/// at a step chosen by the seed, and factors. Each job is checked outside
/// the timed part by an O(n²) solve residual through the recovered factors.
///
/// The kernels run on one thread. On a shared 4-vCPU host, stolen time on
/// any vCPU stalls every barrier of a 4-thread factorization: interleaved
/// runs spread 58% (IQR/median of run medians) at 4 threads, 23% at 2 and
/// 7% at 1.

#include <cmath>
#include <stdexcept>
#include <vector>

#include "abft/abft_lu.hpp"
#include "abft/kernels.hpp"
#include "bench.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

using abftc::abft::AbftLu;
using abftc::abft::Matrix;

constexpr std::size_t kN = 1536;
constexpr std::size_t kNb = 32;
const abftc::abft::ProcessGrid kGrid{3, 2};
constexpr double kResidualLimit = 1e-10;

constexpr std::uint64_t kStreamMatrix = 1;
constexpr std::uint64_t kStreamFault = 2;
constexpr std::uint64_t kWarmupIndex = ~std::uint64_t{0};

/// ‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞) for x solved from the compact L\U.
double solve_residual(const Matrix& lu, const Matrix& a,
                      const std::vector<double>& b) {
  const std::size_t n = a.rows();
  std::vector<double> x(b);
  for (std::size_t i = 0; i < n; ++i)  // L·y = b, unit diagonal
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu(i, j) * x[j];
  for (std::size_t i = n; i-- > 0;) {  // U·x = y
    for (std::size_t j = i + 1; j < n; ++j) x[i] -= lu(i, j) * x[j];
    x[i] /= lu(i, i);
  }
  double r_max = 0.0, a_max = 0.0, x_max = 0.0, b_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double ax = 0.0, row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      ax += a(i, j) * x[j];
      row += std::abs(a(i, j));
    }
    r_max = std::max(r_max, std::abs(ax - b[i]));
    a_max = std::max(a_max, row);
    x_max = std::max(x_max, std::abs(x[i]));
    b_max = std::max(b_max, std::abs(b[i]));
  }
  const double rel = r_max / (a_max * x_max + b_max);
  return std::isfinite(rel) ? rel : INFINITY;
}

abftc::abft::KernelPolicy one_thread() {
  abftc::abft::KernelPolicy p = abftc::abft::kernel_policy();
  p.threads = 1;
  return p;
}

class LuSerial final : public Workload {
 public:
  explicit LuSerial(const Options& opts) : seed_(opts.seed) {}

  void setup() override {
    abftc::common::Rng rng(derive(seed_, kStreamMatrix, 0));
    a_ = Matrix::diag_dominant(kN, rng);
    std::vector<double> x(kN);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    b_.assign(kN, 0.0);
    for (std::size_t i = 0; i < kN; ++i)
      for (std::size_t j = 0; j < kN; ++j) b_[i] += a_(i, j) * x[j];
    if (job(kWarmupIndex, false) < 0.0)
      throw std::runtime_error("lu_serial warm-up job failed its check");
  }

  Phase run(const Budget& budget, bool traced) override {
    return run_sequential(budget, 1,
                          [&](std::size_t i) { return job(i, traced); });
  }

  void layer_metrics(Metrics& out) override {
    const double factor = median(factor_s_);
    const double plain = median(plain_s_);
    out["abft.factor_s"] = {factor, "s"};
    out["abft.encode_s"] = {median(encode_s_), "s"};
    out["abft.recovery_s"] = {median(recovery_s_), "s"};
    out["abft.plain_lu_s"] = {plain, "s"};
    out["abft.phi"] = {factor / plain, "ratio"};
    out["common.exec_chunks"] = {mean(chunks_), "count"};
    out["common.exec_steals"] = {mean(steals_), "count"};
    out["common.exec_parks"] = {mean(parks_), "count"};
  }

  [[nodiscard]] std::size_t sample_jobs() const override { return 5; }

 private:
  /// One job; the latency of a verified job, or -1 for a failed one.
  double job(std::uint64_t index, bool traced) {
    abftc::common::Rng rng(derive(seed_, kStreamFault, index));
    const std::size_t nbk = kN / kNb;
    const AbftLu::Fault fault{static_cast<std::size_t>(rng.below(nbk)),
                              static_cast<std::size_t>(
                                  rng.below(kGrid.size()))};
    Matrix input = a_;  // untimed copy: the job owns its matrix
    const abftc::abft::KernelPolicyGuard serial(one_thread());

    auto& exec = abftc::common::Executor::global();
    const auto before = traced ? exec.stats() : abftc::common::ExecutorStats{};
    const auto t0 = Clock::now();
    AbftLu lu(std::move(input), kNb, kGrid);
    const auto t1 = Clock::now();
    lu.factor({fault});
    const auto t2 = Clock::now();
    const double latency = std::chrono::duration<double>(t2 - t0).count();

    const bool ok = lu.recovery().recoveries == 1 &&
                    lu.recovery().blocks_recovered > 0 &&
                    solve_residual(lu.lu(), a_, b_) < kResidualLimit;
    if (!ok) return -1.0;
    if (traced) {
      const auto delta = (exec.stats() - before).total;
      encode_s_.push_back(std::chrono::duration<double>(t1 - t0).count());
      factor_s_.push_back(std::chrono::duration<double>(t2 - t1).count());
      recovery_s_.push_back(lu.recovery().seconds);
      chunks_.push_back(static_cast<double>(delta.chunks_claimed));
      steals_.push_back(static_cast<double>(delta.tasks_stolen));
      parks_.push_back(static_cast<double>(delta.parks));
      Matrix plain = a_;
      const auto tp = Clock::now();
      abftc::abft::plain_blocked_lu(plain, kNb);
      plain_s_.push_back(seconds_since(tp));
    }
    return latency;
  }

  std::uint64_t seed_;
  Matrix a_;
  std::vector<double> b_;
  std::vector<double> encode_s_, factor_s_, recovery_s_, plain_s_;
  std::vector<double> chunks_, steals_, parks_;
};

}  // namespace

std::unique_ptr<Workload> make_lu_serial(const Options& opts) {
  return std::make_unique<LuSerial>(opts);
}

}  // namespace perfbench
