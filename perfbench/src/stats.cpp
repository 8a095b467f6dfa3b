#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double monotonic_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  std::uint64_t state = seed;
  state = abftc::common::splitmix64(state) ^ (stream * 0x9e3779b97f4a7c15ULL);
  state = abftc::common::splitmix64(state) ^ index;
  return abftc::common::splitmix64(state);
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::runtime_error("mean of no samples");
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double tail(std::vector<double> v) {
  if (v.size() < 11)
    throw std::runtime_error("a tail needs at least 11 samples, got " +
                             std::to_string(v.size()));
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

double peak_rss_mb() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
