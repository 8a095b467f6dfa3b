// Tests for the Monte-Carlo harness: reproducibility, thread invariance,
// convergence, and the alternative failure distributions.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/time_units.hpp"
#include "core/monte_carlo.hpp"

namespace {

using namespace abftc;
using namespace abftc::core;
using common::minutes;

TEST(MonteCarlo, ReproducibleAcrossThreadCounts) {
  const auto s = figure7_scenario(minutes(120), 0.8);
  MonteCarloOptions a;
  a.replicates = 64;
  a.threads = 1;
  MonteCarloOptions b = a;
  b.threads = 4;
  const auto ra = monte_carlo(Protocol::AbftPeriodicCkpt, s, {}, a);
  const auto rb = monte_carlo(Protocol::AbftPeriodicCkpt, s, {}, b);
  // Replicates own their streams, so even the merge order cannot change
  // the mean (up to fp association in the merge, which is deterministic
  // per chunking; compare loosely).
  EXPECT_NEAR(ra.waste.mean(), rb.waste.mean(), 1e-12);
  EXPECT_EQ(ra.waste.count(), rb.waste.count());
}

// Every statistic as exact bytes (hex floats), so any difference in the
// fold order shows — the served-vs-batch byte identity of sweep rows rests
// on this.
std::string stat_bytes(const MonteCarloResult& r) {
  std::string out;
  char buf[160];
  for (const common::RunningStats* st :
       {&r.waste, &r.t_final, &r.failures, &r.lost_time}) {
    std::snprintf(buf, sizeof buf, "%zu %a %a %a %a;", st->count(), st->mean(),
                  st->variance(), st->min(), st->max());
    out += buf;
  }
  return out;
}

TEST(MonteCarlo, StatsAreBitwiseAcrossThreadCountsAndRepeats) {
  const auto s = figure7_scenario(minutes(120), 0.8);
  MonteCarloOptions mc;
  mc.replicates = 300;  // not a multiple of the chunk count
  mc.threads = 1;
  const std::string reference =
      stat_bytes(monte_carlo(Protocol::AbftPeriodicCkpt, s, {}, mc));
  for (int repeat = 0; repeat < 3; ++repeat)
    for (const unsigned threads : {1u, 2u, 4u}) {
      mc.threads = threads;
      EXPECT_EQ(stat_bytes(monte_carlo(Protocol::AbftPeriodicCkpt, s, {}, mc)),
                reference)
          << "threads=" << threads << " repeat=" << repeat;
    }
}

TEST(MonteCarlo, SeedChangesResults) {
  const auto s = figure7_scenario(minutes(120), 0.8);
  MonteCarloOptions a;
  a.replicates = 32;
  MonteCarloOptions b = a;
  b.seed = 777;
  const auto ra = monte_carlo(Protocol::PurePeriodicCkpt, s, {}, a);
  const auto rb = monte_carlo(Protocol::PurePeriodicCkpt, s, {}, b);
  EXPECT_NE(ra.waste.mean(), rb.waste.mean());
}

TEST(MonteCarlo, CiShrinksWithReplicates) {
  const auto s = figure7_scenario(minutes(90), 0.5);
  MonteCarloOptions small;
  small.replicates = 50;
  MonteCarloOptions large;
  large.replicates = 800;
  const auto rs = monte_carlo(Protocol::PurePeriodicCkpt, s, {}, small);
  const auto rl = monte_carlo(Protocol::PurePeriodicCkpt, s, {}, large);
  EXPECT_LT(rl.waste.ci95_halfwidth(), rs.waste.ci95_halfwidth());
}

TEST(MonteCarlo, FailureCountsTrackMtbf) {
  MonteCarloOptions mc;
  mc.replicates = 100;
  const auto fast =
      monte_carlo(Protocol::PurePeriodicCkpt,
                  figure7_scenario(minutes(60), 0.5), {}, mc);
  const auto slow =
      monte_carlo(Protocol::PurePeriodicCkpt,
                  figure7_scenario(minutes(240), 0.5), {}, mc);
  EXPECT_GT(fast.failures.mean(), 2.0 * slow.failures.mean());
}

TEST(MonteCarlo, PerNodeExponentialMatchesAggregate) {
  auto s = figure7_scenario(minutes(120), 0.6);
  s.platform.nodes = 100;  // per-node MTBF = 100 × platform MTBF
  MonteCarloOptions agg;
  agg.replicates = 400;
  MonteCarloOptions per = agg;
  per.per_node = true;
  const auto ra = monte_carlo(Protocol::PurePeriodicCkpt, s, {}, agg);
  const auto rp = monte_carlo(Protocol::PurePeriodicCkpt, s, {}, per);
  // Statistically identical (superposition of Poisson processes).
  EXPECT_NEAR(ra.waste.mean(), rp.waste.mean(),
              3.0 * (ra.waste.ci95_halfwidth() + rp.waste.ci95_halfwidth()));
}

TEST(MonteCarlo, WeibullBurstsHurtRollbackMoreThanAbft) {
  const auto s = figure7_scenario(minutes(60), 0.9);
  MonteCarloOptions exp_mc;
  exp_mc.replicates = 300;
  MonteCarloOptions wei_mc = exp_mc;
  wei_mc.distribution = FailureDistribution::Weibull;
  wei_mc.weibull_shape = 0.7;

  const double pure_exp =
      monte_carlo(Protocol::PurePeriodicCkpt, s, {}, exp_mc).waste.mean();
  const double pure_wei =
      monte_carlo(Protocol::PurePeriodicCkpt, s, {}, wei_mc).waste.mean();
  const double abft_exp =
      monte_carlo(Protocol::AbftPeriodicCkpt, s, {}, exp_mc).waste.mean();
  const double abft_wei =
      monte_carlo(Protocol::AbftPeriodicCkpt, s, {}, wei_mc).waste.mean();

  // The composite keeps its advantage under bursty failures.
  EXPECT_LT(abft_wei, pure_wei);
  // And its degradation is smaller than the rollback protocol's.
  EXPECT_LT(abft_wei - abft_exp, pure_wei - pure_exp + 0.05);
}

TEST(MonteCarlo, LogNormalRuns) {
  const auto s = figure7_scenario(minutes(120), 0.5);
  MonteCarloOptions mc;
  mc.replicates = 50;
  mc.distribution = FailureDistribution::LogNormal;
  const auto r = monte_carlo(Protocol::BiPeriodicCkpt, s, {}, mc);
  EXPECT_TRUE(r.plan_valid);
  EXPECT_GT(r.waste.mean(), 0.0);
  EXPECT_LT(r.waste.mean(), 1.0);
}

TEST(MonteCarlo, InvalidPlanReported) {
  auto s = figure7_scenario(minutes(15), 0.0);
  s.ckpt.full_cost = minutes(30);
  s.ckpt.full_recovery = minutes(30);
  MonteCarloOptions mc;
  mc.replicates = 4;
  const auto r = monte_carlo(Protocol::PurePeriodicCkpt, s, {}, mc);
  EXPECT_FALSE(r.plan_valid);
  EXPECT_EQ(r.waste.count(), 0u);
}

TEST(MonteCarlo, RejectsZeroReplicates) {
  const auto s = figure7_scenario(minutes(120), 0.5);
  MonteCarloOptions mc;
  mc.replicates = 0;
  EXPECT_THROW(monte_carlo(Protocol::PurePeriodicCkpt, s, {}, mc),
               common::precondition_error);
}

}  // namespace
