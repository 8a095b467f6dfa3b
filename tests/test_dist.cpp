// Tests for the distributed fault-injection runtime: mailbox framing
// (seq/CRC protocol), campaign enumeration and deterministic sharding, the
// FaultingBackend write decorator, and the forked Launcher end to end —
// clean runs vs the serial AbftLu reference, SIGKILL + respawn + restore
// replay determinism, bit-flip reconstruction, torn-checkpoint fallback,
// snapshots streamed from the arena, the bounded restore loop, and a mini
// campaign in which every cell recovers.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "abft/abft_lu.hpp"
#include "abft/checksum.hpp"
#include "abft/grid.hpp"
#include "abft/matrix.hpp"
#include "ckpt/io/backend.hpp"
#include "ckpt/io/faulting.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/campaign.hpp"
#include "dist/channel.hpp"
#include "dist/fault.hpp"
#include "dist/launcher.hpp"

namespace {

using namespace abftc;
using namespace abftc::dist;

// --- mailbox framing --------------------------------------------------------

TEST(Mailbox, RoundTripsFrames) {
  Mailbox mb;
  reset(mb);
  std::uint64_t last_seen = 0;

  EXPECT_FALSE(try_recv(mb, last_seen).has_value());  // nothing posted yet

  post(mb, MsgType::Panel, 3, 7);
  const auto msg = try_recv(mb, last_seen);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MsgType::Panel);
  EXPECT_EQ(msg->args[0], 3u);
  EXPECT_EQ(msg->args[1], 7u);
  EXPECT_EQ(last_seen, 1u);
  EXPECT_FALSE(try_recv(mb, last_seen).has_value());  // consumed exactly once

  post(mb, MsgType::Done, 3);
  ASSERT_TRUE(try_recv(mb, last_seen).has_value());
  EXPECT_EQ(last_seen, 2u);
}

TEST(Mailbox, RejectsCorruptFrames) {
  Mailbox mb;
  reset(mb);
  std::uint64_t last_seen = 0;
  post(mb, MsgType::Update, 5);
  mb.args[0] = 6;  // payload corrupted after the CRC was computed
  EXPECT_THROW((void)try_recv(mb, last_seen), dist_error);
}

TEST(Mailbox, BlockingRecvTimesOut) {
  Mailbox mb;
  reset(mb);
  std::uint64_t last_seen = 0;
  EXPECT_FALSE(recv(mb, last_seen, 0.01).has_value());
}

TEST(Mailbox, DelayedPostIsReceivedWellBeforeDeadline) {
  Mailbox mb;
  reset(mb);
  std::uint64_t last_seen = 0;
  std::thread poster([&mb] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    post(mb, MsgType::Done, 9);
  });
  const auto t0 = std::chrono::steady_clock::now();
  const auto msg = recv(mb, last_seen, 5.0);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  poster.join();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, MsgType::Done);
  EXPECT_EQ(msg->args[0], 9u);
  // The poll backoff caps at 1 ms, so a frame posted ~20 ms in is noticed
  // within a few naps — nowhere near the 5 s deadline.
  EXPECT_LT(waited, 1.0);
}

// --- campaign enumeration ---------------------------------------------------

TEST(CampaignSpec, ParsesAndRoundTrips) {
  const auto spec = CampaignSpec::parse("steps:2-5,ranks:0-3,kinds:kill+torn");
  EXPECT_EQ(spec.step_lo, 2u);
  EXPECT_EQ(spec.step_hi, 5u);
  EXPECT_EQ(spec.rank_lo, 0u);
  EXPECT_EQ(spec.rank_hi, 3u);
  ASSERT_EQ(spec.kinds.size(), 2u);
  EXPECT_EQ(spec.kinds[0], FaultKind::Kill);
  EXPECT_EQ(spec.kinds[1], FaultKind::Torn);
  EXPECT_EQ(spec.cell_count(), 4u * 4u * 2u);

  const auto again = CampaignSpec::parse(spec.to_spec());
  EXPECT_EQ(again.to_spec(), spec.to_spec());

  // Single-value ranges and reordered keys are accepted.
  const auto single = CampaignSpec::parse("kinds:flip,steps:3,ranks:1");
  EXPECT_EQ(single.cell_count(), 1u);
  EXPECT_EQ(single.cell(0).step, 3u);
  EXPECT_EQ(single.cell(0).rank, 1u);
  EXPECT_EQ(single.cell(0).kind, FaultKind::Flip);
}

TEST(CampaignSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)CampaignSpec::parse(""), common::precondition_error);
  EXPECT_THROW((void)CampaignSpec::parse("steps:0-1,ranks:0"),
               common::precondition_error);  // kinds missing
  EXPECT_THROW((void)CampaignSpec::parse("steps:5-2,ranks:0,kinds:kill"),
               common::precondition_error);  // inverted range
  EXPECT_THROW((void)CampaignSpec::parse("steps:0,ranks:0,kinds:melt"),
               common::precondition_error);  // unknown kind
}

TEST(CampaignSpec, EnumeratesRowMajorAndShardsPartition) {
  const auto spec =
      CampaignSpec::parse("steps:1-3,ranks:0-1,kinds:kill+flip+torn");
  ASSERT_EQ(spec.cell_count(), 18u);

  // Row-major: step-major, then rank, then kind.
  EXPECT_EQ(spec.cell(0).step, 1u);
  EXPECT_EQ(spec.cell(0).rank, 0u);
  EXPECT_EQ(spec.cell(0).kind, FaultKind::Kill);
  EXPECT_EQ(spec.cell(2).kind, FaultKind::Torn);
  EXPECT_EQ(spec.cell(3).rank, 1u);
  EXPECT_EQ(spec.cell(6).step, 2u);
  for (std::size_t i = 0; i < spec.cell_count(); ++i)
    EXPECT_EQ(spec.cell(i).index, i);

  // Shards partition [0, cell_count()): every index exactly once.
  std::set<std::size_t> seen;
  for (std::size_t shard = 0; shard < 4; ++shard)
    for (const std::size_t i : spec.shard_indices(shard, 4)) {
      EXPECT_EQ(i % 4, shard);
      EXPECT_TRUE(seen.insert(i).second) << "index " << i << " duplicated";
    }
  EXPECT_EQ(seen.size(), spec.cell_count());
}

TEST(CampaignSpec, ParsesHangAndFlip2AndRoundTrips) {
  const auto spec = CampaignSpec::parse("steps:0-1,ranks:0,kinds:hang+flip2");
  ASSERT_EQ(spec.kinds.size(), 2u);
  EXPECT_EQ(spec.kinds[0], FaultKind::Hang);
  EXPECT_EQ(spec.kinds[1], FaultKind::Flip2);
  EXPECT_EQ(CampaignSpec::parse(spec.to_spec()).to_spec(), spec.to_spec());
  EXPECT_EQ(to_string(FaultKind::Hang), "hang");
  EXPECT_EQ(to_string(FaultKind::Flip2), "flip2");
}

TEST(CampaignSpec, CellSeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(cell_seed(42, 7), cell_seed(42, 7));
  EXPECT_NE(cell_seed(42, 7), cell_seed(42, 8));
  EXPECT_NE(cell_seed(42, 7), cell_seed(43, 7));
}

// --- FaultingBackend --------------------------------------------------------

ckpt::io::SnapshotBlob tiny_blob(ckpt::CkptId id) {
  ckpt::io::SnapshotBlob blob;
  blob.meta.id = id;
  blob.meta.kind = ckpt::CkptKind::Full;
  blob.meta.when = static_cast<double>(id);
  ckpt::io::RegionBlob r;
  r.region = 0;
  r.payload.assign(256, std::byte{0x5A});
  r.crc = common::crc32(std::span(r.payload));
  blob.meta.bytes = r.payload.size();
  blob.regions.push_back(std::move(r));
  return blob;
}

TEST(FaultingBackend, TornPayloadCommitsCorruptBytes) {
  const auto inner = ckpt::io::make_backend("memory");
  ckpt::io::FaultingBackend faulting(
      *inner, {{1, ckpt::io::WriteFault::TornPayload}});

  faulting.write_snapshot(tiny_blob(1));  // write 0: clean
  faulting.write_snapshot(tiny_blob(2));  // write 1: torn
  EXPECT_EQ(faulting.writes_started(), 2u);
  EXPECT_EQ(faulting.faults_fired(), 1u);

  // The torn snapshot committed — it is visible — but its payload fails
  // verification, which is exactly what the restore path must survive.
  ASSERT_EQ(faulting.list().size(), 2u);
  EXPECT_NO_THROW(faulting.read_snapshot(1).verify());
  EXPECT_THROW(faulting.read_snapshot(2).verify(), ckpt::io::io_error);

  // latest_restorable walks past the torn newest to the older clean one.
  const auto best = ckpt::io::latest_restorable(faulting);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->meta.id, 1u);
}

TEST(FaultingBackend, FailedCommitLeavesNoSnapshot) {
  const auto inner = ckpt::io::make_backend("memory");
  ckpt::io::FaultingBackend faulting(
      *inner, {{0, ckpt::io::WriteFault::FailedCommit}});

  EXPECT_THROW(faulting.write_snapshot(tiny_blob(1)), ckpt::io::io_error);
  EXPECT_TRUE(faulting.list().empty());
  EXPECT_TRUE(inner->list().empty());

  // The backend keeps working for later, unfaulted writes.
  EXPECT_NO_THROW(faulting.write_snapshot(tiny_blob(2)));
  EXPECT_EQ(faulting.list().size(), 1u);
}

// --- blind localization -----------------------------------------------------

// Hand-built states for locate_corruption: a random matrix with nothing
// frozen, so the active pair is the row-group (weighted) checksums of A and
// the frozen pair is all zeros.

struct LocalizationFixture {
  static constexpr std::size_t n = 48, nb = 8, group = 3;  // 6 block rows
  abft::Matrix a, active, wactive, frozen, wfrozen;

  LocalizationFixture() {
    common::Rng rng(123);
    a = abft::Matrix::diag_dominant(n, rng);
    active = abft::row_group_checksums(a, nb, group);
    wactive = abft::row_group_weighted_checksums(a, nb, group);
    frozen = abft::Matrix::zeros(active.rows(), n);
    wfrozen = abft::Matrix::zeros(active.rows(), n);
  }

  [[nodiscard]] Localization locate() {
    return locate_corruption(
        abft::LuView{a.view(), active.view(), frozen.view(), wactive.view(),
                     wfrozen.view(), nb, group},
        0);
  }
};

TEST(LocateCorruption, CleanStateNamesNothing) {
  LocalizationFixture fx;
  const Localization loc = fx.locate();
  EXPECT_FALSE(loc.ambiguous);
  EXPECT_TRUE(loc.sites.empty());
}

TEST(LocateCorruption, NamesASingleCorruptedElementExactly) {
  LocalizationFixture fx;
  // Block row 4 is position 1 (0-based) of group 1, so the weighted
  // residual is 2× the unweighted one in that column.
  fx.a(4 * fx.nb + 3, 17) += 0.5;
  const Localization loc = fx.locate();
  EXPECT_FALSE(loc.ambiguous);
  ASSERT_EQ(loc.sites.size(), 1u);
  EXPECT_EQ(loc.sites[0], (FaultSite{4, 17 / fx.nb, 4 * fx.nb + 3, 17}));
}

TEST(LocateCorruption, TwoBlocksYieldTwoSitesForTheLadderToRefuse) {
  LocalizationFixture fx;
  // Damage in two different blocks: each residual column still resolves
  // cleanly, but the ladder's one-block test must reject reconstruction.
  fx.a(0 * fx.nb + 2, 5) += 0.25;
  fx.a(4 * fx.nb + 6, 30) += 0.125;
  const Localization loc = fx.locate();
  EXPECT_FALSE(loc.ambiguous);
  ASSERT_EQ(loc.sites.size(), 2u);
  EXPECT_EQ(loc.sites[0], (FaultSite{0, 5 / fx.nb, 0 * fx.nb + 2, 5}));
  EXPECT_EQ(loc.sites[1], (FaultSite{4, 30 / fx.nb, 4 * fx.nb + 6, 30}));
}

TEST(LocateCorruption, NonIntegralRatioIsAmbiguous) {
  LocalizationFixture fx;
  // Two deltas in one residual column (same group, same row offset, same
  // column): r2/r1 = (1·0.5 + 3·0.3)/(0.5 + 0.3) = 1.75 — no single site.
  fx.a(3 * fx.nb + 3, 17) += 0.5;
  fx.a(5 * fx.nb + 3, 17) += 0.3;
  const Localization loc = fx.locate();
  EXPECT_TRUE(loc.ambiguous);
  EXPECT_TRUE(loc.sites.empty());
}

TEST(LocateCorruption, CancellingDeltasLeaveWeightedOnlyResidual) {
  LocalizationFixture fx;
  // The sum relation cancels exactly; only the weighted one fires.
  fx.a(3 * fx.nb + 1, 9) += 0.5;
  fx.a(4 * fx.nb + 1, 9) -= 0.5;
  const Localization loc = fx.locate();
  EXPECT_TRUE(loc.ambiguous);
  EXPECT_TRUE(loc.sites.empty());
}

// --- the forked runtime -----------------------------------------------------

DistConfig small_config() {
  DistConfig cfg;
  cfg.n = 96;
  cfg.nb = 16;
  cfg.ranks = 2;
  cfg.group = 3;
  cfg.ckpt_every = 2;
  cfg.seed = 0x5EEDull;
  return cfg;
}

TEST(DistLauncher, CleanRunMatchesSerialAbftLu) {
  const DistConfig cfg = small_config();
  const auto backend = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *backend);
  const RunReport report = launcher.run();

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.restores, 0u);
  EXPECT_EQ(report.respawns, 0u);
  EXPECT_EQ(report.reconstructions, 0u);
  EXPECT_LT(report.residual, 1e-8);
  EXPECT_EQ(report.step_seconds.size(), launcher.block_steps());
  EXPECT_EQ(report.checkpoints,
            (launcher.block_steps() + cfg.ckpt_every - 1) / cfg.ckpt_every);

  // The panel-cyclic two-phase schedule computes the same factorization the
  // serial dual-accumulator AbftLu does.
  common::Rng rng(cfg.seed);
  abft::AbftLu serial(abft::Matrix::diag_dominant(cfg.n, rng), cfg.nb,
                      abft::ProcessGrid{cfg.group, 1});
  serial.factor();
  EXPECT_LT(abft::relative_error(launcher.lu(), serial.lu()), 1e-12);
}

TEST(DistLauncher, RepeatRunsAreBitwiseIdentical) {
  const DistConfig cfg = small_config();
  const auto b1 = ckpt::io::make_backend("memory");
  const auto b2 = ckpt::io::make_backend("memory");
  Launcher first(cfg, *b1), second(cfg, *b2);
  (void)first.run();
  (void)second.run();
  EXPECT_EQ(abft::max_abs_diff(first.lu(), second.lu()), 0.0);
}

TEST(DistLauncher, RunsOnceOnly) {
  const auto backend = ckpt::io::make_backend("memory");
  Launcher launcher(small_config(), *backend);
  (void)launcher.run();
  EXPECT_THROW((void)launcher.run(), common::precondition_error);
}

TEST(DistLauncher, KillRecoversByRestoreAndReplay) {
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Kill, 3, 1}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_EQ(report.reconstructions, 0u);
  ASSERT_EQ(report.restored_to_steps.size(), 1u);
  // Step 3 with ckpt_every=2: the covering boundary is step 2.
  EXPECT_EQ(report.restored_to_steps[0], 2u);
  EXPECT_LT(report.residual, 1e-8);

  // Deterministic replay: the recovered run is bitwise the uninjected one.
  EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0);
}

TEST(DistLauncher, FlipRecoversByChecksumReconstruction) {
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Flip, 2, 1}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.reconstructions, 1u);  // no process died
  EXPECT_EQ(report.restores, 0u);
  EXPECT_EQ(report.respawns, 0u);
  EXPECT_LT(report.residual, 1e-8);
  // Reconstruction is accumulator algebra, not bit replay: the factors agree
  // to rounding, not bitwise.
  EXPECT_LT(abft::relative_error(injected.lu(), clean.lu()), 1e-8);
}

TEST(DistLauncher, WeightedAccumulatorsMatchSerialReference) {
  const DistConfig cfg = small_config();
  const auto backend = ckpt::io::make_backend("memory");
  Launcher launcher(cfg, *backend);
  (void)launcher.run();

  common::Rng rng(cfg.seed);
  abft::AbftLu serial(abft::Matrix::diag_dominant(cfg.n, rng), cfg.nb,
                      abft::ProcessGrid{cfg.group, 1});
  serial.factor();

  // The weighted pair rides through the identical per-element operations as
  // the sum pair, so the dist copies track the serial reference to rounding
  // (after the full factorization everything is frozen and the active
  // accumulators hold only drained noise).
  EXPECT_LT(abft::max_abs_diff(launcher.weighted_frozen_cs(),
                               serial.weighted_frozen_cs()),
            1e-8);
  EXPECT_LT(abft::max_abs_diff(launcher.weighted_active_cs(),
                               serial.weighted_active_cs()),
            1e-8);
}

TEST(DistLauncher, WeightedAccumulatorsAreBitwiseAcrossRankCounts) {
  const DistConfig cfg = small_config();
  DistConfig cfg3 = cfg;
  cfg3.ranks = 3;
  const auto b1 = ckpt::io::make_backend("memory");
  const auto b2 = ckpt::io::make_backend("memory");
  Launcher two(cfg, *b1), three(cfg3, *b2);
  (void)two.run();
  (void)three.run();
  // Column ownership moves work between ranks but never changes any
  // per-element expression, so the factors AND both weighted accumulators
  // are bitwise identical.
  EXPECT_EQ(abft::max_abs_diff(two.lu(), three.lu()), 0.0);
  EXPECT_EQ(abft::max_abs_diff(two.weighted_active_cs(),
                               three.weighted_active_cs()),
            0.0);
  EXPECT_EQ(abft::max_abs_diff(two.weighted_frozen_cs(),
                               three.weighted_frozen_cs()),
            0.0);
}

// The worker phases trim the active accumulators' trsm/GEMM rows to the
// live range [lo, csr), in lockstep with AbftLu::step. A blind run verifies
// the invariant at every step boundary, so a clean blind run that never
// reconstructs or escalates proves every boundary stayed below the
// detection floor — for each group size, freeze steps included.
TEST(DistLauncher, LiveRowTrimKeepsEveryBoundaryClean) {
  for (const std::size_t group : {2u, 3u, 4u}) {
    DistConfig cfg = small_config();
    cfg.nb = 8;  // 12 block steps: a multiple of every group size here
    cfg.group = group;
    cfg.blind = true;
    const auto backend = ckpt::io::make_backend("memory");
    Launcher launcher(cfg, *backend);
    const RunReport report = launcher.run();
    EXPECT_TRUE(report.completed) << "group=" << group;
    EXPECT_EQ(report.reconstructions, 0u) << "group=" << group;
    EXPECT_EQ(report.escalations, 0u) << "group=" << group;
    EXPECT_EQ(report.restores, 0u) << "group=" << group;
    EXPECT_LT(report.residual, 1e-8) << "group=" << group;

    common::Rng rng(cfg.seed);
    abft::AbftLu serial(abft::Matrix::diag_dominant(cfg.n, rng), cfg.nb,
                        abft::ProcessGrid{cfg.group, 1});
    serial.factor();
    EXPECT_LT(abft::max_abs_diff(launcher.weighted_active_cs(),
                                 serial.weighted_active_cs()),
              1e-8)
        << "group=" << group;
    EXPECT_LT(abft::max_abs_diff(launcher.weighted_frozen_cs(),
                                 serial.weighted_frozen_cs()),
              1e-8)
        << "group=" << group;
  }
}

// Rank kills right before the step that freezes a group's last block row
// (k % group == group − 1) and right after it (k % group == 0): restore +
// replay must reproduce the clean run bitwise on both sides of the trim.
TEST(DistLauncher, KillRecoversOnBothSidesOfAGroupFreeze) {
  for (const std::size_t group : {2u, 3u, 4u}) {
    DistConfig cfg = small_config();
    cfg.nb = 8;
    cfg.group = group;
    cfg.blind = true;
    const auto clean_backend = ckpt::io::make_backend("memory");
    Launcher clean(cfg, *clean_backend);
    (void)clean.run();
    for (const std::size_t step : {2 * group - 1, 2 * group}) {
      const auto backend = ckpt::io::make_backend("memory");
      Launcher injected(cfg, *backend);
      const RunReport report =
          injected.run({{FaultKind::Kill, step, step % cfg.ranks}});
      EXPECT_TRUE(report.completed) << "group=" << group << " step=" << step;
      EXPECT_EQ(report.restores, 1u) << "group=" << group << " step=" << step;
      EXPECT_EQ(report.respawns, 1u) << "group=" << group << " step=" << step;
      EXPECT_LT(report.residual, 1e-8);
      EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0)
          << "group=" << group << " step=" << step;
      EXPECT_EQ(abft::max_abs_diff(injected.weighted_active_cs(),
                                   clean.weighted_active_cs()),
                0.0)
          << "group=" << group << " step=" << step;
    }
  }
}

TEST(DistLauncher, BlindFlipIsLocatedAndReconstructed) {
  DistConfig cfg = small_config();
  cfg.blind = true;  // verify at every boundary; no injection-timing hints
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Flip, 2, 1}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.reconstructions, 1u);
  EXPECT_EQ(report.restores, 0u);
  EXPECT_EQ(report.escalations, 0u);
  EXPECT_GE(report.locates, 1u);
  EXPECT_GT(report.locate_seconds, 0.0);
  EXPECT_GT(report.check_seconds, 0.0);
  // Localization derived the injector's exact site from the residual ratio.
  ASSERT_EQ(report.injected.size(), 1u);
  ASSERT_EQ(report.located.size(), 1u);
  EXPECT_EQ(report.located[0], report.injected[0]);
  EXPECT_LT(report.residual, 1e-8);
  EXPECT_LT(abft::relative_error(injected.lu(), clean.lu()), 1e-8);
}

TEST(DistLauncher, HangIsKilledAtTheDeadlineAndRecovered) {
  DistConfig cfg = small_config();
  cfg.step_timeout_s = 0.5;  // the hang deadline; a real step is ~ms
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Hang, 3, 1}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.hangs, 1u);
  EXPECT_GT(report.hang_wait_seconds, 0.2);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.reconstructions, 0u);
  ASSERT_EQ(report.restored_to_steps.size(), 1u);
  EXPECT_EQ(report.restored_to_steps[0], 2u);  // covering boundary of step 3
  EXPECT_LT(report.residual, 1e-8);
  // Post-SIGKILL recovery is the death path: deterministic bitwise replay.
  EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0);
}

TEST(DistLauncher, Flip2EscalatesPastReconstruction) {
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  const auto backend = ckpt::io::make_backend("memory");
  Launcher injected(cfg, *backend);
  const RunReport report = injected.run({{FaultKind::Flip2, 2, 1}});

  EXPECT_TRUE(report.completed);
  // Two corrupted block rows in one group: localization names both sites,
  // the one-block test fails, and the ladder MUST climb to a restore —
  // single-block reconstruction provably cannot repair this.
  EXPECT_EQ(report.reconstructions, 0u);
  EXPECT_EQ(report.escalations, 1u);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.respawns, 0u);  // nobody died; the arena was re-seeded
  ASSERT_EQ(report.injected.size(), 2u);
  EXPECT_NE(report.injected[0].block_row, report.injected[1].block_row);
  EXPECT_EQ(report.injected[0].block_col, report.injected[1].block_col);
  // Both sites were still localized exactly before the ladder escalated.
  auto by_site = [](const FaultSite& a, const FaultSite& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  std::vector<FaultSite> want = report.injected, got = report.located;
  std::sort(want.begin(), want.end(), by_site);
  std::sort(got.begin(), got.end(), by_site);
  EXPECT_EQ(got, want);
  EXPECT_LT(report.residual, 1e-8);
  EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0);
}

TEST(DistLauncher, TornCheckpointFallsBackToOlderSnapshot) {
  const DistConfig cfg = small_config();
  const auto clean_backend = ckpt::io::make_backend("memory");
  Launcher clean(cfg, *clean_backend);
  (void)clean.run();

  // Tear the write covering step 4 (boundary 4 = write index 2), then kill
  // rank 0 at step 4: the restore must skip the torn snapshot and fall back
  // to boundary 2, replaying two extra steps.
  const auto inner = ckpt::io::make_backend("memory");
  ckpt::io::FaultingBackend faulting(
      *inner, {{4 / cfg.ckpt_every, ckpt::io::WriteFault::TornPayload}});
  Launcher injected(cfg, faulting);
  const RunReport report = injected.run({{FaultKind::Torn, 4, 0}});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(faulting.faults_fired(), 1u);
  EXPECT_EQ(report.restores, 1u);
  EXPECT_EQ(report.respawns, 1u);
  ASSERT_EQ(report.restored_to_steps.size(), 1u);
  EXPECT_EQ(report.restored_to_steps[0], 2u);  // fell back past boundary 4
  EXPECT_LT(report.residual, 1e-8);
  EXPECT_EQ(abft::max_abs_diff(injected.lu(), clean.lu()), 0.0);
}

std::filesystem::path dist_test_dir(const std::string& leaf) {
  const char* env = std::getenv("TMPDIR");
  const std::filesystem::path base =
      (env != nullptr && *env != '\0') ? std::filesystem::path(env)
                                       : std::filesystem::temp_directory_path();
  return base / leaf;
}

template <typename T>
std::vector<T> values_of(const std::vector<std::byte>& payload) {
  std::vector<T> out(payload.size() / sizeof(T));
  std::memcpy(out.data(), payload.data(), out.size() * sizeof(T));
  return out;
}

// Checkpoints stream straight from the arena. Every committed snapshot must
// decode to the six regions of the dist format (ids 0..5, the same sizes,
// CRCs that the portable reference reproduces) on a volatile and a durable
// backend, and hold the arena as it was at its boundary:
//  * boundary 0 is the initial state, rebuilt here independently;
//  * at boundary b the factored part (block rows < b, and the L columns
//    < b of every row) is already final, so it equals the finished run's
//    factors bitwise, and the trailing block with all four accumulators
//    must satisfy the checksum invariants (no site, nothing ambiguous).
// One begin_snapshot per checkpoint keeps FaultingBackend's write index
// equal to the checkpoint index, which the torn-write cells rely on.
TEST(DistLauncher, SnapshotsHoldTheArenaAtTheirBoundary) {
  const DistConfig cfg = small_config();
  const std::size_t n = cfg.n, nb = cfg.nb;
  common::Rng rng(cfg.seed);
  const abft::Matrix a0 = abft::Matrix::diag_dominant(n, rng);
  const abft::Matrix cs0 = abft::row_group_checksums(a0, nb, cfg.group);
  const abft::Matrix wcs0 =
      abft::row_group_weighted_checksums(a0, nb, cfg.group);
  const std::size_t csr = cs0.rows();
  const std::vector<std::uint64_t> want_sizes = {
      2 * sizeof(std::uint64_t), n * n * sizeof(double),
      csr * n * sizeof(double),  csr * n * sizeof(double),
      csr * n * sizeof(double),  csr * n * sizeof(double)};

  const std::filesystem::path log_dir = dist_test_dir("abftc_dist_roundtrip");
  std::filesystem::remove_all(log_dir);
  for (const std::string& spec : {std::string("memory"),
                                 "log:" + log_dir.string() + "?shards=2"}) {
    const auto inner = ckpt::io::make_backend(spec);
    ckpt::io::FaultingBackend counted(*inner, {});
    Launcher launcher(cfg, counted);
    const RunReport report = launcher.run();
    ASSERT_TRUE(report.completed) << spec;
    EXPECT_EQ(counted.writes_started(), report.checkpoints) << spec;

    const auto metas = inner->list();
    ASSERT_EQ(metas.size(), report.checkpoints) << spec;
    for (const ckpt::io::SnapshotMeta& meta : metas) {
      const std::size_t b = meta.id - 1;
      const ckpt::io::SnapshotBlob blob = inner->read_snapshot(meta.id);
      ASSERT_EQ(blob.regions.size(), want_sizes.size()) << spec;
      for (std::size_t i = 0; i < blob.regions.size(); ++i) {
        const ckpt::io::RegionBlob& r = blob.regions[i];
        EXPECT_EQ(r.region, i) << spec << " boundary " << b;
        ASSERT_EQ(r.payload.size(), want_sizes[i]) << spec << " boundary " << b;
        EXPECT_EQ(r.crc, common::crc32_portable(r.payload))
            << spec << " boundary " << b << " region " << i;
      }
      const auto progress = values_of<std::uint64_t>(blob.regions[0].payload);
      EXPECT_EQ(progress[0], b) << spec;
      EXPECT_EQ(progress[1], b) << spec;  // a boundary has b frozen rows

      std::vector<double> values[6];
      for (std::size_t region = 1; region < 6; ++region)
        values[region] = values_of<double>(blob.regions[region].payload);
      const auto view = [&](std::size_t region, std::size_t rows) {
        return abft::MatrixView(values[region].data(), rows, n, n);
      };
      const abft::MatrixView a = view(1, n);
      if (b == 0) {
        const abft::Matrix* want[] = {&a0, &cs0, nullptr, &wcs0, nullptr};
        for (std::size_t region = 1; region < 6; ++region) {
          const std::vector<double>& got = values[region];
          for (std::size_t e = 0; e < got.size(); ++e)
            ASSERT_EQ(got[e], want[region - 1] != nullptr
                                  ? want[region - 1]->storage()[e]
                                  : 0.0)
                << spec << " region " << region << " element " << e;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i < b * nb || j < b * nb) {
            ASSERT_EQ(a(i, j), launcher.lu()(i, j))
                << spec << " boundary " << b << " (" << i << ", " << j << ")";
          }
        }
      }
      const Localization loc = locate_corruption(
          abft::LuView{a, view(2, csr), view(3, csr), view(4, csr),
                       view(5, csr), nb, cfg.group},
          b);
      EXPECT_FALSE(loc.ambiguous) << spec << " boundary " << b;
      EXPECT_TRUE(loc.sites.empty()) << spec << " boundary " << b;
    }
  }
  std::filesystem::remove_all(log_dir);
}

/// Serves every snapshot with one weighted-active element corrupted and the
/// region CRC recomputed: the damage passes restore verification, and a
/// weighted-only residual cannot be localized, so every restore brings it
/// back.
class CorruptingReadBackend final : public ckpt::io::StorageBackend {
 public:
  explicit CorruptingReadBackend(ckpt::io::StorageBackend& inner)
      : inner_(inner) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "corrupting";
  }
  void open() override { inner_.open(); }
  [[nodiscard]] ckpt::io::SnapshotBlob read_snapshot(
      ckpt::CkptId id) const override {
    ckpt::io::SnapshotBlob blob = inner_.read_snapshot(id);
    for (ckpt::io::RegionBlob& r : blob.regions) {
      if (r.region != 4) continue;  // weighted active accumulator
      double last = 0.0;
      std::byte* at = r.payload.data() + r.payload.size() - sizeof(last);
      std::memcpy(&last, at, sizeof(last));
      last += 1.0;
      std::memcpy(at, &last, sizeof(last));
      r.crc = common::crc32(r.payload);
    }
    return blob;
  }
  [[nodiscard]] std::vector<ckpt::io::SnapshotMeta> list() const override {
    return inner_.list();
  }
  void drop(ckpt::CkptId id) override { inner_.drop(id); }
  [[nodiscard]] std::unique_ptr<WriteSession> begin_snapshot(
      const ckpt::io::SnapshotMeta& meta, std::vector<ckpt::RegionId> regions,
      std::vector<std::uint64_t> region_sizes) override {
    return inner_.begin_snapshot(meta, std::move(regions),
                                 std::move(region_sizes));
  }

 private:
  ckpt::io::StorageBackend& inner_;
};

// A residual that survives restore must not loop restore → replay → detect
// forever: the run gives up after kMaxRestoresPerStep restores from the
// step and reports itself not completed (a campaign counts it unrecovered).
TEST(DistLauncher, RestoreLoopGivesUpWhenTheResidualSurvivesRestore) {
  DistConfig cfg = small_config();
  cfg.blind = true;
  const auto inner = ckpt::io::make_backend("memory");
  CorruptingReadBackend corrupting(*inner);
  Launcher launcher(cfg, corrupting);
  const RunReport report = launcher.run({{FaultKind::Kill, 3, 1}});

  EXPECT_FALSE(report.completed);
  // One restore for the kill at step 3, then every replay of step 2 finds
  // the restored damage again until step 2's restores run out.
  EXPECT_EQ(report.restores, 1 + kMaxRestoresPerStep);
  EXPECT_EQ(report.escalations, 1 + kMaxRestoresPerStep);
  EXPECT_EQ(report.reconstructions, 0u);
  EXPECT_GT(report.residual, 1e-8);
}

TEST(DistCampaign, MiniCampaignRecoversEveryCell) {
  DistConfig cfg = small_config();
  cfg.n = 48;  // 3 block steps: 3 × 2 ranks × 3 kinds = 18 cells
  const auto spec =
      CampaignSpec::parse("steps:0-2,ranks:0-1,kinds:kill+flip+torn");

  const CampaignReport report = run_campaign(cfg, spec);
  ASSERT_EQ(report.cells.size(), spec.cell_count());

  std::set<std::size_t> indices;
  for (const CellOutcome& c : report.cells) {
    EXPECT_TRUE(c.recovered) << "cell " << c.cell.index << " ("
                             << to_string(c.cell.kind) << " step "
                             << c.cell.step << " rank " << c.cell.rank << ")";
    EXPECT_TRUE(indices.insert(c.cell.index).second);
    EXPECT_GT(c.measured_seconds, 0.0);
    EXPECT_GT(c.predicted_seconds, 0.0);
  }
  EXPECT_EQ(indices.size(), spec.cell_count());
  EXPECT_EQ(report.unrecovered, 0u);
  EXPECT_GT(report.calib.t_clean, 0.0);
  EXPECT_EQ(report.calib.step_seconds.size(), cfg.n / cfg.nb);
}

TEST(DistCampaign, BlindMiniCampaignLocalizesAndEscalatesEveryCell) {
  DistConfig cfg = small_config();
  cfg.n = 48;  // 3 block steps: 3 × 2 ranks × 3 kinds = 18 cells
  const auto spec =
      CampaignSpec::parse("steps:0-2,ranks:0-1,kinds:flip+hang+flip2");
  CampaignOptions options;
  options.blind = true;

  const CampaignReport report = run_campaign(cfg, spec, options);
  ASSERT_EQ(report.cells.size(), spec.cell_count());
  EXPECT_EQ(report.unrecovered, 0u);
  EXPECT_GT(report.calib.locate_s, 0.0);
  EXPECT_GE(report.calib.hang_timeout_s, 0.25);

  for (const CellOutcome& c : report.cells) {
    EXPECT_TRUE(c.recovered) << "cell " << c.cell.index << " ("
                             << to_string(c.cell.kind) << " step "
                             << c.cell.step << " rank " << c.cell.rank << ")";
    // No cell ever saw its injection coordinates; a derived localization
    // that disagreed with the injector's ground truth would show up here.
    EXPECT_TRUE(c.site_match) << "cell " << c.cell.index;
    switch (c.cell.kind) {
      case FaultKind::Flip:
        EXPECT_EQ(c.reconstructions, 1u);
        EXPECT_EQ(c.escalations, 0u);
        EXPECT_GT(c.locate_seconds, 0.0);
        EXPECT_EQ(c.injected.size(), 1u);
        break;
      case FaultKind::Flip2:
        EXPECT_EQ(c.reconstructions, 0u);
        EXPECT_EQ(c.escalations, 1u);
        EXPECT_GE(c.restores, 1u);
        EXPECT_EQ(c.injected.size(), 2u);
        break;
      case FaultKind::Hang:
        EXPECT_EQ(c.hangs, 1u);
        EXPECT_GT(c.hang_wait_seconds, 0.0);
        EXPECT_GE(c.respawns, 1u);
        break;
      default:
        FAIL() << "unexpected kind in this campaign";
    }
  }
}

TEST(DistCampaign, LogStorageRecoversEveryCellWithCompaction) {
  DistConfig cfg = small_config();
  cfg.n = 48;
  const auto spec =
      CampaignSpec::parse("steps:0-2,ranks:0-1,kinds:kill+torn");

  // Durable sharded-log store with background compaction racing the
  // campaign's checkpoint traffic; storage_for splices ".cellN" before the
  // '?' so cells never share a directory.
  const std::filesystem::path store =
      dist_test_dir("abftc_dist_log_campaign");
  std::filesystem::remove_all(store);
  CampaignOptions options;
  options.storage = "log:" + store.string() + "?shards=2&compact=4";

  const CampaignReport report = run_campaign(cfg, spec, options);
  ASSERT_EQ(report.cells.size(), spec.cell_count());
  for (const CellOutcome& c : report.cells)
    EXPECT_TRUE(c.recovered) << "cell " << c.cell.index << " ("
                             << to_string(c.cell.kind) << " step "
                             << c.cell.step << " rank " << c.cell.rank << ")";
  EXPECT_EQ(report.unrecovered, 0u);
  std::filesystem::remove_all(store);
}

TEST(DistCampaign, ShardsCoverTheCampaignExactlyOnce) {
  DistConfig cfg = small_config();
  cfg.n = 48;
  const auto spec = CampaignSpec::parse("steps:0-2,ranks:0-1,kinds:kill");

  std::set<std::size_t> indices;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    CampaignOptions options;
    options.shard = shard;
    options.nshards = 2;
    const CampaignReport report = run_campaign(cfg, spec, options);
    EXPECT_EQ(report.unrecovered, 0u);
    for (const CellOutcome& c : report.cells)
      EXPECT_TRUE(indices.insert(c.cell.index).second);
  }
  EXPECT_EQ(indices.size(), spec.cell_count());
}

}  // namespace
