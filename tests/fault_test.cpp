// Fault-injection subsystem + retry/backoff/failover hardening tests.
//
// Unit layer: the FaultInjector's loss/partition/spike semantics and
// the Node's retry-backoff + supplier-blacklist state machines.
// Session layer: the f*_ scenario families populate their cause-tagged
// counters, crash-stop events ride the abrupt-leave path, and graceful
// vs abrupt departures leave different CDP recovery footprints.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/config.hpp"
#include "core/node.hpp"
#include "core/session.hpp"
#include "dht/id_space.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace continu {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::RetryPolicy;

// ---------------------------------------------------------------------------
// FaultInjector units
// ---------------------------------------------------------------------------

TEST(FaultInjector, InertPlanDeliversEverything) {
  FaultPlan plan;  // defaults: no loss, no events
  EXPECT_FALSE(plan.active());
  FaultInjector inj(plan, 42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(inj.classify(0, 1 + i % 7, 0.1 * i), FaultInjector::Fate::kDeliver);
    EXPECT_DOUBLE_EQ(inj.extra_latency_s(0.1 * i), 0.0);
  }
}

TEST(FaultInjector, LossIsDeterministicInSeedAndCallSequence) {
  FaultPlan plan;
  plan.loss_rate = 0.5;
  ASSERT_TRUE(plan.active());

  const auto sequence = [&plan](std::uint64_t seed) {
    FaultInjector inj(plan, seed);
    std::vector<FaultInjector::Fate> fates;
    for (int i = 0; i < 400; ++i) {
      fates.push_back(inj.classify(i % 11, i % 7, 0.25 * (i / 4)));
    }
    return fates;
  };
  // Same seed, same call sequence: identical fates (this is what makes
  // send-time classification reproducible across runs).
  EXPECT_EQ(sequence(42), sequence(42));
  // A different seed reshuffles the loss pattern.
  EXPECT_NE(sequence(42), sequence(43));

  // Losses actually happen at roughly the configured rate.
  const auto fates = sequence(42);
  int lost = 0;
  for (const auto f : fates) lost += (f == FaultInjector::Fate::kLoss) ? 1 : 0;
  EXPECT_GT(lost, 100);
  EXPECT_LT(lost, 300);
}

TEST(FaultInjector, PartitionSeparatesRegionsUntilHeal) {
  FaultPlan plan;
  plan.partitions.push_back({/*start=*/10.0, /*heal=*/20.0, /*regions=*/2});
  ASSERT_TRUE(plan.active());
  FaultInjector inj(plan, 7);

  // Inside the window, cross-region links are cut; same-region links
  // (and the window edges) deliver. No RNG is involved.
  EXPECT_EQ(inj.classify(0, 1, 15.0), FaultInjector::Fate::kPartition);
  EXPECT_EQ(inj.classify(3, 6, 15.0), FaultInjector::Fate::kPartition);
  EXPECT_EQ(inj.classify(0, 2, 15.0), FaultInjector::Fate::kDeliver);
  EXPECT_EQ(inj.classify(1, 5, 15.0), FaultInjector::Fate::kDeliver);
  EXPECT_EQ(inj.classify(0, 1, 9.9), FaultInjector::Fate::kDeliver);
  EXPECT_EQ(inj.classify(0, 1, 20.0), FaultInjector::Fate::kDeliver);  // healed
  EXPECT_TRUE(inj.partitioned(0, 1, 10.0));  // [start, heal)
  EXPECT_FALSE(inj.partitioned(0, 1, 20.0));
}

TEST(FaultInjector, BurstEpisodesRaiseTheLossRate) {
  FaultPlan plan;
  plan.loss_rate = 0.01;
  plan.burst_rate = 0.8;
  plan.burst_period = 10.0;
  plan.burst_duration = 2.0;
  FaultInjector inj(plan, 9);
  // Phase within [0, burst_duration) of each period is the episode.
  EXPECT_DOUBLE_EQ(inj.loss_rate_at(0.5), 0.8);
  EXPECT_DOUBLE_EQ(inj.loss_rate_at(11.9), 0.8);
  EXPECT_DOUBLE_EQ(inj.loss_rate_at(5.0), 0.01);
  EXPECT_DOUBLE_EQ(inj.loss_rate_at(12.0), 0.01);
}

TEST(FaultInjector, LatencySpikesAddDelayOnlyInsideTheWindow) {
  FaultPlan plan;
  plan.loss_rate = 0.001;  // keep the plan active
  plan.spikes.push_back({/*start=*/5.0, /*duration=*/2.0, /*extra_ms=*/100.0});
  FaultInjector inj(plan, 11);
  EXPECT_DOUBLE_EQ(inj.extra_latency_s(6.0), 0.1);
  EXPECT_DOUBLE_EQ(inj.extra_latency_s(4.9), 0.0);
  EXPECT_DOUBLE_EQ(inj.extra_latency_s(7.0), 0.0);  // [start, start+duration)
}

// ---------------------------------------------------------------------------
// Node-level retry/backoff + blacklist state machines
// ---------------------------------------------------------------------------

core::Node test_node(NodeId id, const dht::IdSpace& space,
                     const core::SystemConfig& config) {
  return core::Node(id, /*session_index=*/0, config, core::UrgentLineConfig{},
                    space, /*inbound_rate=*/15.0, /*outbound_rate=*/15.0,
                    /*ping_ms=*/50.0);
}

TEST(RetryHardening, BackoffDoublesAndSaturatesAtTheCap) {
  const dht::IdSpace space(8192);
  core::SystemConfig config;
  core::Node node = test_node(1, space, config);

  RetryPolicy policy;
  policy.backoff_base = 0.5;
  policy.backoff_cap = 4.0;
  policy.max_attempts = 4;

  const SegmentId seg = 100;
  core::Node::SweepHardening hard;
  SimTime now = 0.0;
  // Drive repeated timeouts through the sweep (inflight entry each
  // time, then a cutoff in the future so it times out immediately).
  std::vector<double> windows;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    ASSERT_TRUE(node.begin_transfer(seg, core::TransferKind::kScheduled,
                                    /*supplier=*/2, now));
    const auto dropped = node.sweep_timeouts(
        /*cutoff=*/now + 1.0, [](NodeId) {}, &policy, now, &hard);
    ASSERT_EQ(dropped, 1u);
    // Probe the backoff window width by bisection against retry_blocked.
    double lo = 0.0, hi = 64.0;
    for (int it = 0; it < 40; ++it) {
      const double mid = 0.5 * (lo + hi);
      (node.retry_blocked(seg, now + mid) ? lo : hi) = mid;
    }
    windows.push_back(lo);
  }
  EXPECT_EQ(hard.backoffs, 6u);
  // 0.5, 1, 2, then pinned at the 4-second cap: bounded, terminating.
  EXPECT_NEAR(windows[0], 0.5, 1e-3);
  EXPECT_NEAR(windows[1], 1.0, 1e-3);
  EXPECT_NEAR(windows[2], 2.0, 1e-3);
  EXPECT_NEAR(windows[3], 4.0, 1e-3);
  EXPECT_NEAR(windows[4], 4.0, 1e-3);  // attempts capped at max_attempts
  EXPECT_NEAR(windows[5], 4.0, 1e-3);

  // Success wipes the streak.
  node.clear_retry(seg);
  EXPECT_FALSE(node.retry_blocked(seg, now));
  EXPECT_EQ(node.retry_record_count(), 0u);
}

TEST(RetryHardening, SupplierBlacklistEngagesDecaysAndClears) {
  const dht::IdSpace space(8192);
  core::SystemConfig config;
  core::Node node = test_node(1, space, config);

  RetryPolicy policy;
  policy.blacklist_strikes = 3;
  policy.blacklist_base = 2.0;
  policy.blacklist_cap = 8.0;

  const NodeId supplier = 77;
  SimTime now = 0.0;
  // Two strikes: below threshold, not blacklisted.
  EXPECT_FALSE(node.note_supplier_failure(supplier, now, policy));
  EXPECT_FALSE(node.note_supplier_failure(supplier, now, policy));
  EXPECT_FALSE(node.supplier_blacklisted(supplier, now, policy));
  // Third strike crosses the threshold: newly blacklisted (counted
  // once), for blacklist_base seconds.
  EXPECT_TRUE(node.note_supplier_failure(supplier, now, policy));
  EXPECT_TRUE(node.supplier_blacklisted(supplier, now, policy));
  // A strike while already blacklisted extends but does not re-count.
  EXPECT_FALSE(node.note_supplier_failure(supplier, now, policy));
  // The window doubles per extra strike, capped: 2*2^1 = 4 s here.
  EXPECT_TRUE(node.supplier_blacklisted(supplier, now + 3.9, policy));
  EXPECT_FALSE(node.supplier_blacklisted(supplier, now + 4.1, policy));

  // Decay: once the window passes, compaction sweeps the record.
  node.compact_bookkeeping(/*now=*/now + 10.0, /*horizon=*/0);
  EXPECT_EQ(node.strike_record_count(), 0u);

  // A successful delivery erases the record immediately.
  EXPECT_FALSE(node.note_supplier_failure(supplier, now, policy));
  node.note_supplier_success(supplier);
  EXPECT_EQ(node.strike_record_count(), 0u);
}

TEST(RetryHardening, CompactionSweepsStaleRetryRecords) {
  const dht::IdSpace space(8192);
  core::SystemConfig config;
  core::Node node = test_node(1, space, config);

  RetryPolicy policy;
  policy.backoff_base = 0.5;
  policy.backoff_cap = 2.0;

  SimTime now = 100.0;
  for (SegmentId seg = 990; seg < 1000; ++seg) {
    ASSERT_TRUE(node.begin_transfer(seg, core::TransferKind::kScheduled, 2, now));
  }
  core::Node::SweepHardening hard;
  node.sweep_timeouts(now + 1.0, [](NodeId) {}, &policy, now, &hard);
  EXPECT_EQ(node.retry_record_count(), 10u);

  // Records behind the playback window go first...
  node.compact_bookkeeping(now, /*horizon=*/995);
  EXPECT_EQ(node.retry_record_count(), 5u);
  // ...and the rest expire once their streak linger passes.
  node.compact_bookkeeping(now + 60.0, /*horizon=*/995);
  EXPECT_EQ(node.retry_record_count(), 0u);
}

// The churn sweep's one-pass drop against the per-dead-id loop it
// replaced, on random in-flight tables and dead lists (with repeats and
// ids no entry names). Contents and iteration order must match: every
// surviving entry has its own supplier, so the order in which a
// timeout sweep reports suppliers is the table's slot order.
TEST(ChurnSweep, OnePassDropMatchesPerDeadIdLoop) {
  const dht::IdSpace space(8192);
  core::SystemConfig config;
  util::Rng rng(606);
  std::vector<SegmentId> scratch;
  std::vector<NodeId> hit;
  for (int trial = 0; trial < 300; ++trial) {
    core::Node loop = test_node(1, space, config);
    core::Node one_pass = test_node(1, space, config);
    std::vector<NodeId> dead_ids;
    const std::size_t dead_count = rng.next_below(6);
    for (std::size_t k = 0; k < dead_count; ++k) {
      dead_ids.push_back(static_cast<NodeId>(rng.next_below(8)));
    }
    const std::size_t entries = rng.next_below(60);
    std::vector<SegmentId> ids;
    std::vector<NodeId> supplier_of(400, kInvalidNode);
    for (std::size_t k = 0; k < entries; ++k) {
      const auto id = static_cast<SegmentId>(rng.next_below(400));
      NodeId supplier = static_cast<NodeId>(1000 + k);
      if (!dead_ids.empty() && rng.next_below(3) == 0) {
        supplier = dead_ids[rng.next_below(dead_ids.size())];
      }
      const bool fresh =
          loop.begin_transfer(id, core::TransferKind::kScheduled, supplier, 1.0);
      EXPECT_EQ(one_pass.begin_transfer(id, core::TransferKind::kScheduled, supplier, 1.0),
                fresh);
      if (fresh) {
        ids.push_back(id);
        supplier_of[static_cast<std::size_t>(id)] = supplier;
      }
    }
    // Erasing a few entries first makes the slot layout depend on
    // history, as it does in a session.
    for (std::size_t k = 0; k < ids.size(); k += 5) {
      (void)loop.end_transfer(ids[k]);
      (void)one_pass.end_transfer(ids[k]);
      supplier_of[static_cast<std::size_t>(ids[k])] = kInvalidNode;
    }

    for (const NodeId dead : dead_ids) loop.drop_transfers_from(dead, scratch);
    std::vector<NodeId> sorted_dead = dead_ids;
    std::sort(sorted_dead.begin(), sorted_dead.end());
    one_pass.drop_transfers_from_any(dead_ids, sorted_dead, hit, scratch);

    // Exactly the entries of live suppliers survive.
    ASSERT_EQ(one_pass.inflight_count(), loop.inflight_count()) << "trial " << trial;
    for (SegmentId id = 0; id < 400; ++id) {
      const NodeId supplier = supplier_of[static_cast<std::size_t>(id)];
      const bool live = supplier != kInvalidNode &&
                        std::find(dead_ids.begin(), dead_ids.end(), supplier) ==
                            dead_ids.end();
      ASSERT_EQ(loop.transfer_pending(id), live) << "trial " << trial << " id " << id;
      ASSERT_EQ(one_pass.transfer_pending(id), live) << "trial " << trial << " id " << id;
    }
    std::vector<NodeId> loop_order;
    std::vector<NodeId> one_pass_order;
    loop.sweep_timeouts(2.0, [&loop_order](NodeId s) { loop_order.push_back(s); });
    one_pass.sweep_timeouts(2.0, [&one_pass_order](NodeId s) { one_pass_order.push_back(s); });
    ASSERT_EQ(one_pass_order, loop_order) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Session-level fault behaviour
// ---------------------------------------------------------------------------

runner::ReplicationResult run_scenario(const char* name, double duration,
                                       double stable_from) {
  const auto scenario = runner::find_scenario(name);
  EXPECT_TRUE(scenario.has_value()) << name;
  auto spec = runner::spec_for(*scenario, /*seed=*/42);
  spec.duration = duration;
  spec.stable_from = stable_from;
  return runner::ExperimentRunner::run_one(spec);
}

TEST(FaultSession, HostileMixPopulatesCauseTaggedCounters) {
  // f5_static_small: 5% loss + bursts + a 10% crash at t=25 + a spike,
  // hardening on. Every new counter must light up, and the crash-stop
  // victims must ride the abrupt-leave path (no churn in the base, so
  // every abrupt leave IS a crash).
  const auto run = run_scenario("f5_static_small", 30.0, 20.0);
  const auto& s = run.stats;
  EXPECT_GT(s.deliveries_lost, 0u);
  EXPECT_EQ(s.deliveries_partitioned, 0u);
  EXPECT_GT(s.fault_crashes, 0u);
  EXPECT_EQ(s.abrupt_leaves, s.fault_crashes);
  EXPECT_EQ(s.graceful_leaves, 0u);
  EXPECT_GT(s.retry_backoffs, 0u);
  EXPECT_GT(s.suppliers_blacklisted, 0u);
  EXPECT_GT(s.stall_episodes, 0u);
  EXPECT_GE(s.stall_rounds, s.stall_episodes);
  // Liveness drops (dead receivers) are tagged separately from
  // injected loss.
  EXPECT_GT(s.deliveries_dropped, 0u);
}

TEST(FaultSession, PartitionTagsItsOwnCounter) {
  // fp_static_small cuts cross-region links over [20s, 30s) with no
  // link loss: only the partition counter may move.
  const auto run = run_scenario("fp_static_small", 35.0, 15.0);
  const auto& s = run.stats;
  EXPECT_GT(s.deliveries_partitioned, 0u);
  EXPECT_EQ(s.deliveries_lost, 0u);
  EXPECT_EQ(s.fault_crashes, 0u);
  EXPECT_GT(s.retry_backoffs, 0u);
}

TEST(FaultSession, LightLossKeepsTheOverlayHealthy) {
  // 1% iid loss with hardening: losses are tagged, continuity stays
  // in the same band as the fault-free base (recovery works).
  const auto run = run_scenario("f1_static_small", 45.0, 20.0);
  EXPECT_GT(run.stats.deliveries_lost, 0u);
  EXPECT_EQ(run.stats.fault_crashes, 0u);
  EXPECT_GT(run.stable_continuity, 0.75);
}

TEST(FaultSession, GracefulAndAbruptLeavesDifferInRecoveryCounters) {
  // Same churn process, same seeds — the ONLY difference is whether
  // departures hand their CDP backup over (graceful) or vanish
  // (abrupt). Abrupt departure destroys backups, so the on-demand
  // plane sees more "no replica found" outcomes; graceful hand-over
  // keeps them reachable. Thin replicas (k=1) magnify the effect.
  const auto run_with = [](double graceful_fraction) {
    trace::GeneratorConfig tc;
    tc.node_count = 200;
    tc.seed = 700;
    const auto snapshot = trace::generate_snapshot(tc);
    core::SystemConfig config;
    config.seed = 42;
    config.backup_replicas = 1;
    config.churn_enabled = true;
    config.churn.leave_fraction = 0.05;
    config.churn.join_fraction = 0.05;
    config.churn.graceful_fraction = graceful_fraction;
    core::Session session(config, snapshot);
    session.run(40.0);
    return session.stats();
  };
  const auto graceful = run_with(1.0);
  const auto abrupt = run_with(0.0);

  ASSERT_GT(graceful.graceful_leaves, 0u);
  EXPECT_EQ(graceful.abrupt_leaves, 0u);
  ASSERT_GT(abrupt.abrupt_leaves, 0u);
  EXPECT_EQ(abrupt.graceful_leaves, 0u);
  // The CDP recovery footprint: abrupt departures strand strictly more
  // pre-fetches without a reachable replica.
  EXPECT_GT(abrupt.prefetch_no_replica, graceful.prefetch_no_replica);
}

TEST(FaultSession, SteadyStateStaysAllocationLeanUnderFaults) {
  // With sustained link loss and hardening on, the retry/blacklist
  // tables stay bounded by RECENT failures (compaction sweeps stale
  // records) instead of accreting history.
  trace::GeneratorConfig tc;
  tc.node_count = 200;
  tc.seed = 21;
  const auto snapshot = trace::generate_snapshot(tc);
  core::SystemConfig config;
  config.seed = 24;
  config.threads = 4;
  config.fault.loss_rate = 0.02;
  config.harden = true;
  core::Session session(config, snapshot);
  session.run(15.0);  // warm-up: loss is already flowing
  session.run(25.0);  // steady state under sustained loss

  // Hardening state is live (the test is not vacuous) yet bounded: a
  // handful of in-window records per node, nowhere near stream history
  // (~450 segments by t=40; unswept tables would dwarf this bound).
  const auto fp = session.memory_footprint();
  EXPECT_GT(session.stats().retry_backoffs, 0u);
  EXPECT_LE(
      static_cast<double>(fp.retry_map_bytes + fp.blacklist_bytes) /
          static_cast<double>(fp.nodes),
      256.0);
}

TEST(FaultSession, ZeroFaultConfigInstallsNoInjector) {
  // A default config must not route sends through the injector at all:
  // the fault counters stay zero and no fault series is recorded.
  const auto run = run_scenario("static_small", 25.0, 15.0);
  const auto& s = run.stats;
  EXPECT_EQ(s.deliveries_lost, 0u);
  EXPECT_EQ(s.deliveries_partitioned, 0u);
  EXPECT_EQ(s.fault_crashes, 0u);
  EXPECT_EQ(s.retry_backoffs, 0u);
  EXPECT_EQ(s.suppliers_blacklisted, 0u);
}

TEST(FaultSession, FaultRunsAreThreadCountInvariant) {
  // The engine's core contract extended to faults: classification
  // happens at (serial) send time, so the full f5 mix — loss draws,
  // crash victims, spike delays — is byte-identical at any width.
  const auto scenario = runner::find_scenario("f5_static_small");
  ASSERT_TRUE(scenario.has_value());
  auto spec = runner::spec_for(*scenario, 42);
  spec.duration = 30.0;
  spec.stable_from = 20.0;
  const auto serial = runner::ExperimentRunner::run_one(spec);
  spec.config.threads = 4;
  const auto forked = runner::ExperimentRunner::run_one(spec);
  EXPECT_EQ(runner::result_fingerprint(serial),
            runner::result_fingerprint(forked));
  EXPECT_EQ(serial.stats.deliveries_lost, forked.stats.deliveries_lost);
  EXPECT_EQ(serial.stats.fault_crashes, forked.stats.fault_crashes);
  EXPECT_EQ(serial.stats.retry_backoffs, forked.stats.retry_backoffs);
}

}  // namespace
}  // namespace continu
