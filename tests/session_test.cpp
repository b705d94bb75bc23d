// Session construction, bookkeeping and determinism tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/continuity_model.hpp"
#include "core/config.hpp"
#include "core/session.hpp"
#include "net/latency_model.hpp"
#include "net/message.hpp"
#include "runner/scenario.hpp"
#include "trace/generator.hpp"

namespace continu::core {
namespace {

trace::TraceSnapshot small_trace(std::size_t n, std::uint64_t seed) {
  trace::GeneratorConfig config;
  config.node_count = n;
  config.seed = seed;
  return trace::generate_snapshot(config);
}

SystemConfig small_config(std::uint64_t seed) {
  SystemConfig config;
  config.seed = seed;
  return config;
}

TEST(Session, FitIdSpaceKeepsOccupancyLow) {
  EXPECT_EQ(fit_id_space(8192, 1000), 8192u);
  EXPECT_EQ(fit_id_space(8192, 8000), 16384u);   // 8000 > 0.85*8192
  EXPECT_EQ(fit_id_space(8192, 20000), 32768u);
}

TEST(Session, NodesGetUniqueIds) {
  const auto snapshot = small_trace(200, 1);
  Session session(small_config(5), snapshot);
  std::set<NodeId> ids;
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    EXPECT_TRUE(ids.insert(session.node(i).id()).second);
    EXPECT_LT(session.node(i).id(), session.space().size());
  }
  EXPECT_EQ(session.directory().size(), 200u);
}

TEST(Session, PartnerDegreeWithinBand) {
  // Partnerships are bidirectional overlay edges: every node holds at
  // least ~M = 5 partners (the augmentation guarantee) and at most 2M
  // (the acceptance cap).
  const auto snapshot = small_trace(200, 2);
  Session session(small_config(6), snapshot);
  // A few nodes can start below M when a hub's acceptance cap drops
  // edges; the repair loop refills them within a few rounds.
  session.run(5.0);
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    EXPECT_GE(session.node(i).neighbors().size(), 4u) << i;
    EXPECT_LE(session.node(i).neighbors().size(), 10u) << i;
  }
}

TEST(Session, DhtTablesPopulatedAndValid) {
  const auto snapshot = small_trace(300, 3);
  Session session(small_config(7), snapshot);
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    const auto& table = session.node(i).dht_peers();
    EXPECT_TRUE(table.invariants_hold()) << i;
    // With 300 nodes in an 8192 space, most high levels are populated.
    EXPECT_GE(table.peers().size(), 4u) << i;
  }
}

TEST(Session, SourceConfiguration) {
  const auto snapshot = small_trace(100, 4);
  auto config = small_config(8);
  Session session(config, snapshot);
  EXPECT_TRUE(session.source().is_source());
  EXPECT_DOUBLE_EQ(session.source().inbound_rate(), 0.0);
  EXPECT_DOUBLE_EQ(session.source().outbound_rate(), kSourceOutbound);
}

TEST(Session, HeterogeneousRatesWithinRange) {
  const auto snapshot = small_trace(200, 5);
  auto config = small_config(9);
  Session session(config, snapshot);
  bool varied = false;
  double first = -1.0;
  for (std::size_t i = 1; i < session.node_count(); ++i) {
    const double rate = session.node(i).inbound_rate();
    EXPECT_GE(rate, kInboundMin);
    EXPECT_LE(rate, kInboundMax);
    if (first < 0.0) {
      first = rate;
    } else if (rate != first) {
      varied = true;
    }
  }
  EXPECT_TRUE(varied);
}

TEST(Session, HomogeneousRatesAllEqual) {
  const auto snapshot = small_trace(100, 6);
  auto config = small_config(10);
  config.heterogeneous_bandwidth = false;
  Session session(config, snapshot);
  // Every node gets the distribution mean (~15 segments/s = 450 Kbps).
  const double first = session.node(1).inbound_rate();
  EXPECT_NEAR(first, kMeanInbound, 0.6);
  for (std::size_t i = 2; i < session.node_count(); ++i) {
    EXPECT_DOUBLE_EQ(session.node(i).inbound_rate(), first);
  }
}

TEST(Session, DerivesUrgentLineInputsFromTheTrace) {
  // t_hop is the trace's mean one-hop latency and t_fetch the eq. 6-7
  // estimate for the trace's node count; every node, joiners included,
  // starts its urgent line from those two values.
  const auto snapshot = small_trace(150, 12);
  auto config = small_config(13);
  config.churn_enabled = true;
  Session session(config, snapshot);
  session.run(10.0);
  ASSERT_GT(session.node_count(), snapshot.node_count()) << "no joiner to check";

  const double t_hop =
      net::LatencyModel::from_trace(snapshot, /*floor_ms=*/5.0, /*grid_ms=*/0.0)
          .average_latency_ms() /
      1000.0;
  const double t_fetch = analysis::expected_fetch_time_s(
      static_cast<double>(snapshot.node_count()), t_hop);
  const double p = static_cast<double>(config.playback_rate);
  const double b = static_cast<double>(kBufferCapacity);
  const double step = p * t_hop / b;
  const double lower = std::min(p / b * std::max(kSchedulingPeriod, t_fetch), 1.0);
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    const UrgentLine& line = session.node(i).urgent_line();
    EXPECT_DOUBLE_EQ(line.step(), step) << "node " << i;
    EXPECT_DOUBLE_EQ(line.lower_bound(), lower) << "node " << i;
  }
}

TEST(Session, EmissionTracksClock) {
  const auto snapshot = small_trace(100, 7);
  Session session(small_config(11), snapshot);
  session.run(10.0);
  // p = 10 segments/s for 10 s.
  EXPECT_NEAR(static_cast<double>(session.emitted()), 100.0, 2.0);
  EXPECT_EQ(session.stats().segments_emitted,
            static_cast<std::uint64_t>(session.emitted()));
}

TEST(Session, PlaybackEventuallyStartsEverywhere) {
  const auto snapshot = small_trace(150, 8);
  Session session(small_config(12), snapshot);
  session.run(30.0);
  std::size_t started = 0;
  for (std::size_t i = 1; i < session.node_count(); ++i) {
    if (session.node(i).buffer().started()) ++started;
  }
  EXPECT_GT(started, 140u);
}

TEST(Session, ContinuityRecordedEveryRound) {
  const auto snapshot = small_trace(100, 9);
  Session session(small_config(13), snapshot);
  session.run(20.0);
  EXPECT_EQ(session.continuity().rounds().size(), 20u);
  for (const auto& round : session.continuity().rounds()) {
    EXPECT_EQ(round.counted_nodes, 99u);  // all alive minus the source
    EXPECT_LE(round.continuous_nodes, round.counted_nodes);
  }
}

TEST(Session, TrafficClassesAllCharged) {
  const auto snapshot = small_trace(150, 10);
  Session session(small_config(14), snapshot);
  session.run(25.0);
  const auto& traffic = session.traffic();
  EXPECT_GT(traffic.bits(net::TrafficClass::kControl), 0u);
  EXPECT_GT(traffic.bits(net::TrafficClass::kRequest), 0u);
  EXPECT_GT(traffic.bits(net::TrafficClass::kData), 0u);
}

TEST(Session, DeterministicForSameSeed) {
  const auto snapshot = small_trace(120, 11);
  const auto config = small_config(15);
  Session a(config, snapshot);
  Session b(config, snapshot);
  a.run(15.0);
  b.run(15.0);
  ASSERT_EQ(a.continuity().rounds().size(), b.continuity().rounds().size());
  for (std::size_t i = 0; i < a.continuity().rounds().size(); ++i) {
    EXPECT_EQ(a.continuity().rounds()[i].continuous_nodes,
              b.continuity().rounds()[i].continuous_nodes);
  }
  EXPECT_EQ(a.stats().segments_delivered, b.stats().segments_delivered);
  EXPECT_EQ(a.stats().prefetch_launched, b.stats().prefetch_launched);
  EXPECT_EQ(a.traffic().bits(net::TrafficClass::kData),
            b.traffic().bits(net::TrafficClass::kData));
}

TEST(Session, DifferentSeedsDiverge) {
  const auto snapshot = small_trace(120, 12);
  Session a(small_config(1), snapshot);
  Session b(small_config(2), snapshot);
  a.run(15.0);
  b.run(15.0);
  EXPECT_NE(a.stats().segments_delivered, b.stats().segments_delivered);
}

TEST(Session, DeliveredAtMostRequestedPlusPrefetched) {
  const auto snapshot = small_trace(100, 13);
  Session session(small_config(16), snapshot);
  session.run(20.0);
  const auto& stats = session.stats();
  EXPECT_GT(stats.segments_delivered, 0u);
  // Duplicates happen BY DESIGN (the pre-fetch channel races gossip —
  // the paper's "repeated data" case) but must stay a modest fraction.
  EXPECT_LT(static_cast<double>(stats.duplicate_deliveries),
            0.15 * static_cast<double>(stats.segments_delivered));
}

TEST(Session, CollectorSeriesPresent) {
  const auto snapshot = small_trace(100, 14);
  Session session(small_config(17), snapshot);
  session.run(10.0);
  EXPECT_TRUE(session.collector().has("continuity"));
  EXPECT_TRUE(session.collector().has("control_overhead_round"));
  EXPECT_TRUE(session.collector().has("prefetch_overhead_round"));
  EXPECT_TRUE(session.collector().has("alive_nodes"));
}

TEST(Session, ChurnChangesMembership) {
  const auto snapshot = small_trace(200, 15);
  auto config = small_config(18);
  config.churn_enabled = true;
  Session session(config, snapshot);
  session.run(20.0);
  EXPECT_GT(session.stats().joins, 0u);
  EXPECT_GT(session.stats().graceful_leaves + session.stats().abrupt_leaves, 0u);
  // Population stays near 200 (5% in, 5% out).
  EXPECT_NEAR(static_cast<double>(session.alive_count()), 200.0, 40.0);
  // Directory matches alive set.
  std::size_t alive = 0;
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    if (session.node(i).alive()) ++alive;
  }
  EXPECT_EQ(session.directory().size(), alive);
}

TEST(Session, IdTableHoldsExactlyTheAliveNodes) {
  // index_of answers from the id table alone, without reading the Node;
  // that is sound only while the table holds exactly the alive nodes.
  // Joins, graceful and abrupt leaves and a crash-stop event all move
  // membership, so check both directions at several horizons.
  const auto snapshot = small_trace(200, 22);
  auto config = small_config(23);
  config.churn_enabled = true;
  config.fault.crashes.push_back({/*time=*/12.0, /*fraction=*/0.10});
  Session session(config, snapshot);

  const auto check = [&session](SimTime horizon) {
    // Count the alive nodes from the Node liveness bits: alive_count()
    // reads the directory, so it cannot stand in for them here.
    std::size_t alive = 0;
    for (std::size_t i = 0; i < session.node_count(); ++i) {
      const auto& node = session.node(i);
      if (node.alive()) ++alive;
      const auto idx = session.index_of(node.id());
      EXPECT_EQ(node.alive(), idx == std::optional<std::size_t>(i))
          << "node " << i << " at t=" << horizon;
    }
    EXPECT_EQ(session.directory().size(), alive) << "at t=" << horizon;
    std::size_t mapped = 0;
    for (NodeId id = 0; id < session.space().size(); ++id) {
      const auto idx = session.index_of(id);
      if (!idx.has_value()) continue;
      ++mapped;
      ASSERT_LT(*idx, session.node_count());
      EXPECT_TRUE(session.node(*idx).alive()) << "id " << id << " at t=" << horizon;
      EXPECT_EQ(session.node(*idx).id(), id) << "at t=" << horizon;
    }
    EXPECT_EQ(mapped, alive) << "at t=" << horizon;
  };
  check(0.0);
  for (const SimTime horizon : {6.0, 12.5, 20.0, 30.0}) {
    session.run(horizon);
    check(horizon);
  }

  // Not vacuous: every way in and out of the table happened.
  const auto& s = session.stats();
  EXPECT_GT(s.joins, 0u);
  EXPECT_GT(s.fault_crashes, 0u);
  EXPECT_GT(s.graceful_leaves, 0u);
  EXPECT_GT(s.abrupt_leaves, s.fault_crashes);
}

TEST(Session, DeadNodesStopParticipating) {
  const auto snapshot = small_trace(200, 16);
  auto config = small_config(19);
  config.churn_enabled = true;
  config.churn.leave_fraction = 0.10;
  config.churn.join_fraction = 0.0;
  Session session(config, snapshot);
  session.run(15.0);
  EXPECT_LT(session.alive_count(), 200u);
  // Continuity counts only alive nodes.
  const auto& last = session.continuity().rounds().back();
  EXPECT_EQ(last.counted_nodes, session.alive_count() - 1);  // minus source
}

TEST(Session, GracefulLeaverHandsOverBackups) {
  const auto snapshot = small_trace(150, 17);
  auto config = small_config(20);
  config.churn_enabled = true;
  config.churn.graceful_fraction = 1.0;  // all leaves graceful
  Session session(config, snapshot);
  session.run(20.0);
  EXPECT_GT(session.stats().graceful_leaves, 0u);
  EXPECT_EQ(session.stats().abrupt_leaves, 0u);
  EXPECT_GT(session.traffic().bits(net::TrafficClass::kMaintenance), 0u);
}

TEST(Session, NeighborRepairKeepsDegreeUnderChurn) {
  const auto snapshot = small_trace(200, 18);
  auto config = small_config(21);
  config.churn_enabled = true;
  Session session(config, snapshot);
  session.run(25.0);
  std::size_t deficient = 0;
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    const auto& node = session.node(i);
    if (!node.alive()) continue;
    // No alive node should keep pointing at dead neighbors for long;
    // allow the most recent joiners a little slack.
    std::size_t alive_neighbors = 0;
    for (const NodeId id : node.neighbors().ids()) {
      const auto idx = session.index_of(id);
      if (idx.has_value() && session.node(*idx).alive()) ++alive_neighbors;
    }
    if (alive_neighbors < 3) ++deficient;
  }
  EXPECT_LT(deficient, session.alive_count() / 10);
}

TEST(Session, BandwidthDistributionMeans) {
  // Inbound follows the paper's skewed draw (mean ~ 450 Kbps = 15
  // segments/s); outbound is uniform on the same range (mean 21.5).
  const auto snapshot = small_trace(400, 18);
  Session session(small_config(21), snapshot);
  double in_sum = 0.0;
  double out_sum = 0.0;
  for (std::size_t i = 1; i < session.node_count(); ++i) {
    in_sum += session.node(i).inbound_rate();
    out_sum += session.node(i).outbound_rate();
  }
  const double n = static_cast<double>(session.node_count() - 1);
  EXPECT_NEAR(in_sum / n, 15.0, 1.0);
  EXPECT_NEAR(out_sum / n, 21.5, 1.2);
}

TEST(Session, StallMechanismSelfHeals) {
  // Regression guard for the wait-then-skip player: configurations that
  // start shallow (everyone anchored near the live edge) must sink to a
  // sustainable depth and RECOVER, not stay pinned at low continuity.
  // Trace seed 56 historically converged to ~0.15 without the stall
  // mechanism.
  trace::GeneratorConfig tc;
  tc.node_count = 400;
  tc.seed = 56;
  const auto snapshot = trace::generate_snapshot(tc);
  SystemConfig config;
  config.seed = 9;
  Session session(config, snapshot);
  session.run(45.0);
  const double late = session.continuity().stable_mean(30.0);
  EXPECT_GT(late, 0.5);
}

TEST(Session, GridMediaPushesSegments) {
  const auto snapshot = small_trace(150, 19);
  auto config = small_config(22);
  config.scheduler = SchedulerKind::kGridMediaPushPull;
  Session session(config, snapshot);
  session.run(25.0);
  // Pushes happen and carry a real share of the traffic.
  EXPECT_GT(session.stats().segments_pushed, 100u);
  // The push plane never touches the DHT.
  EXPECT_EQ(session.stats().prefetch_launched, 0u);
  // Push relays die out at holders, so duplicates exist but are bounded.
  EXPECT_LT(session.stats().duplicate_deliveries,
            session.stats().segments_delivered / 2);
  // The system still streams.
  EXPECT_GT(session.continuity().stable_mean(15.0), 0.2);
}

TEST(Session, PushPullRedundancyExceedsPull) {
  // GridMedia's documented cost (paper Section 2): pushing brings
  // redundant transmissions that pure pull avoids.
  const auto snapshot = small_trace(150, 20);
  auto base = small_config(23);
  base.scheduler = SchedulerKind::kCoolStreaming;
  Session pull(base, snapshot);
  pull.run(25.0);
  base.scheduler = SchedulerKind::kGridMediaPushPull;
  Session push(base, snapshot);
  push.run(25.0);
  const auto ratio = [](const SessionStats& s) {
    return static_cast<double>(s.duplicate_deliveries) /
           static_cast<double>(std::max<std::uint64_t>(s.segments_delivered, 1));
  };
  EXPECT_GT(ratio(push.stats()), ratio(pull.stats()));
}

// ---------------------------------------------------------------------------
// Memory footprint / allocation discipline
// ---------------------------------------------------------------------------

TEST(Session, MemoryFootprintSectionsAreConsistent) {
  const auto snapshot = small_trace(200, 22);
  Session session(small_config(25), snapshot);
  session.run(15.0);
  const auto fp = session.memory_footprint();
  EXPECT_EQ(fp.nodes, session.node_count());
  EXPECT_EQ(fp.neighbor_bytes, fp.neighbor_set_bytes + fp.overheard_bytes);
  EXPECT_EQ(fp.dht_bytes, fp.peer_table_bytes + fp.backup_bytes);
  EXPECT_EQ(fp.inflight_bytes, fp.transfer_map_bytes + fp.prefetch_map_bytes +
                                   fp.tag_set_bytes + fp.rate_table_bytes +
                                   fp.retry_map_bytes + fp.blacklist_bytes);
  // engine_bytes is reported beside the per-node sections, never in
  // them: the per-node budgets measure node state only.
  EXPECT_EQ(fp.total_bytes(), fp.buffer_bytes + fp.neighbor_bytes +
                                  fp.dht_bytes + fp.inflight_bytes);
  EXPECT_EQ(fp.engine_bytes, session.simulator().queue_bytes());
  EXPECT_GT(fp.engine_bytes, 0u);
  EXPECT_GT(fp.per_node_bytes(), 0.0);
  // The flat-container rework's contract: a saturated node budget well
  // under the old ~2.8 KB. Generous bound so trace variance never
  // flakes; the CI budget gate enforces the tight number at static_8k.
  EXPECT_LT(fp.per_node_bytes(), 2200.0);
}

TEST(Session, PrefetchOpPoolDrainsUnderChurnAndCrashes) {
  // f5_q1_static_small (5% loss + bursts + a 10% crash-stop at t=25 on
  // the 1 ms grid) with churn on top: DHT lookups die mid-route to
  // injected loss and to the liveness filter (a hop or reply addressed
  // to a node that left). Every pooled PrefetchOp must come back once
  // the in-flight messages have drained, however its lookups ended.
  const auto scenario = runner::find_scenario("f5_q1_static_small");
  ASSERT_TRUE(scenario.has_value());
  SystemConfig config = scenario->make_config(42);
  config.churn_enabled = true;
  const auto snapshot = trace::generate_snapshot(scenario->make_trace());
  Session session(config, snapshot);
  session.run(30.0);
  EXPECT_GT(session.live_prefetch_ops(), 0u) << "no lookup in flight at the cut";

  session.stop();
  session.simulator().run_all();
  EXPECT_EQ(session.simulator().pending(), 0u);
  const auto& stats = session.stats();
  EXPECT_GT(stats.prefetch_launched, 0u);
  EXPECT_GT(stats.abrupt_leaves, 0u);
  EXPECT_GT(stats.deliveries_dropped, 0u);
  EXPECT_GT(stats.deliveries_lost, 0u);
  EXPECT_EQ(session.live_prefetch_ops(), 0u);
}

}  // namespace
}  // namespace continu::core
