// Unit and property tests for the DHT substrate: ID space, peer table,
// ring directory, greedy routing (incl. the appendix hop bound) and the
// VoD backup store.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "dht/backup_store.hpp"
#include "dht/id_space.hpp"
#include "dht/peer_table.hpp"
#include "dht/ring_directory.hpp"
#include "dht/routing_experiment.hpp"
#include "util/rng.hpp"

namespace continu::dht {
namespace {

// ---------------------------------------------------------------------------
// IdSpace
// ---------------------------------------------------------------------------

TEST(IdSpace, RequiresPowerOfTwo) {
  EXPECT_THROW(IdSpace(1000), std::invalid_argument);
  EXPECT_THROW(IdSpace(0), std::invalid_argument);
  EXPECT_NO_THROW(IdSpace(8192));
}

TEST(IdSpace, LevelsAreLogN) {
  EXPECT_EQ(IdSpace(8192).levels(), 13u);
  EXPECT_EQ(IdSpace(16).levels(), 4u);
}

TEST(IdSpace, LevelOfMatchesDefinition) {
  const IdSpace space(16);
  // Peer at distance d has level floor(log2 d) + 1.
  EXPECT_EQ(space.level_of(0, 1), 1u);   // d=1 in [1,2)
  EXPECT_EQ(space.level_of(0, 2), 2u);   // d=2 in [2,4)
  EXPECT_EQ(space.level_of(0, 3), 2u);
  EXPECT_EQ(space.level_of(0, 4), 3u);   // d=4 in [4,8)
  EXPECT_EQ(space.level_of(0, 8), 4u);   // d=8 in [8,16)
  EXPECT_EQ(space.level_of(0, 15), 4u);
  EXPECT_EQ(space.level_of(0, 0), 0u);   // self
}

TEST(IdSpace, LevelOfWrapsRing) {
  const IdSpace space(16);
  // From node 14, node 1 is at clockwise distance 3 -> level 2.
  EXPECT_EQ(space.level_of(14, 1), 2u);
}

TEST(IdSpace, LevelArcBoundaries) {
  const IdSpace space(16);
  const auto [lo1, hi1] = space.level_arc(0, 1);
  EXPECT_EQ(lo1, 1u);
  EXPECT_EQ(hi1, 2u);
  const auto [lo4, hi4] = space.level_arc(0, 4);
  EXPECT_EQ(lo4, 8u);
  EXPECT_EQ(hi4, 0u);  // wraps to the owner: [8, 16) == [8, 0)
}

TEST(IdSpace, LevelArcsPartitionNonSelfIds) {
  const IdSpace space(64);
  for (NodeId owner : {0u, 17u, 63u}) {
    std::map<NodeId, int> covered;
    for (unsigned level = 1; level <= space.levels(); ++level) {
      const auto [lo, hi] = space.level_arc(owner, level);
      for (std::uint64_t x = 0; x < space.size(); ++x) {
        if (util::in_clockwise_arc(x, lo, hi, space.size())) {
          ++covered[static_cast<NodeId>(x)];
        }
      }
    }
    for (std::uint64_t x = 0; x < space.size(); ++x) {
      if (x == owner) {
        EXPECT_EQ(covered[static_cast<NodeId>(x)], 0) << "owner " << owner;
      } else {
        EXPECT_EQ(covered[static_cast<NodeId>(x)], 1)
            << "x=" << x << " owner=" << owner;
      }
    }
  }
}

TEST(IdSpace, HopUpperBoundMatchesAppendix) {
  const IdSpace space(8192);
  // log N / log(4/3) with N = 8192: log2 N = 13, 13/log2(4/3) ~= 31.3.
  EXPECT_NEAR(space.hop_upper_bound(), std::log(8192.0) / std::log(4.0 / 3.0), 1e-9);
  EXPECT_NEAR(space.hop_upper_bound(), 2.41 * 13.0, 1.0);
}

TEST(IdSpace, BackupTargetMatchesHash) {
  const IdSpace space(8192);
  EXPECT_EQ(space.backup_target(77, 3), util::backup_target(77, 3, 8192));
}

// ---------------------------------------------------------------------------
// PeerTable
// ---------------------------------------------------------------------------

TEST(PeerTable, OfferInstallsAtCorrectLevel) {
  const IdSpace space(16);
  PeerTable table(space, 0);
  EXPECT_TRUE(table.offer(3, 10.0, 0.0));  // level 2
  const auto peer = table.peer_at(2);
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->id, 3u);
  EXPECT_TRUE(table.invariants_hold());
}

TEST(PeerTable, OfferSelfRejected) {
  const IdSpace space(16);
  PeerTable table(space, 5);
  EXPECT_FALSE(table.offer(5, 1.0, 0.0));
}

TEST(PeerTable, FresherInformationWins) {
  const IdSpace space(16);
  PeerTable table(space, 0);
  table.offer(2, 10.0, 0.0);
  EXPECT_TRUE(table.offer(3, 50.0, 1.0));  // same level 2, fresher
  EXPECT_EQ(table.peer_at(2)->id, 3u);
}

TEST(PeerTable, EqualFreshnessLowerLatencyWins) {
  const IdSpace space(16);
  PeerTable table(space, 0);
  table.offer(2, 10.0, 0.0);
  EXPECT_FALSE(table.offer(3, 50.0, 0.0));  // same time, worse latency
  EXPECT_EQ(table.peer_at(2)->id, 2u);
  EXPECT_TRUE(table.offer(3, 5.0, 0.0));    // same time, better latency
  EXPECT_EQ(table.peer_at(2)->id, 3u);
}

TEST(PeerTable, ReofferRefreshes) {
  const IdSpace space(16);
  PeerTable table(space, 0);
  table.offer(2, 10.0, 0.0);
  EXPECT_FALSE(table.offer(2, 8.0, 5.0));  // same peer: refresh, not change
  EXPECT_DOUBLE_EQ(table.peer_at(2)->latency_ms, 8.0);
  EXPECT_DOUBLE_EQ(table.peer_at(2)->refreshed_at, 5.0);
}

TEST(PeerTable, EvictClearsSlot) {
  const IdSpace space(16);
  PeerTable table(space, 0);
  table.offer(2, 10.0, 0.0);
  table.evict(2);
  EXPECT_FALSE(table.peer_at(2).has_value());
}

TEST(PeerTable, NextHopChoosesClosestToTarget) {
  const IdSpace space(16);
  PeerTable table(space, 0);
  table.offer(1, 1.0, 0.0);   // level 1
  table.offer(2, 1.0, 0.0);   // level 2
  table.offer(5, 1.0, 0.0);   // level 3
  table.offer(9, 1.0, 0.0);   // level 4
  // Target 11: distances - from 9: 2, from 5: 6, from 0: 11 -> pick 9.
  EXPECT_EQ(table.next_hop(11).value(), 9u);
  // Target 1: the level-1 peer IS the target.
  EXPECT_EQ(table.next_hop(1).value(), 1u);
}

TEST(PeerTable, NextHopNoneWhenOwnerClosest) {
  const IdSpace space(16);
  PeerTable table(space, 0);
  table.offer(9, 1.0, 0.0);
  // Target 0 is the owner itself; no peer improves on distance 0.
  EXPECT_FALSE(table.next_hop(0).has_value());
  // Target 8: owner distance 8, peer 9 distance 15 -> stay.
  EXPECT_FALSE(table.next_hop(8).has_value());
}

TEST(PeerTable, ClosestClockwisePeer) {
  const IdSpace space(16);
  PeerTable table(space, 10);
  table.offer(14, 1.0, 0.0);
  table.offer(3, 1.0, 0.0);  // distance 9
  EXPECT_EQ(table.closest_clockwise_peer().value(), 14u);
  EXPECT_FALSE(PeerTable(space, 10).closest_clockwise_peer().has_value());
}

// The level scans next_hop and closest_clockwise_peer ran before the
// occupancy mask, kept as the reference for the O(1) forms.
std::optional<NodeId> scan_next_hop(const IdSpace& space, const PeerTable& table,
                                    NodeId target) {
  const std::uint64_t own_dist = space.distance(table.owner(), target);
  std::optional<NodeId> best;
  std::uint64_t best_dist = own_dist;
  for (const DhtPeer& peer : table.peers()) {
    const std::uint64_t d = space.distance(peer.id, target);
    if (d < best_dist) {
      best_dist = d;
      best = peer.id;
    }
  }
  return best;
}

std::optional<NodeId> scan_closest_clockwise(const IdSpace& space,
                                             const PeerTable& table) {
  std::optional<NodeId> best;
  std::uint64_t best_dist = space.size();
  for (const DhtPeer& peer : table.peers()) {
    const std::uint64_t d = space.distance(table.owner(), peer.id);
    if (d != 0 && d < best_dist) {
      best_dist = d;
      best = peer.id;
    }
  }
  return best;
}

// Exhaustive on a 64-id space: every owner, random fillings built by
// offer / evict / evict_if, and after every change every target.
TEST(PeerTable, NextHopMatchesLevelScanExhaustively) {
  const IdSpace space(64);
  util::Rng rng(2024);
  std::uint64_t checked = 0;
  for (NodeId owner = 0; owner < 64; ++owner) {
    for (int filling = 0; filling < 24; ++filling) {
      PeerTable table(space, owner);
      for (int step = 0; step < 16; ++step) {
        const auto id = static_cast<NodeId>(rng.next_below(64));
        switch (rng.next_below(6)) {
          case 0:
            table.evict(id);
            break;
          case 1: {
            const auto parity = static_cast<NodeId>(rng.next_below(2));
            table.evict_if([parity](NodeId peer) { return peer % 2 == parity; });
            break;
          }
          default:
            table.offer(id, static_cast<double>(rng.next_below(50)),
                        static_cast<double>(rng.next_below(4)));
        }
        ASSERT_EQ(table.closest_clockwise_peer(), scan_closest_clockwise(space, table))
            << "owner " << owner;
        for (NodeId target = 0; target < 64; ++target) {
          ASSERT_EQ(table.next_hop(target), scan_next_hop(space, table, target))
              << "owner " << owner << " target " << target;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 64u * 24u * 16u * 64u);
}

TEST(PeerTable, RejectsMoreThan32Levels) {
  const IdSpace wide(std::uint64_t{1} << 33);
  EXPECT_THROW(PeerTable(wide, 0), std::invalid_argument);
  const IdSpace widest(std::uint64_t{1} << 32);
  EXPECT_EQ(PeerTable(widest, 0).levels(), 32u);
}

// ---------------------------------------------------------------------------
// RingDirectory
// ---------------------------------------------------------------------------

TEST(RingDirectory, InsertEraseContains) {
  const IdSpace space(64);
  RingDirectory dir(space);
  dir.insert(5);
  EXPECT_TRUE(dir.contains(5));
  EXPECT_THROW(dir.insert(5), std::invalid_argument);
  dir.erase(5);
  EXPECT_FALSE(dir.contains(5));
}

TEST(RingDirectory, OwnerIsCounterClockwiseClosest) {
  const IdSpace space(64);
  RingDirectory dir(space);
  for (const NodeId id : {10u, 20u, 40u}) dir.insert(id);
  EXPECT_EQ(dir.owner_of(25).value(), 20u);
  EXPECT_EQ(dir.owner_of(20).value(), 20u);  // exact hit owns itself
  EXPECT_EQ(dir.owner_of(5).value(), 40u);   // wraps counter-clockwise
  EXPECT_EQ(dir.owner_of(63).value(), 40u);
}

TEST(RingDirectory, SuccessorPredecessor) {
  const IdSpace space(64);
  RingDirectory dir(space);
  for (const NodeId id : {10u, 20u, 40u}) dir.insert(id);
  EXPECT_EQ(dir.successor_of(10).value(), 20u);
  EXPECT_EQ(dir.successor_of(40).value(), 10u);  // wraps
  EXPECT_EQ(dir.predecessor_of(10).value(), 40u);  // wraps
  EXPECT_EQ(dir.predecessor_of(40).value(), 20u);
  // For a non-member id, neighbors in ring order still make sense.
  EXPECT_EQ(dir.successor_of(15).value(), 20u);
  EXPECT_EQ(dir.predecessor_of(15).value(), 10u);
}

TEST(RingDirectory, SingleMemberHasNoNeighbors) {
  const IdSpace space(64);
  RingDirectory dir(space);
  dir.insert(7);
  EXPECT_FALSE(dir.successor_of(7).has_value());
  EXPECT_FALSE(dir.predecessor_of(7).has_value());
  EXPECT_EQ(dir.owner_of(50).value(), 7u);
}

TEST(RingDirectory, EmptyDirectory) {
  const IdSpace space(64);
  RingDirectory dir(space);
  EXPECT_FALSE(dir.owner_of(3).has_value());
  EXPECT_TRUE(dir.empty());
}

// ---------------------------------------------------------------------------
// Routing experiment (paper Figure 3 machinery + appendix bound)
// ---------------------------------------------------------------------------

TEST(Routing, FullRingAlwaysSucceeds) {
  const IdSpace space(256);
  util::Rng rng(1);
  const RoutingExperiment exp(space, 256, rng);
  util::Rng qrng(2);
  const auto stats = exp.run(500, qrng);
  EXPECT_DOUBLE_EQ(stats.success_rate, 1.0);
  EXPECT_GT(stats.average_hops, 1.0);
}

TEST(Routing, HopsStayUnderAppendixBound) {
  const IdSpace space(1024);
  util::Rng rng(3);
  const RoutingExperiment exp(space, 700, rng);
  const auto bound = space.hop_upper_bound();
  util::Rng qrng(4);
  for (int q = 0; q < 300; ++q) {
    const NodeId start = exp.node_ids()[qrng.next_below(exp.node_ids().size())];
    const auto target = static_cast<NodeId>(qrng.next_below(space.size()));
    const auto result = exp.route(start, target);
    EXPECT_LE(static_cast<double>(result.hops), bound + 1.0);
  }
}

TEST(Routing, AverageHopsNearHalfLogN) {
  // Paper Fig. 3: average hops ~ log2(n)/2.
  const IdSpace space(8192);
  util::Rng rng(5);
  const RoutingExperiment exp(space, 4096, rng);
  util::Rng qrng(6);
  const auto stats = exp.run(2000, qrng);
  const double expected = std::log2(4096.0) / 2.0;  // = 6
  EXPECT_NEAR(stats.average_hops, expected, 1.5);
  EXPECT_GT(stats.success_rate, 0.95);
}

TEST(Routing, SparseRingStillMostlySucceeds) {
  // n << N: the paper reports success close to 1.0 even when sparse.
  const IdSpace space(8192);
  util::Rng rng(7);
  const RoutingExperiment exp(space, 500, rng);
  util::Rng qrng(8);
  const auto stats = exp.run(1000, qrng);
  EXPECT_GT(stats.success_rate, 0.8);
}

TEST(Routing, PartiallyFilledTablesDegradeGracefully) {
  const IdSpace space(1024);
  util::Rng rng(9);
  const RoutingExperiment full(space, 512, rng);
  util::Rng rng2(9);
  const RoutingExperiment holey(space, 512, rng2, /*fill_probability=*/0.5);
  util::Rng qa(10);
  util::Rng qb(10);
  const auto stats_full = full.run(800, qa);
  const auto stats_holey = holey.run(800, qb);
  EXPECT_GE(stats_full.success_rate, stats_holey.success_rate);
  EXPECT_GT(stats_holey.success_rate, 0.3);
}

TEST(Routing, GreedyProgressMonotone) {
  // Along any successful route, clockwise distance to the target must
  // strictly decrease hop over hop.
  const IdSpace space(512);
  util::Rng rng(11);
  const RoutingExperiment exp(space, 300, rng);
  util::Rng qrng(12);
  for (int q = 0; q < 200; ++q) {
    const NodeId start = exp.node_ids()[qrng.next_below(exp.node_ids().size())];
    const auto target = static_cast<NodeId>(qrng.next_below(space.size()));
    const auto result = exp.route(start, target);
    for (std::size_t i = 1; i < result.path.size(); ++i) {
      EXPECT_LT(space.distance(result.path[i], target),
                space.distance(result.path[i - 1], target));
    }
  }
}

TEST(Routing, RouteToOwnIdTerminatesImmediately) {
  const IdSpace space(256);
  util::Rng rng(13);
  const RoutingExperiment exp(space, 128, rng);
  const NodeId start = exp.node_ids().front();
  const auto result = exp.route(start, start);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.hops, 0u);
}

// Parameterized sweep mirroring Fig. 3's x-axis.
class RoutingScale : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoutingScale, SuccessHighAcrossOccupancies) {
  const IdSpace space(8192);
  util::Rng rng(GetParam());
  const RoutingExperiment exp(space, GetParam(), rng);
  util::Rng qrng(99);
  const auto stats = exp.run(600, qrng);
  EXPECT_GT(stats.success_rate, 0.85) << "n=" << GetParam();
  EXPECT_LT(stats.average_hops, space.hop_upper_bound());
}

INSTANTIATE_TEST_SUITE_P(Occupancies, RoutingScale,
                         ::testing::Values(1000u, 2000u, 4000u, 8000u));

// ---------------------------------------------------------------------------
// BackupStore
// ---------------------------------------------------------------------------

TEST(BackupStore, ResponsibilityFollowsHash) {
  const IdSpace space(64);
  BackupStore store(space, /*owner=*/10, /*replicas=*/4);
  // Find a segment with a replica target in [10, 20).
  SegmentId covered = -1;
  for (SegmentId id = 0; id < 2000; ++id) {
    bool hit = false;
    for (unsigned r = 1; r <= 4; ++r) {
      const auto t = space.backup_target(id, r);
      hit |= (t >= 10 && t < 20);
    }
    if (hit) {
      covered = id;
      break;
    }
  }
  ASSERT_GE(covered, 0);
  EXPECT_TRUE(store.responsible_for(covered, 20));
  EXPECT_TRUE(store.offer(covered, 20));
  EXPECT_TRUE(store.has(covered));
}

TEST(BackupStore, NotResponsibleOutsideArc) {
  const IdSpace space(64);
  BackupStore store(space, 10, 4);
  for (SegmentId id = 0; id < 200; ++id) {
    bool any_inside = false;
    for (unsigned r = 1; r <= 4; ++r) {
      const auto t = space.backup_target(id, r);
      any_inside |= util::in_clockwise_arc(t, 10, 12, 64);
    }
    EXPECT_EQ(store.responsible_for(id, 12), any_inside) << id;
  }
}

TEST(BackupStore, ResponsibilityPartition) {
  // Across a full ring of owners whose arcs tile the space, every
  // segment replica lands with exactly the owners whose arc covers a
  // target — so each segment is stored by >= 1 and <= k owners.
  const IdSpace space(256);
  const std::vector<NodeId> owners{0, 50, 100, 150, 200, 250};
  for (SegmentId id = 0; id < 300; ++id) {
    int responsible = 0;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      const NodeId arc_end = owners[(i + 1) % owners.size()];
      BackupStore store(space, owners[i], 4);
      if (store.responsible_for(id, arc_end)) ++responsible;
    }
    EXPECT_GE(responsible, 1) << id;
    EXPECT_LE(responsible, 4) << id;
  }
}

TEST(BackupStore, FullRingArcCoversEverything) {
  const IdSpace space(64);
  BackupStore store(space, 10, 1);
  // arc_end == owner means the whole ring (single-node overlay).
  for (SegmentId id = 0; id < 50; ++id) {
    EXPECT_TRUE(store.responsible_for(id, 10));
  }
}

TEST(BackupStore, ExpireDropsOldSegments) {
  const IdSpace space(64);
  BackupStore store(space, 0, 1);
  for (SegmentId id = 0; id < 10; ++id) store.store(id);
  EXPECT_EQ(store.expire_before(5), 5u);
  EXPECT_EQ(store.size(), 5u);
  EXPECT_FALSE(store.has(4));
  EXPECT_TRUE(store.has(5));
}

TEST(BackupStore, TakeAllEmpties) {
  const IdSpace space(64);
  BackupStore store(space, 0, 1);
  store.store(3);
  store.store(9);
  const auto contents = store.take_all();
  EXPECT_EQ(contents, (std::vector<SegmentId>{3, 9}));
  EXPECT_EQ(store.size(), 0u);
}

TEST(BackupStore, RejectsZeroReplicas) {
  const IdSpace space(64);
  EXPECT_THROW(BackupStore(space, 0, 0), std::invalid_argument);
}

TEST(BackupStore, ExpectedReplicationFactor) {
  // With owners tiling the ring and k = 4, the mean number of owners
  // responsible per segment should be near 4 * (1 - collision slack).
  const IdSpace space(1024);
  std::vector<NodeId> owners;
  for (NodeId id = 0; id < 1024; id += 16) owners.push_back(id);
  double total = 0.0;
  const int segments = 400;
  for (SegmentId id = 0; id < segments; ++id) {
    for (std::size_t i = 0; i < owners.size(); ++i) {
      const NodeId arc_end = owners[(i + 1) % owners.size()];
      BackupStore store(space, owners[i], 4);
      if (store.responsible_for(id, arc_end)) total += 1.0;
    }
  }
  EXPECT_NEAR(total / segments, 4.0, 0.35);
}

}  // namespace
}  // namespace continu::dht
