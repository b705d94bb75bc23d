// Unit and property tests for the DHT substrate: ID space, peer table,
// ring directory, greedy routing (incl. the appendix hop bound) and the
// VoD backup store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dht/backup_store.hpp"
#include "dht/id_space.hpp"
#include "dht/member_rank.hpp"
#include "dht/peer_table.hpp"
#include "dht/ring_directory.hpp"
#include "dht/routing_experiment.hpp"
#include "overlay/rendezvous.hpp"
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
// MemberRank / draw_level_peer
// ---------------------------------------------------------------------------

// The copy-and-draw loop Session seeded DHT tables with before the rank
// table, kept as the reference for draw_level_peer: copy the level arc
// out of the sorted members, drop the owner, draw one.
std::optional<NodeId> copy_draw_level_peer(const IdSpace& space,
                                           const std::vector<NodeId>& members,
                                           NodeId owner, unsigned level, util::Rng& rng) {
  std::vector<NodeId> arc;
  auto push_range = [&](NodeId a, NodeId b) {
    auto first = std::lower_bound(members.begin(), members.end(), a);
    auto last = std::lower_bound(members.begin(), members.end(), b);
    arc.insert(arc.end(), first, last);
  };
  const auto [lo, hi] = space.level_arc(owner, level);
  if (lo <= hi) {
    push_range(lo, hi);
  } else {
    push_range(lo, static_cast<NodeId>(space.size()));
    push_range(0, hi);
  }
  arc.erase(std::remove(arc.begin(), arc.end(), owner), arc.end());
  if (arc.empty()) return std::nullopt;
  return arc[rng.next_below(arc.size())];
}

// Memberships for one space: empty, every single member, full, and
// random ones from sparse to dense.
std::vector<std::vector<NodeId>> rank_memberships(std::uint64_t n, util::Rng& rng) {
  std::vector<std::vector<NodeId>> out;
  out.emplace_back();
  for (NodeId id = 0; id < n; ++id) out.push_back({id});
  std::vector<NodeId> full(n);
  for (NodeId id = 0; id < n; ++id) full[id] = id;
  out.push_back(full);
  for (int k = 0; k < 12; ++k) {
    const double density = 0.05 + 0.08 * k;
    std::vector<NodeId> members;
    for (NodeId id = 0; id < n; ++id) {
      if (rng.next_bool(density)) members.push_back(id);
    }
    out.push_back(members);
  }
  return out;
}

// Every arc [lo, hi) of a 64-id space: its count, and each of its
// members by rank.
TEST(MemberRank, CountsAndIndexesEveryArc) {
  const IdSpace space(64);
  util::Rng rng(11);
  for (const auto& members : rank_memberships(64, rng)) {
    const MemberRank rank(space, members);
    for (NodeId lo = 0; lo < 64; ++lo) {
      for (NodeId hi = 0; hi < 64; ++hi) {
        // The arc's members, clockwise from lo.
        std::vector<NodeId> arc;
        for (NodeId d = 0; d < space.distance(lo, hi); ++d) {
          const auto id = static_cast<NodeId>((lo + d) % 64);
          if (std::binary_search(members.begin(), members.end(), id)) arc.push_back(id);
        }
        ASSERT_EQ(rank.count(lo, hi), arc.size()) << "arc [" << lo << ", " << hi << ")";
        for (std::uint64_t r = 0; r < arc.size(); ++r) {
          ASSERT_EQ(rank.nth(lo, r), arc[r]) << "arc [" << lo << ", " << hi << ") r " << r;
        }
      }
    }
  }
}

// Every owner and level of 16-, 64- and 256-id spaces: the rank draw
// picks what the copy-and-draw loop picks, from the same generator
// state, and leaves the generator where the loop leaves it.
TEST(MemberRank, DrawMatchesCopyAndDrawLoop) {
  util::Rng membership_rng(2029);
  std::uint64_t picks = 0;
  for (const std::uint64_t n : {16u, 64u, 256u}) {
    const IdSpace space(n);
    for (const auto& members : rank_memberships(n, membership_rng)) {
      const MemberRank rank(space, members);
      util::Rng a(n * 7919 + members.size());
      util::Rng b = a;
      for (NodeId owner = 0; owner < n; ++owner) {
        for (unsigned level = 1; level <= space.levels(); ++level) {
          const auto got = draw_level_peer(space, rank, owner, level, a);
          const auto want = copy_draw_level_peer(space, members, owner, level, b);
          ASSERT_EQ(got, want) << "space " << n << " members " << members.size()
                               << " owner " << owner << " level " << level;
          ASSERT_EQ(a.next_u64(), b.next_u64())
              << "space " << n << " owner " << owner << " level " << level;
          if (got) ++picks;
        }
      }
    }
  }
  EXPECT_GT(picks, 0u);
}

TEST(MemberRank, RejectsMembersOutsideTheSpace) {
  const IdSpace space(16);
  EXPECT_THROW(MemberRank(space, {3, 16}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RingDirectory
// ---------------------------------------------------------------------------

TEST(RingDirectory, InsertEraseContains) {
  const IdSpace space(64);
  RingDirectory dir(space);
  dir.insert(5, 0);
  EXPECT_TRUE(dir.contains(5));
  EXPECT_THROW(dir.insert(5, 1), std::invalid_argument);
  dir.erase(5);
  EXPECT_FALSE(dir.contains(5));
}

TEST(RingDirectory, OwnerIsCounterClockwiseClosest) {
  const IdSpace space(64);
  RingDirectory dir(space);
  for (const NodeId id : {10u, 20u, 40u}) dir.insert(id, id);
  EXPECT_EQ(dir.owner_of(25).value(), 20u);
  EXPECT_EQ(dir.owner_of(20).value(), 20u);  // exact hit owns itself
  EXPECT_EQ(dir.owner_of(5).value(), 40u);   // wraps counter-clockwise
  EXPECT_EQ(dir.owner_of(63).value(), 40u);
}

TEST(RingDirectory, SuccessorPredecessor) {
  const IdSpace space(64);
  RingDirectory dir(space);
  for (const NodeId id : {10u, 20u, 40u}) dir.insert(id, id);
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
  dir.insert(7, 0);
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

TEST(RingDirectory, EraseOfAFreeIdIsANoOp) {
  const IdSpace space(64);
  RingDirectory dir(space);
  dir.insert(9, 3);
  dir.erase(10);
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.index_of(9), 3u);
  EXPECT_EQ(dir.index_of(10), RingDirectory::kNoIndex);
  EXPECT_EQ(dir.index_of(64), RingDirectory::kNoIndex);  // outside the space
  EXPECT_THROW(dir.insert(64, 0), std::invalid_argument);
  EXPECT_THROW(dir.insert(11, RingDirectory::kNoIndex), std::invalid_argument);
}

// The std::set lookups the directory answered with before its table,
// kept as the reference for the table walks.
std::optional<NodeId> set_owner_of(const std::set<NodeId>& members, NodeId target) {
  if (members.empty()) return std::nullopt;
  auto it = members.upper_bound(target);
  if (it == members.begin()) return *members.rbegin();
  return *--it;
}

std::optional<NodeId> set_successor_of(const std::set<NodeId>& members, NodeId id) {
  if (members.empty()) return std::nullopt;
  auto it = members.upper_bound(id);
  if (it == members.end()) it = members.begin();
  if (*it == id) return std::nullopt;
  return *it;
}

std::optional<NodeId> set_predecessor_of(const std::set<NodeId>& members, NodeId id) {
  if (members.empty()) return std::nullopt;
  auto it = members.lower_bound(id);
  const NodeId prev = it == members.begin() ? *members.rbegin() : *std::prev(it);
  if (prev == id) return std::nullopt;
  return prev;
}

// The walk RendezvousServer::close_nodes made over a copied member
// vector, kept as the reference for the walk over the directory.
std::vector<NodeId> vector_close_nodes(const IdSpace& space,
                                       const std::vector<NodeId>& members,
                                       NodeId target, std::size_t count) {
  std::vector<NodeId> out;
  if (members.empty() || count == 0) return out;
  auto it = std::lower_bound(members.begin(), members.end(), target);
  std::size_t right = static_cast<std::size_t>(it - members.begin()) % members.size();
  std::size_t left = (right + members.size() - 1) % members.size();
  while (out.size() < std::min(count, members.size())) {
    const std::uint64_t dr = space.distance(target, members[right]);
    const std::uint64_t dl = space.distance(members[left], target);
    if (dr <= dl) {
      out.push_back(members[right]);
      right = (right + 1) % members.size();
    } else {
      out.push_back(members[left]);
      left = (left + members.size() - 1) % members.size();
    }
    if (out.size() >= members.size()) break;
  }
  std::vector<NodeId> unique;
  for (const NodeId id : out) {
    if (std::find(unique.begin(), unique.end(), id) == unique.end()) {
      unique.push_back(id);
    }
  }
  unique.resize(std::min(unique.size(), count));
  return unique;
}

// Checks every query of the directory, and the RP's close_nodes walk
// over it, against the ordered model: every id, every target, and every
// count up to past the member count.
void expect_directory_matches_model(const IdSpace& space, const RingDirectory& dir,
                                    const std::set<NodeId>& members,
                                    const std::map<NodeId, std::uint32_t>& index,
                                    const std::string& where) {
  ASSERT_EQ(dir.size(), members.size()) << where;
  ASSERT_EQ(dir.empty(), members.empty()) << where;
  const std::vector<NodeId> sorted(members.begin(), members.end());
  ASSERT_EQ(dir.members(), sorted) << where;
  const overlay::RendezvousServer rp(dir, util::Rng(1));
  for (NodeId id = 0; id < space.size(); ++id) {
    const auto held = index.find(id);
    ASSERT_EQ(dir.contains(id), held != index.end()) << where << " id " << id;
    ASSERT_EQ(dir.index_of(id),
              held == index.end() ? RingDirectory::kNoIndex : held->second)
        << where << " id " << id;
    ASSERT_EQ(dir.owner_of(id), set_owner_of(members, id)) << where << " id " << id;
    ASSERT_EQ(dir.successor_of(id), set_successor_of(members, id)) << where << " id " << id;
    ASSERT_EQ(dir.predecessor_of(id), set_predecessor_of(members, id))
        << where << " id " << id;
    // The reference for a smaller count is a prefix of this one.
    const auto all = vector_close_nodes(space, sorted, id, members.size() + 2);
    for (std::size_t count = 0; count <= members.size() + 2; ++count) {
      const auto got = rp.close_nodes(id, count);
      ASSERT_TRUE(got.size() == std::min(count, all.size()) &&
                  std::equal(got.begin(), got.end(), all.begin()))
          << where << " target " << id << " count " << count;
    }
  }
}

// Random insert/erase sequences on 16-, 64- and 256-id spaces against a
// std::set + std::map model, each starting empty. On the 16- and 64-id
// spaces the sequence fills the space one insert at a time (through the
// single-member and full cases) and drains it one erase at a time (back
// to empty); every space then toggles 64 random ids (the 256-id space
// skips the fill and drain and stays sparse, where its walks scan long
// gaps: a denser one would cost seconds of close_nodes checks). Every
// step re-checks every query.
TEST(RingDirectory, MatchesOrderedModelUnderInsertErase) {
  util::Rng rng(30);
  for (const std::uint64_t n : {16u, 64u, 256u}) {
    const IdSpace space(n);
    RingDirectory dir(space);
    std::set<NodeId> members;
    std::map<NodeId, std::uint32_t> index;
    std::uint32_t next_index = 0;
    const auto insert = [&](NodeId id) {
      dir.insert(id, next_index);
      members.insert(id);
      index[id] = next_index++;
    };
    const auto erase = [&](NodeId id) {
      dir.erase(id);
      members.erase(id);
      index.erase(id);
    };
    std::size_t step = 0;
    const auto check = [&] {
      expect_directory_matches_model(space, dir, members, index,
                                     "space " + std::to_string(n) + " step " +
                                         std::to_string(step++));
    };
    ASSERT_NO_FATAL_FAILURE(check());
    if (n <= 64) {
      std::vector<NodeId> order(n);
      for (NodeId id = 0; id < n; ++id) order[id] = id;
      rng.shuffle(order);
      for (const NodeId id : order) {
        insert(id);
        ASSERT_NO_FATAL_FAILURE(check());
      }
      ASSERT_EQ(dir.size(), n);
      rng.shuffle(order);
      for (const NodeId id : order) {
        erase(id);
        ASSERT_NO_FATAL_FAILURE(check());
      }
    }
    for (int t = 0; t < 64; ++t) {
      const auto id = static_cast<NodeId>(rng.next_below(n));
      if (members.count(id) != 0) {
        erase(id);
      } else {
        insert(id);
      }
      ASSERT_NO_FATAL_FAILURE(check());
    }
  }
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

TEST(Routing, TableOfRejectsUnknownIds) {
  const IdSpace space(256);
  util::Rng rng(14);
  const RoutingExperiment exp(space, 16, rng);
  const NodeId member = exp.node_ids().front();
  EXPECT_EQ(exp.table_of(member).owner(), member);
  NodeId stranger = 0;
  while (exp.directory().contains(stranger)) ++stranger;
  EXPECT_THROW((void)exp.table_of(stranger), std::invalid_argument);
  EXPECT_THROW((void)exp.table_of(256), std::invalid_argument);  // outside the space
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
