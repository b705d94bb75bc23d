// Unit tests for overlay membership: overheard list, neighbor set, the
// RP server and the churn planner.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "dht/id_space.hpp"
#include "dht/ring_directory.hpp"
#include "overlay/churn.hpp"
#include "overlay/neighbor_set.hpp"
#include "overlay/overheard_list.hpp"
#include "overlay/rendezvous.hpp"
#include "util/rng.hpp"

namespace continu::overlay {
namespace {

// ---------------------------------------------------------------------------
// OverheardList
// ---------------------------------------------------------------------------

TEST(OverheardList, KeepsMostRecentUpToCapacity) {
  OverheardList list(3);
  list.hear(1, 10.0, 0.0);
  list.hear(2, 20.0, 1.0);
  list.hear(3, 30.0, 2.0);
  list.hear(4, 40.0, 3.0);  // evicts 1
  EXPECT_EQ(list.size(), 3u);
  EXPECT_FALSE(list.contains(1));
  EXPECT_TRUE(list.contains(4));
}

TEST(OverheardList, RehearMovesToFront) {
  OverheardList list(3);
  list.hear(1, 10.0, 0.0);
  list.hear(2, 20.0, 1.0);
  list.hear(3, 30.0, 2.0);
  list.hear(1, 5.0, 3.0);   // refresh 1
  list.hear(4, 40.0, 4.0);  // evicts 2 (now oldest)
  EXPECT_TRUE(list.contains(1));
  EXPECT_FALSE(list.contains(2));
}

// hear() against the erase + pop_back + insert-at-front it replaced, on
// random streams that re-hear listed ids and overflow the list.
TEST(OverheardList, HearMatchesEraseAndInsertAtFront) {
  util::Rng rng(31);
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3}, std::size_t{20}}) {
    OverheardList list(capacity);
    std::vector<OverheardNode> model;
    for (int step = 0; step < 2000; ++step) {
      const auto id = static_cast<NodeId>(rng.next_below(2 * capacity + 2));
      const auto latency = static_cast<double>(rng.next_below(100));
      const auto now = static_cast<double>(step);
      const auto it = std::find_if(model.begin(), model.end(),
                                   [id](const OverheardNode& e) { return e.id == id; });
      if (it != model.end()) model.erase(it);
      if (model.size() >= capacity) model.pop_back();
      model.insert(model.begin(), OverheardNode{id, static_cast<float>(latency),
                                                static_cast<float>(now)});
      list.hear(id, latency, now);
      ASSERT_EQ(list.size(), model.size());
      for (std::size_t i = 0; i < model.size(); ++i) {
        ASSERT_EQ(list.entries()[i].id, model[i].id) << "step " << step;
        ASSERT_EQ(list.entries()[i].latency_ms, model[i].latency_ms);
        ASSERT_EQ(list.entries()[i].heard_at, model[i].heard_at);
      }
    }
  }
}

TEST(OverheardList, BestCandidateIsLowestLatency) {
  OverheardList list(5);
  list.hear(1, 50.0, 0.0);
  list.hear(2, 10.0, 0.0);
  list.hear(3, 30.0, 0.0);
  const auto best = list.best_candidate({});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 2u);
}

TEST(OverheardList, BestCandidateRespectsExclusions) {
  OverheardList list(5);
  list.hear(1, 50.0, 0.0);
  list.hear(2, 10.0, 0.0);
  const auto best = list.best_candidate({2});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->id, 1u);
  EXPECT_FALSE(list.best_candidate({1, 2}).has_value());
}

TEST(OverheardList, ForgetRemoves) {
  OverheardList list(5);
  list.hear(1, 10.0, 0.0);
  list.forget(1);
  EXPECT_FALSE(list.contains(1));
  EXPECT_EQ(list.size(), 0u);
}

TEST(OverheardList, PaperCapacityDefault) {
  OverheardList list;
  EXPECT_EQ(list.capacity(), 20u);  // H = 20
}

TEST(OverheardList, RejectsZeroCapacity) {
  EXPECT_THROW(OverheardList(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// NeighborSet
// ---------------------------------------------------------------------------

TEST(NeighborSet, AddUpToCapacity) {
  NeighborSet set(2);
  EXPECT_TRUE(set.add(1, 10.0, 0.0));
  EXPECT_TRUE(set.add(2, 20.0, 0.0));
  EXPECT_FALSE(set.add(3, 30.0, 0.0));  // full
  EXPECT_TRUE(set.full());
}

TEST(NeighborSet, NoDuplicates) {
  NeighborSet set(3);
  EXPECT_TRUE(set.add(1, 10.0, 0.0));
  EXPECT_FALSE(set.add(1, 10.0, 0.0));
}

TEST(NeighborSet, RemoveReportsPresence) {
  NeighborSet set(3);
  set.add(1, 10.0, 0.0);
  EXPECT_TRUE(set.remove(1));
  EXPECT_FALSE(set.remove(1));
}

TEST(NeighborSet, SupplyRateSmoothing) {
  NeighborSet set(3);
  set.add(1, 10.0, 0.0);
  for (int i = 0; i < 10; ++i) set.record_supply_event(1);
  set.fold_supply(0.5);
  EXPECT_DOUBLE_EQ(set.get(1)->supply_rate, 5.0);   // 0.5*10 + 0.5*0
  for (int i = 0; i < 10; ++i) set.record_supply_event(1);
  set.fold_supply(0.5);
  EXPECT_DOUBLE_EQ(set.get(1)->supply_rate, 7.5);
}

TEST(NeighborSet, FoldWithoutEventsDecays) {
  NeighborSet set(3);
  set.add(1, 10.0, 0.0);
  for (int i = 0; i < 10; ++i) set.record_supply_event(1);
  set.fold_supply(0.5);
  set.fold_supply(0.5);  // silent period
  EXPECT_DOUBLE_EQ(set.get(1)->supply_rate, 2.5);
}

TEST(NeighborSet, WeakestHonorsGracePeriod) {
  NeighborSet set(3);
  set.add(1, 10.0, /*now=*/0.0);
  set.add(2, 10.0, /*now=*/8.0);
  set.record_supply_event(1);
  set.fold_supply();
  // At t=10 with min_age 5: only neighbor 1 is old enough.
  const auto weakest = set.weakest(/*now=*/10.0, /*min_age=*/5.0);
  ASSERT_TRUE(weakest.has_value());
  EXPECT_EQ(weakest->id, 1u);
  // With min_age 20 nobody qualifies.
  EXPECT_FALSE(set.weakest(10.0, 20.0).has_value());
}

TEST(NeighborSet, WeakestPicksLowestSupply) {
  NeighborSet set(3);
  set.add(1, 10.0, 0.0);
  set.add(2, 10.0, 0.0);
  for (int i = 0; i < 10; ++i) set.record_supply_event(1);
  set.record_supply_event(2);
  set.fold_supply();
  EXPECT_EQ(set.weakest(100.0, 0.0)->id, 2u);
}

TEST(NeighborSet, IdsListsAll) {
  NeighborSet set(3);
  set.add(5, 1.0, 0.0);
  set.add(9, 1.0, 0.0);
  EXPECT_EQ(set.ids(), (std::vector<NodeId>{5, 9}));
}

// ---------------------------------------------------------------------------
// RendezvousServer
// ---------------------------------------------------------------------------

// The RP lists and assigns ids around a directory the test owns; a
// joined node is an insert, a departed one an erase.

TEST(Rendezvous, AssignsUniqueIds) {
  const dht::IdSpace space(256);
  dht::RingDirectory dir(space);
  RendezvousServer rp(dir, util::Rng(1));
  for (std::uint32_t i = 0; i < 200; ++i) dir.insert(rp.assign_id(), i);
  EXPECT_EQ(dir.size(), 200u);
  for (const auto id : dir.members()) EXPECT_LT(id, 256u);
}

TEST(Rendezvous, ExhaustionThrows) {
  const dht::IdSpace space(4);
  dht::RingDirectory dir(space);
  RendezvousServer rp(dir, util::Rng(2));
  for (std::uint32_t i = 0; i < 4; ++i) dir.insert(rp.assign_id(), i);
  EXPECT_THROW((void)rp.assign_id(), std::runtime_error);
}

TEST(Rendezvous, FailureFreesIdForReuse) {
  const dht::IdSpace space(4);
  dht::RingDirectory dir(space);
  RendezvousServer rp(dir, util::Rng(3));
  for (std::uint32_t i = 0; i < 4; ++i) dir.insert(rp.assign_id(), i);
  const NodeId victim = dir.members().front();
  dir.erase(victim);
  EXPECT_EQ(rp.assign_id(), victim);
}

TEST(Rendezvous, CloseNodesAreRingClosest) {
  const dht::IdSpace space(256);
  dht::RingDirectory dir(space);
  RendezvousServer rp(dir, util::Rng(4));
  for (const NodeId id : {10u, 50u, 100u, 200u}) dir.insert(id, id);
  const auto close = rp.close_nodes(55, 2);
  ASSERT_EQ(close.size(), 2u);
  EXPECT_EQ(close[0], 50u);
  EXPECT_EQ(close[1], 100u);  // distances: 50->5 (ccw), 100->45 (cw), 10->45...
}

TEST(Rendezvous, CloseNodesWrapAroundRing) {
  const dht::IdSpace space(256);
  dht::RingDirectory dir(space);
  RendezvousServer rp(dir, util::Rng(5));
  dir.insert(250, 0);
  dir.insert(5, 1);
  const auto close = rp.close_nodes(1, 2);
  ASSERT_EQ(close.size(), 2u);
  EXPECT_TRUE((close[0] == 250 && close[1] == 5) || (close[0] == 5 && close[1] == 250));
}

TEST(Rendezvous, CloseNodesOnEmptyList) {
  const dht::IdSpace space(256);
  dht::RingDirectory dir(space);
  RendezvousServer rp(dir, util::Rng(6));
  EXPECT_TRUE(rp.close_nodes(10, 3).empty());
}

TEST(Rendezvous, ErasedNodeLeavesTheList) {
  const dht::IdSpace space(256);
  dht::RingDirectory dir(space);
  RendezvousServer rp(dir, util::Rng(8));
  const NodeId id = rp.assign_id();
  dir.insert(id, 0);
  EXPECT_EQ(rp.close_nodes(id, 1), std::vector<NodeId>{id});
  dir.erase(id);
  EXPECT_FALSE(dir.contains(id));
  EXPECT_TRUE(rp.close_nodes(id, 1).empty());
}

// ---------------------------------------------------------------------------
// ChurnPlanner
// ---------------------------------------------------------------------------

TEST(Churn, PlansExpectedFractions) {
  ChurnConfig config;
  config.leave_fraction = 0.05;
  config.join_fraction = 0.05;
  ChurnPlanner planner(config, util::Rng(1));
  std::vector<std::size_t> alive(1000);
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = i;

  double total_leavers = 0.0;
  double total_joins = 0.0;
  const int rounds = 200;
  for (int r = 0; r < rounds; ++r) {
    const auto batch = planner.plan(alive);
    total_leavers +=
        static_cast<double>(batch.graceful_leavers.size() + batch.abrupt_leavers.size());
    total_joins += static_cast<double>(batch.joins);
  }
  EXPECT_NEAR(total_leavers / rounds, 50.0, 3.0);
  EXPECT_NEAR(total_joins / rounds, 50.0, 3.0);
}

TEST(Churn, GracefulFractionRespected) {
  ChurnConfig config;
  config.leave_fraction = 0.2;
  config.graceful_fraction = 0.75;
  ChurnPlanner planner(config, util::Rng(2));
  std::vector<std::size_t> alive(500);
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = i;
  double graceful = 0.0;
  double total = 0.0;
  for (int r = 0; r < 200; ++r) {
    const auto batch = planner.plan(alive);
    graceful += static_cast<double>(batch.graceful_leavers.size());
    total += static_cast<double>(batch.graceful_leavers.size() + batch.abrupt_leavers.size());
  }
  EXPECT_NEAR(graceful / total, 0.75, 0.05);
}

TEST(Churn, LeaversAreDistinctAliveIndices) {
  ChurnConfig config;
  config.leave_fraction = 0.5;
  ChurnPlanner planner(config, util::Rng(3));
  std::vector<std::size_t> alive{100, 200, 300, 400, 500, 600};
  for (int r = 0; r < 50; ++r) {
    const auto batch = planner.plan(alive);
    std::set<std::size_t> seen;
    for (const auto idx : batch.graceful_leavers) {
      EXPECT_TRUE(seen.insert(idx).second);
      EXPECT_NE(std::find(alive.begin(), alive.end(), idx), alive.end());
    }
    for (const auto idx : batch.abrupt_leavers) {
      EXPECT_TRUE(seen.insert(idx).second);
      EXPECT_NE(std::find(alive.begin(), alive.end(), idx), alive.end());
    }
  }
}

TEST(Churn, SmallPopulationsChurnInExpectation) {
  ChurnConfig config;
  config.leave_fraction = 0.05;
  ChurnPlanner planner(config, util::Rng(4));
  std::vector<std::size_t> alive{0, 1, 2, 3, 4};  // 5 nodes: E[leavers] = 0.25
  double total = 0.0;
  for (int r = 0; r < 2000; ++r) {
    const auto batch = planner.plan(alive);
    total += static_cast<double>(batch.graceful_leavers.size() + batch.abrupt_leavers.size());
  }
  EXPECT_NEAR(total / 2000.0, 0.25, 0.05);
}

TEST(Churn, EmptyPopulation) {
  ChurnPlanner planner(ChurnConfig{}, util::Rng(5));
  const auto batch = planner.plan({});
  EXPECT_TRUE(batch.graceful_leavers.empty());
  EXPECT_TRUE(batch.abrupt_leavers.empty());
  EXPECT_EQ(batch.joins, 0u);
}

TEST(Churn, RejectsBadFractions) {
  ChurnConfig config;
  config.leave_fraction = 1.5;
  EXPECT_THROW(ChurnPlanner(config, util::Rng(6)), std::invalid_argument);
}

}  // namespace
}  // namespace continu::overlay
