// Unit tests for the discrete-event engine: slot-pool event queue,
// the small-buffer action (as event and as delivery handler),
// simulator semantics, periodic processes and the batched
// RoundScheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/delivery.hpp"
#include "net/latency_model.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel/executor.hpp"
#include "sim/round_scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace continu::sim {
namespace {

// --- InlineAction ----------------------------------------------------------
//
// One small-buffer callable serves the engine twice: EventAction
// (InlineAction<>) is the event payload and net::DeliveryAction
// (InlineAction<DeliveryContext&>) the quantized network's delivery
// handler. Every case runs on both; bodies are written as void()
// lambdas and ActionOps adapts them to the action's signature.

template <typename Action>
struct ActionOps;

template <>
struct ActionOps<EventAction> {
  using Function = std::function<void()>;
  template <typename F>
  static F adapt(F body) {
    return body;
  }
  static void call(EventAction& action) { action(); }
};

template <>
struct ActionOps<net::DeliveryAction> {
  using Function = std::function<void(net::DeliveryContext&)>;
  template <typename F>
  static auto adapt(F body) {
    return [body](net::DeliveryContext&) { body(); };
  }
  /// A DeliveryContext only comes from a Network: invoke the action
  /// inside a continuous-mode delivery, which hands it the immediate
  /// context.
  static void call(net::DeliveryAction& action) {
    Simulator sim;
    parallel::ParallelExecutor exec(1);
    net::Network net(sim, exec, net::LatencyModel({10.0, 60.0}, 5.0));
    net.post_sharded(0, 0.0, [&action](net::DeliveryContext& ctx) { action(ctx); });
    sim.run_all();
  }
};

template <typename Action>
class SmallBufferAction : public ::testing::Test {};

struct ActionName {
  template <typename Action>
  static std::string GetName(int) {
    return std::is_same_v<Action, EventAction> ? "Event" : "Delivery";
  }
};

using ActionTypes = ::testing::Types<EventAction, net::DeliveryAction>;
TYPED_TEST_SUITE(SmallBufferAction, ActionTypes, ActionName);

TYPED_TEST(SmallBufferAction, InlineForSmallCaptures) {
  using Ops = ActionOps<TypeParam>;
  int hits = 0;
  // 48-byte payload + pointer capture: the size of the largest
  // protocol capture (DHT route hop + delivery wrapper). Must never
  // allocate.
  std::array<std::uint64_t, 6> payload{};
  TypeParam small(Ops::adapt([&hits] { ++hits; }));
  TypeParam big(
      Ops::adapt([&hits, payload] { hits += static_cast<int>(payload[0]) + 1; }));
  EXPECT_TRUE(small.stored_inline());
  EXPECT_TRUE(big.stored_inline());
  Ops::call(small);
  Ops::call(big);
  EXPECT_EQ(hits, 2);
}

TYPED_TEST(SmallBufferAction, HeapFallbackForOversizedCaptures) {
  using Ops = ActionOps<TypeParam>;
  int hits = 0;
  std::array<std::uint64_t, 32> payload{};  // 256 bytes: exceeds inline
  payload[31] = 41;
  TypeParam action(
      Ops::adapt([&hits, payload] { hits = static_cast<int>(payload[31]) + 1; }));
  EXPECT_TRUE(static_cast<bool>(action));
  EXPECT_FALSE(action.stored_inline());
  Ops::call(action);
  EXPECT_EQ(hits, 42);
}

TYPED_TEST(SmallBufferAction, MoveTransfersOwnership) {
  using Ops = ActionOps<TypeParam>;
  std::vector<int> order;
  TypeParam a(Ops::adapt([&order] { order.push_back(1); }));
  TypeParam b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  Ops::call(b);
  Ops::call(b);  // repeat invocation is allowed
  EXPECT_EQ(order, (std::vector<int>{1, 1}));

  TypeParam c;
  c = std::move(b);
  ASSERT_TRUE(static_cast<bool>(c));
  Ops::call(c);
  EXPECT_EQ(order.size(), 3u);
}

TYPED_TEST(SmallBufferAction, NonTrivialCapturesDestructRight) {
  using Ops = ActionOps<TypeParam>;
  auto counter = std::make_shared<int>(0);
  {
    TypeParam action(Ops::adapt([counter] { ++*counter; }));
    EXPECT_EQ(counter.use_count(), 2);
    Ops::call(action);
    TypeParam moved(std::move(action));
    EXPECT_EQ(counter.use_count(), 2);
    Ops::call(moved);
  }
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_EQ(*counter, 2);
}

TYPED_TEST(SmallBufferAction, EmptyStdFunctionStaysEmpty) {
  TypeParam action{typename ActionOps<TypeParam>::Function{}};
  EXPECT_FALSE(static_cast<bool>(action));
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<double> popped;
  q.push(3.0, [] {});
  q.push(1.0, [] {});
  q.push(2.0, [] {});
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  const EventId b = q.push(1.0, [] {});
  const EventId c = q.push(1.0, [] {});
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  std::vector<EventId> order;
  while (!q.empty()) order.push_back(q.pop().id);
  EXPECT_EQ(order, (std::vector<EventId>{a, b, c}));
}

TEST(EventQueue, CancelPendingEvent) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  const EventId b = q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, b);
}

TEST(EventQueue, CancelUnknownIsNoOp) {
  EventQueue q;
  q.push(1.0, [] {});
  EXPECT_FALSE(q.cancel(kInvalidEvent));
  EXPECT_FALSE(q.cancel(0xFFFFFF000000ULL));  // never-issued id
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelFiredIsNoOp) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  (void)q.pop();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(5.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), std::logic_error);
}

TEST(EventQueue, EmptyActionRejectedConsistently) {
  EventQueue q;
  EXPECT_THROW((void)q.emplace(1.0, std::function<void()>{}), std::invalid_argument);
  EXPECT_THROW((void)q.push(1.0, EventAction{}), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  // The queue stays usable: the reaped heap entry must not disturb
  // later scheduling.
  bool fired = false;
  (void)q.emplace(2.0, [&fired] { fired = true; });
  Event e = q.pop();
  e.action();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(Simulator, ThrowingActionLeavesQueueConsistent) {
  Simulator sim;
  int after = 0;
  sim.schedule_in(1.0, [] { throw std::runtime_error("boom"); });
  sim.schedule_in(2.0, [&after] { ++after; });
  EXPECT_THROW(sim.run_until(5.0), std::runtime_error);
  // The throwing event's slot was released; the rest of the queue
  // still runs.
  sim.run_until(5.0);
  EXPECT_EQ(after, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventQueue, PopUntilRespectsHorizon) {
  EventQueue q;
  q.push(1.0, [] {});
  q.push(3.0, [] {});
  Event e;
  EXPECT_TRUE(q.pop_until(2.0, e));
  EXPECT_DOUBLE_EQ(e.time, 1.0);
  EXPECT_FALSE(q.pop_until(2.0, e));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.pop_until(3.0, e));
  EXPECT_FALSE(q.pop_until(100.0, e));
}

// Generation stamping: a slot freed by pop or cancel and reused by a
// later push must reject the stale id — the regression the slot-pool
// design exists to prevent.
TEST(EventQueue, StaleCancelCannotKillSlotReuser) {
  EventQueue q;
  const EventId old_id = q.push(1.0, [] {});
  (void)q.pop();  // frees the slot
  bool fired = false;
  const EventId new_id = q.push(2.0, [&fired] { fired = true; });
  EXPECT_EQ(old_id & EventQueue::kSlotMask, new_id & EventQueue::kSlotMask)
      << "test premise: the slot must be reused";
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id)) << "stale cancel must be a no-op";
  EXPECT_EQ(q.size(), 1u);
  Event e = q.pop();
  EXPECT_EQ(e.id, new_id);
  e.action();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleCancelAfterCancelAndReuse) {
  EventQueue q;
  const EventId old_id = q.push(5.0, [] {});
  EXPECT_TRUE(q.cancel(old_id));
  const EventId new_id = q.push(7.0, [] {});
  EXPECT_EQ(old_id & EventQueue::kSlotMask, new_id & EventQueue::kSlotMask);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.pop().id, new_id);
}

TEST(EventQueue, PeakSizeTracksHighWaterMark) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.push(i, [] {}));
  for (int i = 0; i < 4; ++i) (void)q.pop();
  q.push(99.0, [] {});
  EXPECT_EQ(q.peak_size(), 8u);
  EXPECT_EQ(q.size(), 5u);
}

// Property test: N randomized schedule/cancel/pop interleavings must
// produce exactly the execution order of a reference model (stable
// sort by (time, schedule order), minus cancelled entries).
TEST(EventQueue, RandomizedInterleavingsMatchReferenceModel) {
  struct ModelEntry {
    double time;
    EventId id;
    bool cancelled = false;
  };
  util::Rng rng(0xE7E77u);
  for (int trial = 0; trial < 100; ++trial) {
    EventQueue q;
    std::vector<ModelEntry> model;   // schedule order
    std::vector<EventId> executed;   // ids popped from the queue
    std::vector<EventId> live;       // candidates for cancellation

    const int ops = 120;
    for (int op = 0; op < ops; ++op) {
      const double roll = rng.next_double();
      if (roll < 0.55) {
        // Schedule at a coarse-grained time so equal-time ties are common.
        const double time = static_cast<double>(rng.next_below(16));
        const EventId id = q.push(time, [] {});
        model.push_back(ModelEntry{time, id});
        live.push_back(id);
      } else if (roll < 0.75 && !live.empty()) {
        // Cancel a random outstanding id (may already be popped).
        const std::size_t pick = rng.next_below(live.size());
        const EventId id = live[pick];
        const bool was_pending = q.cancel(id);
        for (auto& entry : model) {
          if (entry.id != id) continue;
          const bool already_done =
              std::find(executed.begin(), executed.end(), id) != executed.end();
          EXPECT_EQ(was_pending, !already_done && !entry.cancelled);
          if (was_pending) entry.cancelled = true;
        }
      } else if (!q.empty()) {
        executed.push_back(q.pop().id);
      }
    }
    while (!q.empty()) executed.push_back(q.pop().id);

    // Reference order: stable sort by time (ids are schedule order),
    // skipping cancelled entries. Pops interleaved with pushes only ever
    // remove the current minimum, so the global pop sequence must still
    // respect (time, id) order among the events each pop could see —
    // and the FULL drain at the end makes the total sets comparable.
    std::vector<ModelEntry> expected(model);
    std::stable_sort(expected.begin(), expected.end(),
                     [](const ModelEntry& a, const ModelEntry& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.id < b.id;
                     });
    std::vector<EventId> expected_ids;
    for (const auto& entry : expected) {
      if (!entry.cancelled) expected_ids.push_back(entry.id);
    }
    // Interleaved pops always remove the pending minimum, so the full
    // run must execute exactly the non-cancelled multiset...
    std::vector<EventId> sorted_exec(executed);
    std::sort(sorted_exec.begin(), sorted_exec.end());
    std::vector<EventId> sorted_expect(expected_ids);
    std::sort(sorted_expect.begin(), sorted_expect.end());
    ASSERT_EQ(sorted_exec, sorted_expect) << "trial " << trial;

    // ...and replaying the same schedule/cancel sequence with no
    // interleaved pops must drain in exactly the reference order.
    EventQueue q2;
    std::vector<std::pair<EventId, EventId>> idmap;  // original -> new
    for (const auto& entry : model) {
      const EventId nid = q2.push(entry.time, [] {});
      idmap.emplace_back(entry.id, nid);
    }
    for (std::size_t i = 0; i < model.size(); ++i) {
      if (model[i].cancelled) q2.cancel(idmap[i].second);
    }
    std::vector<EventId> drained;
    while (!q2.empty()) drained.push_back(q2.pop().id);
    std::vector<EventId> expected_new;
    for (const auto& entry : expected) {
      if (entry.cancelled) continue;
      for (const auto& [orig, nid] : idmap) {
        if (orig == entry.id) expected_new.push_back(nid);
      }
    }
    ASSERT_EQ(drained, expected_new) << "trial " << trial;
  }
}

// Heap property test: random interleavings of every queue operation
// against a std::set<(time, id)> oracle. Times come from a small table
// (many exact ties, -0.0 next to +0.0, negatives, infinities), so the
// (time, id) order is exercised where the 4-ary heap's packed key has
// to agree with the double compare. `cap` bounds the pending count:
// caps 0-5 walk every shape of a partial last child group, the large
// cap keeps ~100k entries pending.
void RunHeapAgainstOracle(std::uint64_t seed, std::size_t cap, std::size_t ops,
                          std::size_t fill) {
  const double inf = std::numeric_limits<double>::infinity();
  const double kTimes[] = {-inf, -1e300, -2.5, -1.0,
                           -std::numeric_limits<double>::denorm_min(),
                           -0.0, 0.0, 0.0, -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           0.25, 1.0, 1.0, 1.0, 2.0, 1e300, inf};
  constexpr std::size_t kTimeCount = sizeof(kTimes) / sizeof(kTimes[0]);
  util::Rng rng(seed);
  const auto draw_time = [&] {
    if (cap > 16 && rng.next_double() < 0.9) {
      return static_cast<double>(rng.next_below(4096)) * 0.25 - 100.0;
    }
    return kTimes[rng.next_below(kTimeCount)];
  };

  EventQueue q;
  std::set<std::pair<double, EventId>> oracle;
  struct Issued {
    double time;
    std::uint64_t tag;  ///< written to ran_tag when the action runs
  };
  std::unordered_map<EventId, Issued> info;
  std::vector<EventId> issued;  // every id ever returned (cancel picks)
  std::uint64_t next_tag = 0;
  std::uint64_t ran_tag = ~std::uint64_t{0};
  const auto schedule = [&](bool via_emplace) {
    const double time = draw_time();
    const std::uint64_t tag = next_tag++;
    const EventId id =
        via_emplace ? q.emplace(time, [&ran_tag, tag] { ran_tag = tag; })
                    : q.push(time, EventAction([&ran_tag, tag] { ran_tag = tag; }));
    ASSERT_TRUE(oracle.emplace(time, id).second);
    info[id] = Issued{time, tag};
    issued.push_back(id);
  };
  // Mostly the pending minimum (so equal-time runs get collected
  // whole); at the large cap almost always, so a window cannot drain
  // the 100k entries at once.
  const double at_min = cap > 16 ? 0.999 : 0.7;
  const auto horizon = [&] {
    if (!oracle.empty() && rng.next_double() < at_min) return oracle.begin()->first;
    return draw_time();
  };
  // Pops the oracle's minimum iff it is due at `limit`.
  const auto expect_due = [&](double limit, std::pair<double, EventId>& out) {
    if (oracle.empty() || oracle.begin()->first > limit) return false;
    out = *oracle.begin();
    oracle.erase(oracle.begin());
    return true;
  };

  for (std::size_t i = 0; i < fill && oracle.size() < cap; ++i) {
    schedule(i % 2 == 0);
  }
  for (std::size_t op = 0; op < ops; ++op) {
    const double roll = rng.next_double();
    std::pair<double, EventId> want{};
    if (roll < 0.40) {
      if (oracle.size() < cap) schedule(roll < 0.20);
    } else if (roll < 0.50) {
      if (issued.empty()) continue;
      const EventId id = issued[rng.next_below(issued.size())];
      const bool live = oracle.erase({info[id].time, id}) > 0;
      ASSERT_EQ(q.cancel(id), live);
    } else if (roll < 0.65) {
      const double limit = horizon();
      Event ev;
      const bool due = expect_due(limit, want);
      ASSERT_EQ(q.pop_until(limit, ev), due);
      if (due) {
        ASSERT_EQ(ev.id, want.second);
        ASSERT_EQ(ev.time, want.first);
        ev.action();
        ASSERT_EQ(ran_tag, info[want.second].tag);
      }
    } else if (roll < 0.80) {
      const double limit = horizon();
      EventQueue::DueEvent due{};
      const bool expected = expect_due(limit, want);
      ASSERT_EQ(q.acquire_due(limit, due), expected);
      if (expected) {
        ASSERT_EQ(due.time, want.first);
        q.execute_and_release(due);
        ASSERT_EQ(ran_tag, info[want.second].tag);
      }
    } else if (roll < 0.92) {
      const double limit = horizon();
      std::vector<EventQueue::WindowRef> refs;
      q.collect_window(limit, refs);
      std::vector<std::pair<double, EventId>> wanted;
      while (expect_due(limit, want)) wanted.push_back(want);
      ASSERT_EQ(refs.size(), wanted.size());
      for (std::size_t k = 0; k < refs.size(); ++k) {
        ASSERT_EQ(refs[k].id, wanted[k].second);
        ASSERT_EQ(refs[k].time, wanted[k].first);
      }
      // Collected refs stay cancellable until they run.
      for (std::size_t k = 0; k < refs.size(); ++k) {
        const bool cancel = rng.next_below(4) == 0;
        if (cancel) {
          ASSERT_TRUE(q.cancel(refs[k].id));
        }
        ASSERT_EQ(q.execute_collected(refs[k]), !cancel);
        if (!cancel) {
          ASSERT_EQ(ran_tag, info[refs[k].id].tag);
        }
      }
    } else {
      SimTime time = 0.0;
      EventId id = kInvalidEvent;
      ASSERT_EQ(q.peek(time, id), !oracle.empty());
      if (!oracle.empty()) {
        ASSERT_EQ(id, oracle.begin()->second);
        ASSERT_EQ(time, oracle.begin()->first);
      }
    }
    ASSERT_EQ(q.size(), oracle.size()) << "op " << op;
  }
  ASSERT_GE(q.peak_size(), std::min(cap, fill));
  // The full drain must reproduce the oracle's order exactly.
  std::vector<EventId> drained;
  while (!q.empty()) drained.push_back(q.pop().id);
  std::vector<EventId> expected;
  for (const auto& entry : oracle) expected.push_back(entry.second);
  ASSERT_EQ(drained, expected);
}

TEST(EventQueue, HeapMatchesOrderedSetOracleAtSmallSizes) {
  for (std::size_t cap = 0; cap <= 5; ++cap) {
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
      SCOPED_TRACE(testing::Message() << "cap " << cap << " trial " << trial);
      RunHeapAgainstOracle(0xC0FFEEu + 1000 * cap + trial, cap, 200, 0);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(EventQueue, HeapMatchesOrderedSetOracleAt100kPending) {
  RunHeapAgainstOracle(0xB16u, 100000, 40000, 100000);
}

// Slot reuse under heavy churn: the pool stays compact and ids never
// collide even when most pushes land on recycled slots.
TEST(EventQueue, HeavySlotRecyclingKeepsIdsUnique) {
  EventQueue q;
  util::Rng rng(99);
  std::vector<EventId> pending;
  std::vector<EventId> all_ids;
  for (int round = 0; round < 2000; ++round) {
    const EventId id = q.push(rng.next_double() * 100.0, [] {});
    all_ids.push_back(id);
    pending.push_back(id);
    if (pending.size() > 32) {
      const std::size_t pick = rng.next_below(pending.size());
      q.cancel(pending[pick]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (round % 3 == 0 && !q.empty()) (void)q.pop();
  }
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_TRUE(std::adjacent_find(all_ids.begin(), all_ids.end()) == all_ids.end())
      << "EventIds must be globally unique across slot reuse";
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  double observed = -1.0;
  sim.schedule_in(2.5, [&] { observed = sim.now(); });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(observed, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(5.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtExactHorizonRuns) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(3.0, [&] { fired = true; });
  sim.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule_in(1.0, [] {});
  sim.run_until(1.0);
  bool fired = false;
  sim.schedule_in(-5.0, [&] { fired = true; });
  sim.run_until(1.0);
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Simulator, ScheduledActionsCanSchedule) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(1.0, [&] { times.push_back(sim.now()); });
  });
  sim.run_all();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_in(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EmptyActionRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(1.0, std::function<void()>{}), std::invalid_argument);
}

TEST(Simulator, ExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_in(i, [] {});
  sim.run_all();
  EXPECT_EQ(sim.executed(), 5u);
}

TEST(Simulator, PeakPendingHighWaterMark) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_in(i, [] {});
  sim.run_all();
  EXPECT_EQ(sim.peak_pending(), 7u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, StepRunsOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, DeterministicTieBreaking) {
  // Two events at the same instant run in scheduling order.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(PeriodicProcess, TicksAtPeriod) {
  Simulator sim;
  std::vector<double> ticks;
  PeriodicProcess p(sim, 1.0, [&] { ticks.push_back(sim.now()); });
  p.start(0.5);
  sim.run_until(4.0);
  EXPECT_EQ(ticks, (std::vector<double>{0.5, 1.5, 2.5, 3.5}));
}

TEST(PeriodicProcess, StopHaltsTicks) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1.0, [&] { ++count; });
  p.start(1.0);
  sim.run_until(2.5);
  p.stop();
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(p.running());
}

TEST(PeriodicProcess, StopFromWithinTick) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1.0, [&] {
    ++count;
    if (count == 3) p.stop();
  });
  p.start(1.0);
  sim.run_until(100.0);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicProcess, RestartAfterStop) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1.0, [&] { ++count; });
  p.start(1.0);
  sim.run_until(1.5);
  p.stop();
  p.start(1.0);
  sim.run_until(3.0);
  EXPECT_EQ(count, 2);  // one before stop, one after restart (t=2.5)
}

TEST(PeriodicProcess, DoubleStartIsNoOp) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1.0, [&] { ++count; });
  p.start(1.0);
  p.start(0.1);  // ignored
  sim.run_until(1.0);
  EXPECT_EQ(count, 1);
}

TEST(PeriodicProcess, RejectsBadArguments) {
  Simulator sim;
  EXPECT_THROW(PeriodicProcess(sim, 0.0, [] {}), std::invalid_argument);
  EXPECT_THROW(PeriodicProcess(sim, 1.0, std::function<void()>{}), std::invalid_argument);
}

TEST(PeriodicProcess, DestructorCancelsPendingTick) {
  Simulator sim;
  int count = 0;
  {
    PeriodicProcess p(sim, 1.0, [&] { ++count; });
    p.start(1.0);
  }
  sim.run_until(10.0);
  EXPECT_EQ(count, 0);
}

// --- RoundScheduler --------------------------------------------------------

TEST(RoundScheduler, TicksMatchEquivalentPeriodicProcesses) {
  // The determinism contract: a RoundScheduler fleet fires at exactly
  // the times (and in exactly the order) the per-participant
  // PeriodicProcess fleet it replaces would.
  Simulator ref_sim;
  std::vector<std::pair<double, std::size_t>> ref_ticks;
  std::vector<std::unique_ptr<PeriodicProcess>> procs;
  const std::array<double, 3> phases = {0.31, 0.07, 0.83};
  for (std::size_t i = 0; i < phases.size(); ++i) {
    procs.push_back(std::make_unique<PeriodicProcess>(
        ref_sim, 1.0, [&ref_ticks, &ref_sim, i] {
          ref_ticks.emplace_back(ref_sim.now(), i);
        }));
    procs[i]->start(phases[i]);
  }
  ref_sim.run_until(5.0);

  Simulator sim;
  std::vector<std::pair<double, std::size_t>> ticks;
  RoundScheduler rounds(sim, 1.0, [&ticks, &sim](const std::vector<std::size_t>& users) {
    for (const std::size_t user : users) ticks.emplace_back(sim.now(), user);
  });
  for (std::size_t i = 0; i < phases.size(); ++i) (void)rounds.add(phases[i], i);
  sim.run_until(5.0);

  EXPECT_EQ(ticks, ref_ticks);
  // And it does so with a single pending proxy event instead of three.
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(RoundScheduler, EqualPhasesBatchInAddOrder) {
  Simulator sim;
  std::vector<std::size_t> order;
  RoundScheduler rounds(sim, 2.0, [&order](const std::vector<std::size_t>& users) {
    for (const std::size_t user : users) order.push_back(user);
  });
  (void)rounds.add(0.5, 7);
  (void)rounds.add(0.5, 3);
  (void)rounds.add(0.5, 9);
  sim.run_until(3.0);  // two full rounds (t = 0.5 and t = 2.5)
  EXPECT_EQ(order, (std::vector<std::size_t>{7, 3, 9, 7, 3, 9}));
  // Batched: both rounds were driven by one proxy event per round.
  EXPECT_EQ(sim.executed(), 2u);
}

TEST(RoundScheduler, RemoveStopsTicks) {
  Simulator sim;
  int a_count = 0;
  int b_count = 0;
  RoundScheduler rounds(sim, 1.0, [&](const std::vector<std::size_t>& users) {
    for (const std::size_t user : users) {
      if (user == 0) ++a_count;
      if (user == 1) ++b_count;
    }
  });
  const auto a = rounds.add(0.25, 0);
  (void)rounds.add(0.5, 1);
  sim.run_until(2.0);
  EXPECT_EQ(a_count, 2);
  EXPECT_TRUE(rounds.remove(a));
  EXPECT_FALSE(rounds.remove(a)) << "double remove must be a no-op";
  EXPECT_EQ(rounds.active(), 1u);
  sim.run_until(5.0);
  EXPECT_EQ(a_count, 2);
  EXPECT_EQ(b_count, 5);
}

TEST(RoundScheduler, StaleHandleCannotRemoveSlotReuser) {
  Simulator sim;
  std::vector<std::size_t> ticked;
  RoundScheduler rounds(sim, 1.0, [&](const std::vector<std::size_t>& users) {
    for (const std::size_t user : users) ticked.push_back(user);
  });
  const auto first = rounds.add(0.5, 100);
  EXPECT_TRUE(rounds.remove(first));
  const auto second = rounds.add(0.5, 200);  // reuses the freed slot
  EXPECT_EQ(first.slot, second.slot) << "test premise: slot must be reused";
  EXPECT_FALSE(rounds.remove(first)) << "stale handle must not hit the reuser";
  EXPECT_TRUE(rounds.contains(second));
  EXPECT_FALSE(rounds.contains(first));
  sim.run_until(0.6);
  EXPECT_EQ(ticked, (std::vector<std::size_t>{200}));
}

TEST(RoundScheduler, AddAndRemoveFromWithinTick) {
  // Models a churn tick: user 0's first tick joins a new participant
  // (user 5, first fire at 0.2 + 0.4 = 0.6) and removes itself.
  Simulator sim;
  std::vector<std::size_t> ticked;
  RoundScheduler* rptr = nullptr;
  RoundScheduler::Handle h0;
  RoundScheduler rounds(sim, 1.0, [&](const std::vector<std::size_t>& users) {
    for (const std::size_t user : users) {
      ticked.push_back(user);
      if (user == 0) {
        (void)rptr->add(0.4, 5);
        rptr->remove(h0);
      }
    }
  });
  rptr = &rounds;
  h0 = rounds.add(0.2, 0);
  (void)rounds.add(0.6, 1);
  sim.run_until(3.0);
  // t=0.2: user 0 (once, then gone). t=0.6: user 1 before user 5 at the
  // equal instant (added earlier); both repeat at 1.6 and 2.6.
  EXPECT_EQ(ticked,
            (std::vector<std::size_t>{0, 1, 5, 1, 5, 1, 5}));
  EXPECT_EQ(rounds.active(), 2u);
}

TEST(RoundScheduler, RemoveOutsideTickNeverTicksSurvivorsEarly) {
  // Regression: removing the participant the proxy is armed for (from
  // an unrelated event, not from within a tick) must not make the
  // proxy fire the NEXT participant ahead of its time.
  Simulator sim;
  std::vector<std::pair<double, std::size_t>> ticks;
  RoundScheduler rounds(sim, 10.0, [&](const std::vector<std::size_t>& users) {
    for (const std::size_t user : users) ticks.emplace_back(sim.now(), user);
  });
  const auto a = rounds.add(1.0, 0);  // proxy armed for t=1.0
  (void)rounds.add(2.0, 1);
  sim.schedule_at(0.5, [&] { rounds.remove(a); });
  sim.run_until(5.0);
  EXPECT_EQ(ticks, (std::vector<std::pair<double, std::size_t>>{{2.0, 1}}));
}

TEST(RoundScheduler, SelfRemovalFromOwnTickStopsRearm) {
  Simulator sim;
  int count = 0;
  RoundScheduler* rptr = nullptr;
  RoundScheduler::Handle self;
  RoundScheduler rounds(sim, 1.0, [&](const std::vector<std::size_t>& users) {
    for (std::size_t i = 0; i < users.size(); ++i) {
      ++count;
      if (count == 2) rptr->remove(self);
    }
  });
  rptr = &rounds;
  self = rounds.add(0.5, 0);
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(rounds.active(), 0u);
}

TEST(RoundScheduler, DestructionCancelsArmedProxy) {
  Simulator sim;
  int ticks = 0;
  {
    RoundScheduler rounds(sim, 1.0, [&](const std::vector<std::size_t>& users) {
      ticks += static_cast<int>(users.size());
    });
    (void)rounds.add(0.5, 0);
  }
  sim.run_until(10.0);  // must not fire into the destroyed scheduler
  EXPECT_EQ(ticks, 0);
}

TEST(RoundScheduler, RejectsBadArguments) {
  Simulator sim;
  EXPECT_THROW(RoundScheduler(sim, 0.0, [](const std::vector<std::size_t>&) {}),
               std::invalid_argument);
  EXPECT_THROW(RoundScheduler(sim, 1.0, RoundScheduler::BatchTick{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace continu::sim
