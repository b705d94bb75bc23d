// Unit tests for the discrete-event engine: slot-pool event queue,
// the small-buffer action (as event and as delivery handler),
// simulator semantics, periodic processes and the batched
// RoundScheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
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

static_assert(sizeof(EventAction) == 64, "an event action is one cache line");
static_assert(sizeof(net::DeliveryAction) == 64, "a delivery action is one cache line");
static_assert(EventQueue::kSlotLineBytes == 64, "a queue slot is one cache line");
static_assert(EventQueue::kSlotBytes == 72, "a queue slot plus its side id is 72 bytes");
static_assert(sizeof(net::HandoffEntry) <= 72, "a bucket entry is 8 bytes + one action");

TYPED_TEST(SmallBufferAction, InlineForSmallCaptures) {
  using Ops = ActionOps<TypeParam>;
  int hits = 0;
  // 48-byte payload + pointer capture: 56 bytes, the inline capacity
  // and the size of the largest protocol captures (a continuous-mode
  // sharded delivery of a segment request or a nack: 40 bytes + the
  // 16-byte wrapper). 8 bytes more does not fit, and would not compile.
  std::array<std::uint64_t, 6> payload{};
  std::array<std::uint64_t, 7> over{};
  const auto fitting = [&hits, payload] { hits += static_cast<int>(payload[0]) + 1; };
  const auto oversized = [&hits, over] { hits += static_cast<int>(over[0]) + 1; };
  static_assert(sizeof(fitting) == kInlineActionCapacity);
  static_assert(fits_inline<decltype(fitting)>);
  static_assert(!fits_inline<decltype(oversized)>);
  TypeParam small(Ops::adapt([&hits] { ++hits; }));
  TypeParam big(Ops::adapt(fitting));
  Ops::call(small);
  Ops::call(big);
  EXPECT_EQ(hits, 2);
}

TEST(SmallBufferAction, FitsInlineNeedsNothrowMove) {
  // A copy of a const vector is a const member of the closure, so
  // moving the closure copies the vector, which may throw: the capture
  // must move its contents in (as the graceful-leave handover does).
  const std::vector<int> contents{1, 2, 3};
  auto by_copy = [contents] { (void)contents.size(); };
  auto by_move = [moved = std::vector<int>(contents)] { (void)moved.size(); };
  static_assert(!fits_inline<decltype(by_copy)>);
  static_assert(fits_inline<decltype(by_move)>);
  by_copy();
  by_move();
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

// --- EventQueue -----------------------------------------------------------
//
// Events enter only through emplace and leave only through the engines'
// own exits: acquire_due + execute_and_release (the exact engine's run
// loop, as in Simulator::drain) or collect_window + execute_collected
// (the windowed engine's). Each test action writes a tag, so the tests
// identify events by what actually ran.

constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();

/// An action that appends `tag` to `log` when it runs.
auto tagged(std::vector<int>& log, int tag) {
  return [&log, tag] { log.push_back(tag); };
}

/// Runs every event due at or before `horizon` through the exact
/// engine's exit; returns the fire times in order.
std::vector<SimTime> drain(EventQueue& q, SimTime horizon = kForever) {
  std::vector<SimTime> times;
  EventQueue::DueEvent due;
  while (q.acquire_due(horizon, due)) {
    times.push_back(due.time);
    q.execute_and_release(due);
  }
  return times;
}

/// Runs the earliest pending event; false when the queue is empty.
bool run_next(EventQueue& q) {
  EventQueue::DueEvent due;
  if (!q.acquire_due(kForever, due)) return false;
  q.execute_and_release(due);
  return true;
}

TEST(EventQueue, DrainsInTimeOrder) {
  EventQueue q;
  std::vector<int> log;
  (void)q.emplace(3.0, tagged(log, 3));
  (void)q.emplace(1.0, tagged(log, 1));
  (void)q.emplace(2.0, tagged(log, 2));
  EXPECT_EQ(drain(q), (std::vector<SimTime>{1.0, 2.0, 3.0}));
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> log;
  const EventId a = q.emplace(1.0, tagged(log, 0));
  const EventId b = q.emplace(1.0, tagged(log, 1));
  const EventId c = q.emplace(1.0, tagged(log, 2));
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  (void)drain(q);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelPendingEvent) {
  EventQueue q;
  std::vector<int> log;
  const EventId a = q.emplace(1.0, tagged(log, 0));
  (void)q.emplace(2.0, tagged(log, 1));
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  (void)drain(q);
  EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, CancelUnknownIsNoOp) {
  EventQueue q;
  (void)q.emplace(1.0, [] {});
  EXPECT_FALSE(q.cancel(kInvalidEvent));
  EXPECT_FALSE(q.cancel(0xFFFFFF000000ULL));  // never-issued id
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelFiredIsNoOp) {
  EventQueue q;
  const EventId id = q.emplace(1.0, [] {});
  ASSERT_TRUE(run_next(q));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const EventId a = q.emplace(1.0, [] {});
  (void)q.emplace(2.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PeekSkipsCancelled) {
  EventQueue q;
  const EventId a = q.emplace(1.0, [] {});
  const EventId b = q.emplace(5.0, [] {});
  q.cancel(a);
  SimTime time = 0.0;
  EventId id = kInvalidEvent;
  ASSERT_TRUE(q.peek(time, id));
  EXPECT_DOUBLE_EQ(time, 5.0);
  EXPECT_EQ(id, b);
  q.cancel(b);
  EXPECT_FALSE(q.peek(time, id));
}

TEST(EventQueue, EmptyActionRejectedConsistently) {
  EventQueue q;
  EXPECT_THROW((void)q.emplace(1.0, std::function<void()>{}), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  // The queue stays usable: the reaped heap entry must not disturb
  // later scheduling.
  bool fired = false;
  (void)q.emplace(2.0, [&fired] { fired = true; });
  EXPECT_EQ(drain(q), (std::vector<SimTime>{2.0}));
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

TEST(EventQueue, AcquireDueRespectsHorizon) {
  EventQueue q;
  (void)q.emplace(1.0, [] {});
  (void)q.emplace(3.0, [] {});
  EventQueue::DueEvent due;
  ASSERT_TRUE(q.acquire_due(2.0, due));
  EXPECT_DOUBLE_EQ(due.time, 1.0);
  q.execute_and_release(due);
  EXPECT_FALSE(q.acquire_due(2.0, due));
  EXPECT_EQ(q.size(), 1u);
  ASSERT_TRUE(q.acquire_due(3.0, due));  // an event at the horizon is due
  q.execute_and_release(due);
  EXPECT_FALSE(q.acquire_due(100.0, due));
}

// Generation stamping: a slot freed by execution or cancel and reused
// by a later emplace must reject the stale id — the regression the
// slot-pool design exists to prevent.
TEST(EventQueue, StaleCancelCannotKillSlotReuser) {
  EventQueue q;
  const EventId old_id = q.emplace(1.0, [] {});
  ASSERT_TRUE(run_next(q));  // frees the slot
  bool fired = false;
  const EventId new_id = q.emplace(2.0, [&fired] { fired = true; });
  EXPECT_EQ(old_id & EventQueue::kSlotMask, new_id & EventQueue::kSlotMask)
      << "test premise: the slot must be reused";
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id)) << "stale cancel must be a no-op";
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(drain(q), (std::vector<SimTime>{2.0}));
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleCancelAfterCancelAndReuse) {
  EventQueue q;
  std::vector<int> log;
  const EventId old_id = q.emplace(5.0, tagged(log, 0));
  EXPECT_TRUE(q.cancel(old_id));
  const EventId new_id = q.emplace(7.0, tagged(log, 1));
  EXPECT_EQ(old_id & EventQueue::kSlotMask, new_id & EventQueue::kSlotMask);
  EXPECT_FALSE(q.cancel(old_id));
  (void)drain(q);
  EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, StaleIdsNeverMatchFreeListLinks) {
  // A free slot's side id entry holds the free-list link: a bare slot
  // index, or the terminator kSlotMask, never sequence bits. Free two
  // pool blocks' worth of slots so the first-freed slot holds the
  // terminator and the pool's top index holds a link; no stale id may
  // cancel either, before or after the slots are reused.
  constexpr std::uint32_t kSlots = 600;
  EventQueue q;
  std::vector<EventId> first;
  for (std::uint32_t i = 0; i < kSlots; ++i) first.push_back(q.emplace(1.0 + i, [] {}));
  const EventId top = first.back();
  ASSERT_EQ(top & EventQueue::kSlotMask, kSlots - 1);
  for (const EventId id : first) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  for (const EventId id : first) EXPECT_FALSE(q.cancel(id));
  // Values a link can take, read as ids, match nothing either.
  for (EventId link = 0; link < kSlots; ++link) EXPECT_FALSE(q.cancel(link));
  EXPECT_FALSE(q.cancel(EventQueue::kSlotMask));

  // Reuse every slot, including the top index, then free them through
  // the run loop's release path.
  std::vector<EventId> second;
  for (std::uint32_t i = 0; i < kSlots; ++i) second.push_back(q.emplace(2.0, [] {}));
  EXPECT_EQ(q.size(), kSlots);
  for (const EventId id : first) EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), kSlots);
  EXPECT_FALSE(q.collected_live(EventQueue::WindowRef{1.0, top}));
  EXPECT_EQ(drain(q, 10.0).size(), kSlots);
  for (const EventId id : first) EXPECT_FALSE(q.cancel(id));
  for (const EventId id : second) EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  // The pool is reused, not grown: the freed slots serve a third round.
  const std::size_t bytes = q.approx_bytes();
  for (std::uint32_t i = 0; i < kSlots; ++i) (void)q.emplace(3.0, [] {});
  EXPECT_EQ(q.approx_bytes(), bytes);
}

TEST(EventQueue, PeakSizeTracksHighWaterMark) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.emplace(i, [] {}));
  EXPECT_EQ(drain(q, 3.0).size(), 4u);
  (void)q.emplace(99.0, [] {});
  EXPECT_EQ(q.peak_size(), 8u);
  EXPECT_EQ(q.size(), 5u);
}

// Property test: N randomized schedule/cancel/run interleavings must
// produce exactly the execution order of a reference model (stable
// sort by (time, schedule order), minus cancelled entries). Each event
// is tagged with its schedule index.
TEST(EventQueue, RandomizedInterleavingsMatchReferenceModel) {
  struct ModelEntry {
    double time;
    EventId id;
    bool cancelled = false;
  };
  util::Rng rng(0xE7E77u);
  for (int trial = 0; trial < 100; ++trial) {
    EventQueue q;
    std::vector<ModelEntry> model;   // schedule order; index = tag
    std::vector<int> executed;       // tags, in run order
    std::vector<int> live;           // tags, candidates for cancellation

    const int ops = 120;
    for (int op = 0; op < ops; ++op) {
      const double roll = rng.next_double();
      if (roll < 0.55) {
        // Schedule at a coarse-grained time so equal-time ties are common.
        const double time = static_cast<double>(rng.next_below(16));
        const int tag = static_cast<int>(model.size());
        model.push_back(ModelEntry{time, q.emplace(time, tagged(executed, tag))});
        live.push_back(tag);
      } else if (roll < 0.75 && !live.empty()) {
        // Cancel a random outstanding event (it may already have run).
        const int tag = live[rng.next_below(live.size())];
        ModelEntry& entry = model[static_cast<std::size_t>(tag)];
        const bool was_pending = q.cancel(entry.id);
        const bool already_done =
            std::find(executed.begin(), executed.end(), tag) != executed.end();
        EXPECT_EQ(was_pending, !already_done && !entry.cancelled);
        if (was_pending) entry.cancelled = true;
      } else {
        (void)run_next(q);
      }
    }
    (void)drain(q);

    // Reference order: stable sort by time (tags are schedule order),
    // skipping cancelled entries.
    std::vector<int> expected;
    for (std::size_t tag = 0; tag < model.size(); ++tag) {
      if (!model[tag].cancelled) expected.push_back(static_cast<int>(tag));
    }
    std::stable_sort(expected.begin(), expected.end(), [&model](int a, int b) {
      return model[static_cast<std::size_t>(a)].time <
             model[static_cast<std::size_t>(b)].time;
    });
    // Interleaved runs always take the pending minimum, so the full run
    // must execute exactly the non-cancelled set...
    std::vector<int> sorted_exec(executed);
    std::sort(sorted_exec.begin(), sorted_exec.end());
    std::vector<int> sorted_expect(expected);
    std::sort(sorted_expect.begin(), sorted_expect.end());
    ASSERT_EQ(sorted_exec, sorted_expect) << "trial " << trial;

    // ...and replaying the same schedule/cancel sequence with no
    // interleaved runs must drain in exactly the reference order.
    EventQueue q2;
    std::vector<int> drained;
    std::vector<EventId> replay_ids;
    for (std::size_t tag = 0; tag < model.size(); ++tag) {
      replay_ids.push_back(
          q2.emplace(model[tag].time, tagged(drained, static_cast<int>(tag))));
    }
    for (std::size_t tag = 0; tag < model.size(); ++tag) {
      if (model[tag].cancelled) q2.cancel(replay_ids[tag]);
    }
    (void)drain(q2);
    ASSERT_EQ(drained, expected) << "trial " << trial;
  }
}

/// Where RunHeapAgainstOracle draws its event times from.
enum class OracleTimes {
  /// A small table (many exact ties, -0.0 next to +0.0, negatives,
  /// infinities), plus a quarter-second grid at large caps.
  kTable,
  /// The calendar's seams, relative to the last time taken out: exact
  /// k/1024 bucket edges and their neighbouring doubles, times around
  /// the one-second ring horizon, long gaps that leave only far
  /// entries (the cursor jumps to far's head), repeats of earlier
  /// times (equal times on both sides of a far-to-ring migration), and
  /// the table's infinities and negatives now and then.
  kCalendarSeams,
};

// Queue property test: random interleavings of every queue operation
// against a std::set<(time, id)> oracle, so the (time, id) order is
// exercised where the heaps' packed key and the calendar's bucket index
// have to agree with the double compare. `cap` bounds the pending
// count: caps 0-5 walk every shape of a partial last child group, the
// large cap keeps ~100k entries pending. Cancels hit entries wherever
// they sit: near, the ring or far.
void RunHeapAgainstOracle(std::uint64_t seed, std::size_t cap, std::size_t ops,
                          std::size_t fill, OracleTimes times = OracleTimes::kTable) {
  const double inf = std::numeric_limits<double>::infinity();
  const double kTimes[] = {-inf, -1e300, -2.5, -1.0,
                           -std::numeric_limits<double>::denorm_min(),
                           -0.0, 0.0, 0.0, -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           0.25, 1.0, 1.0, 1.0, 2.0, 1e300, inf};
  constexpr std::size_t kTimeCount = sizeof(kTimes) / sizeof(kTimes[0]);
  util::Rng rng(seed);
  // The last finite time taken out of the queue: seam times are drawn
  // relative to it, so they land around the calendar's cursor.
  double clock = 0.0;
  std::vector<double> recent;  // earlier seam draws, for repeats
  const auto draw_seam = [&] {
    const double roll = rng.next_double();
    const double edge = std::floor(clock * 1024.0) / 1024.0;
    double t;
    if (roll < 0.30) {  // an exact bucket edge up to two seconds ahead
      t = edge + static_cast<double>(rng.next_below(2048)) / 1024.0;
    } else if (roll < 0.50) {  // one double either side of an edge
      t = edge + static_cast<double>(rng.next_below(2048)) / 1024.0;
      t = std::nextafter(t, rng.next_bool(0.5) ? inf : -inf);
    } else if (roll < 0.65) {  // around the ring's one-second horizon
      t = edge + 1.0 + static_cast<double>(rng.next_below(9)) / 1024.0 - 4.0 / 1024.0;
      if (rng.next_bool(0.5)) t = std::nextafter(t, rng.next_bool(0.5) ? inf : -inf);
    } else if (roll < 0.75) {  // a long gap: only far holds it
      t = clock + 3.0 + rng.next_double() * 40.0;
    } else if (roll < 0.95 && !recent.empty()) {  // an earlier time again
      t = recent[rng.next_below(recent.size())];
    } else {
      t = kTimes[rng.next_below(kTimeCount)];
    }
    if (recent.size() < 64) {
      recent.push_back(t);
    } else {
      recent[rng.next_below(recent.size())] = t;
    }
    return t;
  };
  const auto draw_time = [&] {
    if (times == OracleTimes::kCalendarSeams) return draw_seam();
    if (cap > 16 && rng.next_double() < 0.9) {
      return static_cast<double>(rng.next_below(4096)) * 0.25 - 100.0;
    }
    return kTimes[rng.next_below(kTimeCount)];
  };
  const auto advance_clock = [&](double t) {
    if (std::isfinite(t) && t > clock && t < 1e6) clock = t;
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
  const auto schedule = [&] {
    const double time = draw_time();
    const std::uint64_t tag = next_tag++;
    const EventId id = q.emplace(time, [&ran_tag, tag] { ran_tag = tag; });
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
    schedule();
  }
  for (std::size_t op = 0; op < ops; ++op) {
    const double roll = rng.next_double();
    std::pair<double, EventId> want{};
    if (roll < 0.40) {
      if (oracle.size() < cap) schedule();
    } else if (roll < 0.50) {
      if (issued.empty()) continue;
      const EventId id = issued[rng.next_below(issued.size())];
      const bool live = oracle.erase({info[id].time, id}) > 0;
      ASSERT_EQ(q.cancel(id), live);
    } else if (roll < 0.80) {
      const double limit = horizon();
      EventQueue::DueEvent due{};
      const bool expected = expect_due(limit, want);
      ASSERT_EQ(q.acquire_due(limit, due), expected);
      if (expected) {
        ASSERT_EQ(due.time, want.first);
        advance_clock(due.time);
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
        advance_clock(refs[k].time);
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
    // Every pending event holds a pool slot and a 16-byte calendar
    // entry (near, ring chunk or far), and approx_bytes counts both.
    ASSERT_GE(q.approx_bytes(), q.size() * (EventQueue::kSlotBytes + 16)) << "op " << op;
  }
  ASSERT_GE(q.peak_size(), std::min(cap, fill));
  // The full drain must reproduce the oracle's order exactly.
  std::vector<std::uint64_t> drained;
  EventQueue::DueEvent due;
  while (q.acquire_due(kForever, due)) {
    q.execute_and_release(due);
    drained.push_back(ran_tag);
  }
  std::vector<std::uint64_t> expected;
  for (const auto& entry : oracle) expected.push_back(info[entry.second].tag);
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

// The same oracle over the calendar's seams. Small caps empty the ring
// often (the cursor re-seats and jumps to far's head); the larger ones
// keep hundreds to thousands of entries spread over near, the ring and
// far while the cursor sweeps bucket edges and the horizon.
TEST(EventQueue, HeapMatchesOrderedSetOracleAtCalendarSeams) {
  const std::size_t kCaps[] = {1, 4, 32, 600, 6000};
  for (const std::size_t cap : kCaps) {
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
      SCOPED_TRACE(testing::Message() << "cap " << cap << " trial " << trial);
      RunHeapAgainstOracle(0x5EA35u + 1000 * cap + trial, cap, 4000, cap,
                           OracleTimes::kCalendarSeams);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

// Slot reuse under heavy churn: the pool stays compact and ids never
// collide even when most schedules land on recycled slots.
TEST(EventQueue, HeavySlotRecyclingKeepsIdsUnique) {
  EventQueue q;
  util::Rng rng(99);
  std::vector<EventId> pending;
  std::vector<EventId> all_ids;
  for (int round = 0; round < 2000; ++round) {
    const EventId id = q.emplace(rng.next_double() * 100.0, [] {});
    all_ids.push_back(id);
    pending.push_back(id);
    if (pending.size() > 32) {
      const std::size_t pick = rng.next_below(pending.size());
      q.cancel(pending[pick]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (round % 3 == 0) (void)run_next(q);
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

// --- RoundScheduler --------------------------------------------------------

TEST(RoundScheduler, TicksMatchEquivalentPeriodicProcesses) {
  // The determinism contract: a RoundScheduler fleet fires at exactly
  // the times (and in exactly the order) of one self-rescheduling event
  // per participant, each re-armed at next = fired + period after its
  // tick.
  Simulator ref_sim;
  std::vector<std::pair<double, std::size_t>> ref_ticks;
  std::function<void(std::size_t)> tick = [&](std::size_t i) {
    ref_ticks.emplace_back(ref_sim.now(), i);
    ref_sim.schedule_at(ref_sim.now() + 1.0, [&tick, i] { tick(i); });
  };
  const std::array<double, 3> phases = {0.31, 0.07, 0.83};
  for (std::size_t i = 0; i < phases.size(); ++i) {
    ref_sim.schedule_at(phases[i], [&tick, i] { tick(i); });
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
