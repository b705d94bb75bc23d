// Tests for the windowed engine: the sharded queue's window anchor
// against an ordered-set oracle, swept delivery buckets against the exact engine's
// proxy-fired ones (including forwards made inside a swept window),
// window semantics (fence correctness — no event
// beyond the skew window, emissions invisible to their own window —
// cancel semantics under skew, inline-vs-threaded collection identity,
// randomized bounded-skew storms, per-receiver FIFO under skew) and
// session-level gates (engine selection, fixed-skew thread-invariance
// at threads {1,2,4,8} x skew {1,4}).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "net/latency_model.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"
#include "sim/parallel/executor.hpp"
#include "sim/sharded_queue.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace continu {
namespace {

using sim::ShardedEventQueue;

/// One-thread executor for the networks built here: it runs every
/// fork inline on the calling thread.
sim::parallel::ParallelExecutor& serial_exec() {
  static sim::parallel::ParallelExecutor exec(1);
  return exec;
}

sim::Simulator::LaxConfig windowed(
    unsigned skew, double grid_s,
    sim::parallel::ParallelExecutor* exec = &serial_exec()) {
  sim::Simulator::LaxConfig lax;
  lax.skew_buckets = skew;
  lax.grid_s = grid_s;
  lax.exec = exec;
  return lax;
}

// ---------------------------------------------------------------------------
// Sharded queue: the window anchor
// ---------------------------------------------------------------------------

TEST(ShardedQueue, CancelOfTheHeadMovesTheAnchor) {
  ShardedEventQueue queue(/*skew_buckets=*/1);
  std::vector<int> fired;
  auto push_at = [&](double when, int token) {
    return queue.emplace(when, [&fired, token] { fired.push_back(token); });
  };
  const sim::EventId head = push_at(1.0, 0);
  (void)push_at(2.0, 1);
  (void)push_at(3.0, 2);
  SimTime t = 0.0;
  ASSERT_TRUE(queue.next_time(t));
  EXPECT_EQ(t, 1.0);
  EXPECT_TRUE(queue.cancel(head));
  EXPECT_FALSE(queue.cancel(head));  // second cancel is stale
  ASSERT_TRUE(queue.next_time(t));
  EXPECT_EQ(t, 2.0);  // the anchor advanced past the cancelled head
  EXPECT_EQ(queue.size(), 2u);
}

TEST(ShardedQueue, AnchorMatchesOrderedSetOracle) {
  // Drives the queue directly, as the window loop does, through random
  // pushes (often at colliding instants), cancels of the head, of
  // arbitrary (often stale) handles and of refs collected but not yet
  // executed, and collect/finish/execute cycles at random limits over a
  // random subset of shards, so windows drain only part of the pending
  // set. After every operation the anchor must be the earliest time in
  // an ordered (time, seq) oracle of the events still in the shard
  // heaps — false exactly when none are — and size() must count those
  // plus the collected refs still live.
  using Key = std::tuple<SimTime, std::uint64_t, sim::EventId>;  // time, seq, id
  constexpr double kGrid = 0.25;
  for (std::uint64_t trial = 0; trial < 20 && !::testing::Test::HasFailure();
       ++trial) {
    ShardedEventQueue queue(/*skew_buckets=*/4);
    util::Rng rng(9100 + trial);
    std::set<Key> pending;    // in a shard heap
    std::set<Key> collected;  // in a window list, not yet executed
    std::vector<sim::EventId> handles;
    std::vector<sim::EventId> ran;
    SimTime latest_anchor = 0.0;  // latest anchor seen; new pushes land after it
    bool window_open = false;

    std::function<void(SimTime)> push = [&](SimTime when) {
      const std::size_t token = handles.size();
      const sim::EventId id = queue.emplace(when, [&, token, when] {
        ran.push_back(handles[token]);
        // Emissions from inside a window land in the heaps, not in it.
        if (rng.next_below(4) == 0) push(when + kGrid * rng.next_below(3));
      });
      handles.push_back(id);
      pending.emplace(when, id >> sim::EventQueue::kSlotBits, id);
    };
    const auto erase_live = [&](sim::EventId id) {
      for (std::set<Key>* set : {&pending, &collected}) {
        for (auto it = set->begin(); it != set->end(); ++it) {
          if (std::get<2>(*it) == id) {
            set->erase(it);
            return true;
          }
        }
      }
      return false;
    };
    const auto check = [&](const char* op) {
      SimTime anchor = -1.0;
      const bool has_anchor = queue.next_time(anchor);
      ASSERT_EQ(has_anchor, !pending.empty()) << op;
      if (has_anchor) {
        ASSERT_EQ(anchor, std::get<0>(*pending.begin())) << op;
        latest_anchor = std::max(latest_anchor, anchor);
      }
      ASSERT_EQ(queue.size(), pending.size() + collected.size()) << op;
      ASSERT_EQ(queue.empty(), pending.empty() && collected.empty()) << op;
    };
    const auto open_window = [&](SimTime limit, bool all_shards) {
      SimTime anchor = 0.0;
      if (!queue.next_time(anchor)) return;
      bool chosen[ShardedEventQueue::kShards] = {};
      for (std::uint32_t s = 0; s < ShardedEventQueue::kShards; ++s) {
        chosen[s] = all_shards || rng.next_below(4) != 0;
        if (chosen[s]) queue.collect_window(s, limit);
      }
      queue.finish_window(anchor, kGrid);
      for (auto it = pending.begin(); it != pending.end();) {
        const auto shard = std::get<1>(*it) & (ShardedEventQueue::kShards - 1);
        if (std::get<0>(*it) <= limit && chosen[shard]) {
          collected.insert(*it);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      window_open = true;
    };
    const auto run_window = [&] {
      // Shard-index order, then each shard's own (time, seq) order.
      std::vector<Key> order(collected.begin(), collected.end());
      std::stable_sort(order.begin(), order.end(), [](const Key& a, const Key& b) {
        return (std::get<1>(a) & (ShardedEventQueue::kShards - 1)) <
               (std::get<1>(b) & (ShardedEventQueue::kShards - 1));
      });
      std::vector<sim::EventId> expected;
      for (const Key& key : order) expected.push_back(std::get<2>(key));
      collected.clear();
      ran.clear();
      EXPECT_EQ(queue.execute_window([](SimTime) {}), expected.size());
      EXPECT_EQ(ran, expected);
      window_open = false;
    };

    for (int op = 0; op < 400 && !::testing::Test::HasFailure(); ++op) {
      const std::uint64_t roll = rng.next_below(100);
      if (roll < 40) {
        push(latest_anchor + kGrid * static_cast<double>(rng.next_below(12)));
        check("push");
      } else if (roll < 50) {
        if (pending.empty()) continue;
        EXPECT_TRUE(queue.cancel(std::get<2>(*pending.begin())));
        pending.erase(pending.begin());
        check("cancel head");
      } else if (roll < 58) {
        if (collected.empty()) continue;
        auto it = collected.begin();
        std::advance(it, static_cast<long>(rng.next_below(collected.size())));
        EXPECT_TRUE(queue.cancel(std::get<2>(*it)));
        collected.erase(it);
        check("cancel collected");
      } else if (roll < 70) {
        if (handles.empty()) continue;
        const sim::EventId id = handles[rng.next_below(handles.size())];
        const bool live = erase_live(id);
        EXPECT_EQ(queue.cancel(id), live);
        check("cancel handle");
      } else if (roll < 85) {
        if (window_open) continue;
        SimTime anchor = 0.0;
        if (!queue.next_time(anchor)) continue;
        open_window(anchor + kGrid * static_cast<double>(rng.next_below(6)),
                    /*all_shards=*/false);
        check("collect");
      } else {
        if (!window_open) continue;
        run_window();
        check("execute");
      }
    }
    // Drain: full windows until nothing is pending or collected.
    if (window_open) run_window();
    while (!::testing::Test::HasFailure() && !queue.empty()) {
      SimTime anchor = 0.0;
      ASSERT_TRUE(queue.next_time(anchor));
      open_window(anchor + kGrid, /*all_shards=*/true);
      check("drain collect");
      run_window();
      check("drain execute");
    }
    EXPECT_TRUE(pending.empty()) << "trial " << trial;
    EXPECT_GT(queue.lax_windows(), 0u) << "trial " << trial;
  }
}

// Drives one simulator through a deterministic schedule/cancel storm:
// root events at random (often colliding) times, children scheduled
// from inside handlers (cross-shard by construction — sequences spread
// round-robin), random cancels of still-pending handles, plus deferred
// batches. The execution log (time, token) is the equivalence witness.
struct Storm {
  sim::Simulator& sim;
  util::Rng rng;
  std::vector<sim::EventId> handles;
  std::vector<std::pair<double, int>> log;
  int next_token = 0;

  explicit Storm(sim::Simulator& s, std::uint64_t seed) : sim(s), rng(seed) {}

  void fire(int token) {
    log.emplace_back(sim.now(), token);
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 35) {
      // Child event, possibly at the SAME instant (tie across shards).
      const double dt = (roll < 10) ? 0.0 : 0.25 * static_cast<double>(rng.next_below(8));
      schedule(sim.now() + dt);
    }
    if (roll >= 90 && !handles.empty()) {
      // Cancel a random pending-or-stale handle; cancelling a fired id
      // must be a harmless no-op on both engines.
      (void)sim.cancel(handles[rng.next_below(handles.size())]);
    }
  }

  void schedule(double when) {
    const int token = next_token++;
    Storm* self = this;
    handles.push_back(sim.schedule_at(when, [self, token] { self->fire(token); }));
  }
};

// ---------------------------------------------------------------------------
// Swept buckets (windowed engine) vs proxy-fired buckets (exact engine)
// ---------------------------------------------------------------------------

TEST(WindowedHandoff, SweptNetworkMatchesBucketedNetwork) {
  // Two simulators, one per engine, each with a quantized Network; the
  // same send_sharded workload must deliver in the same order at the
  // same instants with the same counters. The handlers schedule
  // nothing, so every window only sweeps buckets, in instant order —
  // the sweep must fire them exactly as the proxies do. A one-thread
  // executor runs the forks inline with the same shard decomposition.
  auto run = [](unsigned skew) {
    sim::Simulator sim(windowed(skew, /*grid_s=*/0.002));
    net::Network net(sim, serial_exec(), net::LatencyModel({10.0, 20.0, 30.0, 40.0}, 5.0,
                                            /*grid_ms=*/2.0));
    EXPECT_EQ(sim.windowed(), skew > 0);
    std::vector<std::pair<double, int>> log;
    auto* logp = &log;
    for (int wave = 0; wave < 5; ++wave) {
      for (std::uint32_t from = 0; from < 2; ++from) {
        for (std::uint32_t to = 0; to < 4; ++to) {
          const int token = (wave * 2 + static_cast<int>(from)) * 4 +
                            static_cast<int>(to);
          sim::Simulator* simp = &sim;
          net.send_sharded(from, to, net::MessageType::kBufferMap,
                           /*bits=*/100,
                           [logp, simp, token](net::DeliveryContext&) {
                             logp->emplace_back(simp->now(), token);
                           },
                           /*extra_delay=*/0.01 * wave);
        }
      }
    }
    sim.run_until(10.0);
    return std::make_tuple(std::move(log), net.delivery_batches(),
                           net.batched_deliveries(), sim.executed());
  };
  const auto bucketed = run(0);
  ASSERT_FALSE(std::get<0>(bucketed).empty());
  for (const unsigned skew : {1u, 4u}) {
    const auto swept = run(skew);
    EXPECT_EQ(std::get<0>(bucketed), std::get<0>(swept)) << "skew " << skew;
    EXPECT_EQ(std::get<1>(bucketed), std::get<1>(swept)) << "skew " << skew;
    EXPECT_EQ(std::get<2>(bucketed), std::get<2>(swept)) << "skew " << skew;
    EXPECT_EQ(std::get<3>(bucketed), std::get<3>(swept)) << "skew " << skew;
  }
}

TEST(WindowedHandoff, SweepCountersTrackWindows) {
  sim::Simulator sim(windowed(/*skew=*/1, /*grid_s=*/0.001));
  net::Network net(sim, serial_exec(),
                   net::LatencyModel({10.0, 20.0}, 5.0, /*grid_ms=*/1.0));
  ASSERT_TRUE(sim.windowed());
  int delivered = 0;
  auto* dp = &delivered;
  net.send_sharded(0, 1, net::MessageType::kBufferMap, 64,
                   [dp](net::DeliveryContext&) { ++*dp; });
  net.send_sharded(1, 0, net::MessageType::kBufferMap, 64,
                   [dp](net::DeliveryContext&) { ++*dp; });
  sim.run_until(1.0);
  EXPECT_EQ(delivered, 2);
  EXPECT_GT(net.lax_handoff_windows(), 0u);
  EXPECT_EQ(net.delivery_batches(), sim.executed());
}

TEST(WindowedHandoff, ForwardInsideASweptWindowFencesToTheNextWindow) {
  // Grid 1 ms, skew 4: one window covers both the 10 ms and the 12 ms
  // bucket. The 10 ms handler forwards to 12 ms, where a batch is
  // already pending. On the exact engine the forward joins that bucket;
  // on the windowed engine the sweep detached it before dispatching, so
  // the forward files into a fresh 12 ms bucket that fires one window
  // later. Deliveries, order and instants agree; only the batch count
  // tells the two apart.
  auto run = [](unsigned skew) {
    sim::Simulator sim(windowed(skew, /*grid_s=*/0.001));
    net::Network net(sim, serial_exec(), net::LatencyModel({10.0, 20.0, 30.0}, 5.0,
                                            /*grid_ms=*/1.0));
    std::vector<std::pair<double, int>> log;
    auto* logp = &log;
    sim::Simulator* simp = &sim;
    // Mid-step instants snap up to 10 ms and 12 ms without rounding
    // ambiguity.
    net.post_sharded(1, 0.0095, [logp, simp](net::DeliveryContext& ctx) {
      logp->emplace_back(simp->now(), 0);
      ctx.forward(1, 0.0115, [logp, simp](net::DeliveryContext&) {
        logp->emplace_back(simp->now(), 2);
      });
    });
    net.post_sharded(2, 0.0115, [logp, simp](net::DeliveryContext&) {
      logp->emplace_back(simp->now(), 1);
    });
    sim.run_all();
    return std::make_pair(std::move(log), net.delivery_batches());
  };
  const auto exact = run(0);
  const std::vector<std::pair<double, int>> expected = {
      {0.010, 0}, {0.012, 1}, {0.012, 2}};
  ASSERT_EQ(exact.first.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(exact.first[i].first, expected[i].first) << "delivery " << i;
    EXPECT_EQ(exact.first[i].second, expected[i].second) << "delivery " << i;
  }
  EXPECT_EQ(exact.second, 2u);
  const auto swept = run(4);
  EXPECT_EQ(swept.first, exact.first);
  EXPECT_EQ(swept.second, 3u);
}

// ---------------------------------------------------------------------------
// Window semantics
// ---------------------------------------------------------------------------

TEST(WindowedEngine, SkewZeroIsExactAndWindowsNeedAGridAndAnExecutor) {
  EXPECT_FALSE(sim::Simulator(windowed(0, 1.0)).windowed());
  EXPECT_FALSE(sim::Simulator(windowed(0, 1.0, nullptr)).windowed());
  EXPECT_TRUE(sim::Simulator(windowed(1, 1.0)).windowed());
  EXPECT_THROW(sim::Simulator(windowed(1, 0.0)), std::logic_error);
  EXPECT_THROW(sim::Simulator(windowed(1, 1.0, nullptr)), std::logic_error);
  struct NoFrontier final : sim::Frontier {
    bool next_time(SimTime&) const override { return false; }
    std::size_t dispatch_window(SimTime) override { return 0; }
  } none;
  sim::Simulator exact;
  EXPECT_THROW(exact.set_frontier(none), std::logic_error);
  EXPECT_THROW((void)exact.allocate_seq(), std::logic_error);
}

TEST(WindowedEngine, WindowsFenceEmissionsAndBoundTheClock) {
  // skew 2 x grid 1.0 => window width 2.0. Four roots (seq 1..4 ->
  // shards 1..4) and one child (seq 5 -> shard 5) emitted mid-window.
  sim::Simulator sim(windowed(/*skew=*/2, /*grid_s=*/1.0));
  ASSERT_TRUE(sim.windowed());
  std::vector<std::pair<double, int>> log;
  auto fire = [&](int token) { log.emplace_back(sim.now(), token); };
  sim.schedule_at(0.0, [&] {
    fire(0);
    // Emitted DURING window [0, 2]: collection already happened, so
    // this fences to the next window even though 1.0 <= limit.
    sim.schedule_at(1.0, [&] { fire(4); });
  });
  sim.schedule_at(1.5, [&] { fire(1); });
  sim.schedule_at(2.5, [&] { fire(2); });
  sim.schedule_at(5.0, [&] { fire(3); });
  sim.run_until(10.0);

  // Window 1 [0,2]: tok0 then tok1 (shard order). Window 2 anchors at
  // the fenced child [1,3]: tok2 (shard 3) then tok4 (shard 5) — the
  // clock steps BACK 2.5 -> 1.0, within the skew bound. Window 3 [5,7]:
  // tok3.
  const std::vector<std::pair<double, int>> expected = {
      {0.0, 0}, {1.5, 1}, {2.5, 2}, {1.0, 4}, {5.0, 3}};
  EXPECT_EQ(log, expected);

  // Bounded-skew invariant: no event runs more than skew*grid behind
  // the furthest clock already observed.
  double high_water = 0.0;
  for (const auto& [t, tok] : log) {
    EXPECT_GE(t, high_water - 2.0) << "token " << tok;
    high_water = std::max(high_water, t);
  }

  const auto* queue = sim.sharded_queue();
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->lax_windows(), 3u);
  EXPECT_EQ(queue->lax_events_drained(), 5u);
  // Of 8 shards, windows 1 and 2 feed two each, window 3 feeds one.
  EXPECT_EQ(queue->lax_stalled_shards(), 6u + 6u + 7u);
  // Leads: three events at their window anchor (tok0, tok4, tok3), two
  // one bucket ahead (tok1, tok2).
  ASSERT_EQ(queue->lax_lead_histogram().size(), 3u);
  EXPECT_EQ(queue->lax_lead_histogram()[0], 3u);
  EXPECT_EQ(queue->lax_lead_histogram()[1], 2u);
  EXPECT_EQ(queue->lax_lead_histogram()[2], 0u);
}

TEST(WindowedEngine, StepRunsOneWindow) {
  sim::Simulator sim(windowed(/*skew=*/1, /*grid_s=*/1.0));
  int fired = 0;
  sim.schedule_at(0.0, [&] { ++fired; });
  sim.schedule_at(0.5, [&] { ++fired; });  // same window as 0.0
  sim.schedule_at(3.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(sim.step());
}

TEST(WindowedEngine, CrossShardCancelInsideAWindowIsHonoured) {
  // A (shard 1) and B (shard 2) are collected into the SAME window;
  // A executes first and cancels B — the stale collected ref must be
  // skipped.
  sim::Simulator sim(windowed(/*skew=*/4, /*grid_s=*/1.0));
  std::vector<std::pair<double, int>> log;
  sim::EventId b = sim::kInvalidEvent;
  sim.schedule_at(0.0, [&] {
    log.emplace_back(sim.now(), 0);
    EXPECT_TRUE(sim.cancel(b));
    EXPECT_FALSE(sim.cancel(b));  // double cancel is a stale no-op
  });
  b = sim.schedule_at(1.5, [&] { log.emplace_back(sim.now(), 1); });
  const sim::EventId a_probe = sim.schedule_at(
      0.5, [&] { log.emplace_back(sim.now(), 2); });
  sim.run_until(10.0);
  const std::vector<std::pair<double, int>> expected = {{0.0, 0}, {0.5, 2}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_FALSE(sim.cancel(a_probe));  // already fired
}

TEST(WindowedEngine, ThreadedCollectionMatchesInlineCollection) {
  // The forked Phase A only POPS per-shard heaps; execution stays
  // serial. A 4-thread executor must therefore reproduce the log of a
  // one-thread executor (which collects inline) exactly, storm after
  // storm.
  sim::parallel::ParallelExecutor exec(4);
  sim::parallel::ParallelExecutor single(1);
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const unsigned skew = (trial % 2 == 0) ? 1u : 4u;
    auto run = [&](sim::parallel::ParallelExecutor* e) {
      sim::Simulator sim(windowed(skew, /*grid_s=*/0.5, e));
      Storm storm(sim, 7000 + trial);
      for (int i = 0; i < 40; ++i) {
        storm.schedule(0.5 * static_cast<double>(storm.rng.next_below(20)));
      }
      sim.run_until(64.0);
      return std::move(storm.log);
    };
    const auto inline_log = run(&single);
    const auto threaded_log = run(&exec);
    ASSERT_EQ(inline_log, threaded_log) << "trial " << trial << " skew " << skew;
  }
}

TEST(WindowedEngine, RandomStormsAreDeterministicOncePerTokenAndBounded) {
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    const unsigned skew = (trial % 2 == 0) ? 1u : 4u;
    const double grid = 0.5;
    auto run = [&] {
      sim::Simulator sim(windowed(skew, grid));
      Storm storm(sim, 4000 + trial);
      for (int i = 0; i < 40; ++i) {
        storm.schedule(0.5 * static_cast<double>(storm.rng.next_below(20)));
      }
      sim.run_until(64.0);
      return std::move(storm.log);
    };
    const auto log_a = run();
    const auto log_b = run();
    ASSERT_EQ(log_a, log_b) << "trial " << trial;  // run-to-run determinism

    // Every token fires at most once (cancel/execute race would double
    // fire), and the clock never regresses past the skew window.
    std::vector<int> seen;
    double high_water = 0.0;
    for (const auto& [t, tok] : log_a) {
      seen.push_back(tok);
      ASSERT_GE(t, high_water - skew * grid) << "trial " << trial;
      high_water = std::max(high_water, t);
    }
    std::sort(seen.begin(), seen.end());
    ASSERT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
        << "trial " << trial << ": a token fired twice";
  }
}

TEST(WindowedEngine, PerReceiverDeliveryOrderSurvivesSkew) {
  // Swept buckets under skew, with deliveries interleaved with
  // ordinary events: each receiver must still observe tokens in exactly
  // the order the exact engine delivers them.
  auto run = [](unsigned skew) {
    sim::Simulator sim(windowed(skew, /*grid_s=*/0.002));
    net::Network net(sim, serial_exec(), net::LatencyModel({10.0, 20.0, 30.0, 40.0}, 5.0,
                                            /*grid_ms=*/2.0));
    std::vector<std::vector<int>> per_receiver(4);
    auto* prp = &per_receiver;
    for (int wave = 0; wave < 6; ++wave) {
      sim.schedule_at(0.013 * wave, [] {});
      for (std::uint32_t from = 0; from < 2; ++from) {
        for (std::uint32_t to = 0; to < 4; ++to) {
          const int token = (wave * 2 + static_cast<int>(from)) * 4 +
                            static_cast<int>(to);
          net.send_sharded(from, to, net::MessageType::kBufferMap, /*bits=*/100,
                           [prp, to, token](net::DeliveryContext&) {
                             (*prp)[to].push_back(token);
                           },
                           /*extra_delay=*/0.013 * wave);
        }
      }
    }
    sim.run_until(10.0);
    return per_receiver;
  };
  const auto exact = run(0);
  for (const unsigned skew : {1u, 4u}) {
    const auto lax = run(skew);
    for (std::size_t to = 0; to < 4; ++to) {
      EXPECT_EQ(lax[to], exact[to]) << "receiver " << to << " skew " << skew;
      EXPECT_FALSE(exact[to].empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Session-level gates: engine selection and fixed-skew thread-invariance
// ---------------------------------------------------------------------------

std::uint64_t session_fingerprint(const trace::TraceSnapshot& snapshot,
                                  unsigned threads, double grid_ms,
                                  bool sharded_queue, unsigned queue_skew) {
  core::SystemConfig config;
  config.seed = 42;
  config.threads = threads;
  config.churn_enabled = true;
  config.latency_grid_ms = grid_ms;
  config.sharded_queue = sharded_queue;
  config.queue_skew_buckets = queue_skew;
  runner::ReplicationSpec spec;
  spec.config = config;
  spec.snapshot = std::make_shared<const trace::TraceSnapshot>(snapshot);
  spec.duration = 25.0;
  spec.stable_from = 15.0;
  return runner::result_fingerprint(runner::ExperimentRunner::run_one(spec));
}

TEST(WindowedSessions, IncompleteSelectionsRunTheExactEngine) {
  trace::GeneratorConfig tc;
  tc.node_count = 200;
  tc.seed = 21;
  const auto snapshot = trace::generate_snapshot(tc);
  // The windowed engine needs all three of sharded_queue, a skew and a
  // grid; anything less is the exact engine, byte for byte.
  EXPECT_EQ(session_fingerprint(snapshot, 1, 0.0, true, 4),
            session_fingerprint(snapshot, 1, 0.0, false, 0));
  const std::uint64_t exact = session_fingerprint(snapshot, 1, 1.0, false, 0);
  EXPECT_EQ(session_fingerprint(snapshot, 1, 1.0, true, 0), exact);
  EXPECT_EQ(session_fingerprint(snapshot, 1, 1.0, false, 4), exact);
}

TEST(WindowedSessions, FixedSkewIsThreadInvariant) {
  trace::GeneratorConfig tc;
  tc.node_count = 200;
  tc.seed = 21;
  const auto snapshot = trace::generate_snapshot(tc);
  const std::uint64_t exact = session_fingerprint(snapshot, 1, 1.0, false, 0);
  // Fixed skew: a DIFFERENT deterministic universe, identical at every
  // thread count.
  for (const unsigned skew : {1u, 4u}) {
    const std::uint64_t reference = session_fingerprint(snapshot, 1, 1.0, true, skew);
    EXPECT_NE(reference, exact) << "skew " << skew
        << ": the windowed engine silently fell back to exact";
    for (const unsigned threads : {2u, 4u, 8u}) {
      EXPECT_EQ(session_fingerprint(snapshot, threads, 1.0, true, skew), reference)
          << "threads " << threads << " skew " << skew;
    }
  }
}

TEST(WindowedSessions, FaultedScenarioIsThreadInvariantUnderSkew) {
  const auto scenario = runner::find_scenario("f5_q1_static_small");
  ASSERT_TRUE(scenario.has_value());
  auto fingerprint = [&](unsigned threads, unsigned skew) {
    auto spec = runner::spec_for(*scenario, 42);
    spec.config.threads = threads;
    spec.config.sharded_queue = true;
    spec.config.queue_skew_buckets = skew;
    return runner::result_fingerprint(runner::ExperimentRunner::run_one(spec));
  };
  const std::uint64_t reference = fingerprint(1, 1);
  EXPECT_EQ(fingerprint(4, 1), reference);
  EXPECT_EQ(fingerprint(8, 1), reference);
}

}  // namespace
}  // namespace continu
