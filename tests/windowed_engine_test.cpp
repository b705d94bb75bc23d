// Tests for the windowed engine, a drain policy over the one event
// queue: its windows against an ordered-set oracle (anchor, shard-then-
// (time, seq) execution order, counters), swept delivery buckets
// against the exact engine's proxy-fired ones (including forwards made
// inside a swept window), window semantics (fence correctness — no
// event beyond the skew window, emissions invisible to their own
// window — cancel semantics under skew, randomized bounded-skew
// storms, per-receiver FIFO under skew) and session-level gates
// (engine selection, fixed-skew thread-invariance at threads
// {1,2,4,8} x skew {1,4}).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
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
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace continu {
namespace {

/// One-thread executor for the networks built here: it runs every
/// fork inline on the calling thread.
sim::parallel::ParallelExecutor& serial_exec() {
  static sim::parallel::ParallelExecutor exec(1);
  return exec;
}

sim::Simulator::LaxConfig windowed(unsigned skew, double grid_s) {
  sim::Simulator::LaxConfig lax;
  lax.skew_buckets = skew;
  lax.grid_s = grid_s;
  return lax;
}

// ---------------------------------------------------------------------------
// One-queue windows: the anchor and the execution order
// ---------------------------------------------------------------------------

TEST(OneQueueWindow, CancelOfTheHeadMovesTheAnchor) {
  // skew 1 x grid 1.0: a window anchored at the head (1.0) would take
  // 1.0 and 2.0; once the head is cancelled the window anchors at 2.0
  // and takes 2.0 and 3.0.
  sim::Simulator sim(windowed(/*skew=*/1, /*grid_s=*/1.0));
  std::vector<double> fired;
  auto push_at = [&](double when) {
    return sim.schedule_at(when, [&fired, &sim] { fired.push_back(sim.now()); });
  };
  const sim::EventId head = push_at(1.0);
  (void)push_at(2.0);
  (void)push_at(3.0);
  EXPECT_TRUE(sim.cancel(head));
  EXPECT_FALSE(sim.cancel(head));  // second cancel is stale
  EXPECT_EQ(sim.pending(), 2u);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(fired, (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(sim.pending(), 0u);
  const sim::Simulator::LaxStats& stats = sim.lax_stats();
  EXPECT_EQ(stats.windows, 1u);
  // Both events sit at or one grid step past the anchor 2.0.
  EXPECT_EQ(stats.lead_histogram, (std::vector<std::uint64_t>{1, 1}));
}

/// Ordered-set model of the windowed engine. Every event it schedules
/// checks, when it runs, that it is the one the model predicts, then
/// rolls a random emission or a cancel of a collected-but-unrun ref.
struct WindowOracle {
  using Key = std::tuple<SimTime, std::uint64_t, sim::EventId>;  // time, seq, id
  static constexpr unsigned kSkew = 2;
  static constexpr double kGrid = 0.25;
  static constexpr unsigned kShards = sim::Simulator::kLaxShards;

  sim::Simulator sim{windowed(kSkew, kGrid)};
  util::Rng rng;
  std::set<Key> pending;    // in the queue, not collected
  std::deque<Key> window;   // collected, not yet run, in run order
  std::vector<sim::EventId> handles;
  sim::Simulator::LaxStats expect;
  SimTime horizon = 0.0;    // of the drain call in progress

  explicit WindowOracle(std::uint64_t seed) : rng(seed) {
    expect.lead_histogram.assign(kSkew + 1, 0);
  }

  static std::uint64_t shard_of(const Key& key) {
    return std::get<1>(key) & (kShards - 1);
  }

  void push(SimTime when) {
    when = std::max(when, sim.now());  // schedule_at clamps to now()
    const std::size_t token = handles.size();
    handles.push_back(sim::kInvalidEvent);
    const sim::EventId id = sim.schedule_at(when, [this, token] { run(token); });
    handles[token] = id;
    pending.emplace(when, id >> sim::EventQueue::kSlotBits, id);
  }

  /// The engine's next window, predicted when its first event runs: it
  /// anchors at the earliest pending time and collects everything due
  /// by min(anchor + skew * grid, horizon), shard by shard.
  void open_window() {
    ASSERT_FALSE(pending.empty());
    const SimTime anchor = std::get<0>(*pending.begin());
    const SimTime limit = std::min(anchor + kSkew * kGrid, horizon);
    std::vector<Key> collected;
    while (!pending.empty() && std::get<0>(*pending.begin()) <= limit) {
      collected.push_back(*pending.begin());
      pending.erase(pending.begin());
    }
    std::stable_sort(collected.begin(), collected.end(),
                     [](const Key& a, const Key& b) { return shard_of(a) < shard_of(b); });
    ++expect.windows;
    bool fed[kShards] = {};
    for (const Key& key : collected) {
      fed[shard_of(key)] = true;
      const auto lead = static_cast<std::size_t>((std::get<0>(key) - anchor) / kGrid);
      ++expect.lead_histogram[std::min<std::size_t>(lead, kSkew)];
    }
    for (const bool f : fed) expect.stalled_shards += f ? 0 : 1;
    window.assign(collected.begin(), collected.end());
  }

  void run(std::size_t token) {
    if (window.empty()) open_window();
    ASSERT_FALSE(window.empty());
    ASSERT_EQ(std::get<2>(window.front()), handles[token]) << "out of order";
    ASSERT_EQ(sim.now(), std::get<0>(window.front())) << "wrong local clock";
    window.pop_front();
    // The running event is de-registered; collected-but-unrun refs
    // still count as pending.
    ASSERT_EQ(sim.pending(), pending.size() + window.size());
    ++expect.events_drained;
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 3) {
      // An emission lands in the queue, never in its own window.
      push(sim.now() + kGrid * static_cast<double>(rng.next_below(4)));
    } else if (roll < 5 && !window.empty()) {
      const auto at = static_cast<std::ptrdiff_t>(rng.next_below(window.size()));
      const sim::EventId id = std::get<2>(window[static_cast<std::size_t>(at)]);
      window.erase(window.begin() + at);
      EXPECT_TRUE(sim.cancel(id)) << "collected ref";
    }
    ASSERT_EQ(sim.pending(), pending.size() + window.size());
  }

  /// Cancels `id` in the model; true iff it was still live.
  bool erase_pending(sim::EventId id) {
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (std::get<2>(*it) == id) {
        pending.erase(it);
        return true;
      }
    }
    return false;
  }

  void check(const char* op) const {
    ASSERT_TRUE(window.empty()) << op << ": a predicted event did not run";
    ASSERT_EQ(sim.pending(), pending.size()) << op;
    const sim::Simulator::LaxStats& stats = sim.lax_stats();
    ASSERT_EQ(stats.windows, expect.windows) << op;
    ASSERT_EQ(stats.events_drained, expect.events_drained) << op;
    ASSERT_EQ(stats.stalled_shards, expect.stalled_shards) << op;
    ASSERT_EQ(stats.lead_histogram, expect.lead_histogram) << op;
  }
};

TEST(OneQueueWindow, ExecutionMatchesOrderedSetOracle) {
  // Random pushes (often at colliding instants), cancels of the head
  // and of arbitrary (often stale) handles between drains, and cancels
  // of collected-but-unrun refs from inside running events. Drains run
  // one window (step) or up to a random horizon, whose last window the
  // horizon cuts short (run_until). After every operation the engine
  // must have run exactly the oracle's windows in the oracle's order,
  // and agree with it on pending() and every window counter; the lead
  // histogram pins each window's anchor.
  constexpr double kGrid = WindowOracle::kGrid;
  for (std::uint64_t trial = 0; trial < 20 && !::testing::Test::HasFailure();
       ++trial) {
    WindowOracle oracle(9100 + trial);
    sim::Simulator& sim = oracle.sim;
    for (int op = 0; op < 400 && !::testing::Test::HasFailure(); ++op) {
      const std::uint64_t roll = oracle.rng.next_below(100);
      if (roll < 40) {
        oracle.push(sim.now() + kGrid * static_cast<double>(oracle.rng.next_below(12)));
        oracle.check("push");
      } else if (roll < 50) {
        if (oracle.pending.empty()) continue;
        EXPECT_TRUE(sim.cancel(std::get<2>(*oracle.pending.begin())));
        oracle.pending.erase(oracle.pending.begin());
        oracle.check("cancel head");
      } else if (roll < 62) {
        if (oracle.handles.empty()) continue;
        const sim::EventId id =
            oracle.handles[oracle.rng.next_below(oracle.handles.size())];
        const bool live = oracle.erase_pending(id);
        EXPECT_EQ(sim.cancel(id), live);
        oracle.check("cancel handle");
      } else if (roll < 82) {
        oracle.horizon = std::numeric_limits<SimTime>::infinity();
        const bool had_pending = !oracle.pending.empty();
        EXPECT_EQ(sim.step(), had_pending);
        oracle.check("step");
      } else {
        // Half-grid horizons cut windows mid-way.
        oracle.horizon =
            sim.now() + 0.5 * kGrid * static_cast<double>(oracle.rng.next_below(8));
        sim.run_until(oracle.horizon);
        oracle.check("run_until");
        if (!oracle.pending.empty()) {
          EXPECT_GT(std::get<0>(*oracle.pending.begin()), oracle.horizon)
              << "run_until left a due event";
        }
      }
    }
    oracle.horizon = std::numeric_limits<SimTime>::infinity();
    sim.run_all();
    oracle.check("drain");
    EXPECT_TRUE(oracle.pending.empty()) << "trial " << trial;
    EXPECT_GT(sim.lax_stats().windows, 0u) << "trial " << trial;
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

TEST(WindowedEngine, SkewZeroIsExactAndWindowsNeedAGrid) {
  EXPECT_FALSE(sim::Simulator(windowed(0, 1.0)).windowed());
  EXPECT_FALSE(sim::Simulator(windowed(0, 0.0)).windowed());
  EXPECT_TRUE(sim::Simulator(windowed(1, 1.0)).windowed());
  EXPECT_THROW(sim::Simulator(windowed(1, 0.0)), std::logic_error);
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

  const sim::Simulator::LaxStats& stats = sim.lax_stats();
  EXPECT_EQ(stats.windows, 3u);
  EXPECT_EQ(stats.events_drained, 5u);
  // Of 8 shards, windows 1 and 2 feed two each, window 3 feeds one.
  EXPECT_EQ(stats.stalled_shards, 6u + 6u + 7u);
  // Leads: three events at their window anchor (tok0, tok4, tok3), two
  // one bucket ahead (tok1, tok2).
  EXPECT_EQ(stats.lead_histogram, (std::vector<std::uint64_t>{3, 2, 0}));
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
