// Tests for the deterministic intra-session parallel executor: per-tick
// RNG stream derivation, fork/join shard coverage, ordered reductions,
// join-deferred scheduling, RoundScheduler batch dispatch, session
// threads-invariance, runner core arbitration, CLI validation and the
// parameterized scenario families.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "net/latency_model.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "runner/cli.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/scenario.hpp"
#include "sim/parallel/executor.hpp"
#include "sim/round_scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace continu {
namespace {

using sim::parallel::ParallelExecutor;

/// Ad-hoc forks outside the engine's phases.
constexpr obs::Phase kAdHoc = obs::Phase::kOtherFork;

// ---------------------------------------------------------------------------
// Per-tick RNG streams
// ---------------------------------------------------------------------------

TEST(TickRng, MappingIsStable) {
  // Golden lock-in: the (seed, time, node) -> stream mapping is part of
  // the engine's determinism contract. Changing it invalidates every
  // recorded fingerprint, so it must fail a test, not slip through.
  auto rng = util::Rng::for_tick(42, 1.25, 7);
  EXPECT_EQ(rng.next_u64(), 1666953718805957629ULL);
  EXPECT_EQ(rng.next_u64(), 3657286095254846338ULL);
  EXPECT_EQ(util::Rng::for_tick(0, 0.0, 0).next_u64(), 15465756844587741606ULL);
}

TEST(TickRng, SameTripleSameStream) {
  auto a = util::Rng::for_tick(99, 3.75, 1234);
  auto b = util::Rng::for_tick(99, 3.75, 1234);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(TickRng, AnyComponentChangesStream) {
  const std::uint64_t base = util::Rng::for_tick(7, 2.5, 11).next_u64();
  EXPECT_NE(util::Rng::for_tick(8, 2.5, 11).next_u64(), base);
  EXPECT_NE(util::Rng::for_tick(7, 2.5000000001, 11).next_u64(), base);
  EXPECT_NE(util::Rng::for_tick(7, 2.5, 12).next_u64(), base);
}

TEST(TickRng, NoCrossTickCorrelationSmoke) {
  // Streams of ADJACENT node ids at the same tick, and of the same node
  // at adjacent ticks, must look unrelated: correlate the first 256
  // uniforms of each pair and expect |r| well below noise thresholds.
  const auto correlation = [](util::Rng x, util::Rng y) {
    constexpr int kN = 256;
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (int i = 0; i < kN; ++i) {
      const double a = x.next_double();
      const double b = y.next_double();
      sx += a; sy += b; sxx += a * a; syy += b * b; sxy += a * b;
    }
    const double n = kN;
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    const double vy = syy / n - (sy / n) * (sy / n);
    return cov / std::sqrt(vx * vy);
  };
  for (std::uint64_t node = 0; node < 16; ++node) {
    EXPECT_LT(std::fabs(correlation(util::Rng::for_tick(42, 5.0, node),
                                    util::Rng::for_tick(42, 5.0, node + 1))),
              0.25)
        << "adjacent nodes, node " << node;
    EXPECT_LT(std::fabs(correlation(util::Rng::for_tick(42, 5.0, node),
                                    util::Rng::for_tick(42, 6.0, node))),
              0.25)
        << "adjacent ticks, node " << node;
  }
}

// ---------------------------------------------------------------------------
// ParallelExecutor
// ---------------------------------------------------------------------------

TEST(ParallelExecutor, ShardCountIsPure) {
  EXPECT_EQ(ParallelExecutor::shard_count(0, 32), 0u);
  EXPECT_EQ(ParallelExecutor::shard_count(1, 32), 1u);
  EXPECT_EQ(ParallelExecutor::shard_count(32, 32), 1u);
  EXPECT_EQ(ParallelExecutor::shard_count(33, 32), 2u);
  EXPECT_EQ(ParallelExecutor::shard_count(100, 1), 100u);
  EXPECT_EQ(ParallelExecutor::shard_count(100, 0), 100u);  // grain 0 -> 1
}

TEST(ParallelExecutor, EveryItemRunsExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ParallelExecutor exec(threads);
    constexpr std::size_t kCount = 1013;  // not a multiple of the grain
    std::vector<std::atomic<int>> hits(kCount);
    exec.for_shards(kAdHoc, kCount, 16,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
                    });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "item " << i << " at threads " << threads;
    }
  }
}

TEST(ParallelExecutor, RepeatedJobsOnOnePool) {
  // The pool persists across jobs; stale workers from earlier jobs must
  // never double-claim shards of later ones.
  ParallelExecutor exec(4);
  for (int round = 0; round < 50; ++round) {
    const std::size_t count = 64 + static_cast<std::size_t>(round) * 7;
    std::vector<std::atomic<int>> hits(count);
    exec.for_shards(kAdHoc, count, 8,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
                    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " item " << i;
    }
  }
}

TEST(ParallelExecutor, OrderedReductionIsThreadCountInvariant) {
  // The determinism keystone: a floating-point sum accumulated per
  // shard and merged in shard order is BIT-identical for every thread
  // count, because the shard structure is fixed by (count, grain).
  constexpr std::size_t kCount = 2500;
  constexpr std::size_t kGrain = 64;
  std::vector<double> values(kCount);
  util::Rng rng(7);
  for (auto& v : values) v = rng.next_range(-1.0, 1.0);

  const auto sharded_sum = [&](unsigned threads) {
    ParallelExecutor exec(threads);
    std::vector<double> partials(ParallelExecutor::shard_count(kCount, kGrain), 0.0);
    exec.for_shards(kAdHoc, kCount, kGrain,
                    [&](std::size_t s, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        partials[s] += values[i];
                      }
                    });
    double total = 0.0;
    sim::parallel::reduce_in_order(partials, total);
    return total;
  };

  const double reference = sharded_sum(1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const double total = sharded_sum(threads);
    EXPECT_EQ(std::memcmp(&total, &reference, sizeof(total)), 0)
        << "threads " << threads;
  }
  // And it agrees with the plain serial chain up to reassociation only.
  const double serial = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(reference, serial, 1e-9);
}

TEST(ParallelExecutor, ExceptionPropagatesLowestShardFirst) {
  ParallelExecutor exec(4);
  try {
    exec.for_shards(kAdHoc, 100, 10, [](std::size_t s, std::size_t, std::size_t) {
      if (s == 3 || s == 7) {
        throw std::runtime_error("shard " + std::to_string(s));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 3");
  }
  // The pool must survive a throwing job.
  std::atomic<int> ran{0};
  exec.for_shards(kAdHoc, 10, 1, [&](std::size_t, std::size_t, std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 10);
}

// ---------------------------------------------------------------------------
// Join-deferred scheduling
// ---------------------------------------------------------------------------

/// Both engines: the exact one, and the windowed one at skew 1 on a
/// 1 ms grid.
std::unique_ptr<sim::Simulator> make_engine(bool windowed) {
  if (!windowed) return std::make_unique<sim::Simulator>();
  sim::Simulator::LaxConfig lax;
  lax.skew_buckets = 1;
  lax.grid_s = 0.001;
  return std::make_unique<sim::Simulator>(lax);
}

/// The join half of a forked phase: every shard's deferred operations
/// run in shard order, record order within a shard.
void run_in_shard_order(std::vector<std::vector<sim::EventAction>>& shards) {
  for (auto& ops : shards) {
    for (sim::EventAction& op : ops) op.consume();
    ops.clear();
  }
}

TEST(DeferredEmissions, ShardOrderJoinReproducesSerialSequence) {
  // Two shards' op lists run in shard order must execute in exactly the
  // order a serial loop over (shard 0 entries, shard 1 entries) would —
  // including FIFO among equal times, which is what sequence numbers
  // encode (the windowed engine places and orders equal-time events by
  // sequence too).
  for (const bool windowed : {false, true}) {
    SCOPED_TRACE(windowed ? "windowed" : "exact");
    const auto engine = make_engine(windowed);
    std::vector<int> order;
    const auto defer_at = [&](std::vector<sim::EventAction>& ops, SimTime when,
                              int tag) {
      ops.emplace_back([&engine, &order, when, tag] {
        engine->schedule_at(when, [&order, tag] { order.push_back(tag); });
      });
    };
    std::vector<std::vector<sim::EventAction>> shards(2);
    defer_at(shards[0], 1.0, 0);
    defer_at(shards[0], 2.0, 1);
    defer_at(shards[1], 1.0, 2);  // ties with #0
    defer_at(shards[1], 0.5, 3);
    EXPECT_EQ(engine->pending(), 0u);  // recording touches no queue
    run_in_shard_order(shards);
    EXPECT_TRUE(shards[0].empty());
    engine->run_all();
    EXPECT_EQ(order, (std::vector<int>{3, 0, 2, 1}));
  }
}

TEST(DeferredEmissions, PastTimesClampToNow) {
  for (const bool windowed : {false, true}) {
    SCOPED_TRACE(windowed ? "windowed" : "exact");
    const auto engine = make_engine(windowed);
    engine->schedule_in(5.0, [] {});
    engine->run_all();
    ASSERT_DOUBLE_EQ(engine->now(), 5.0);
    bool ran = false;
    std::vector<std::vector<sim::EventAction>> shards(1);
    shards[0].emplace_back([&engine, &ran] {
      engine->schedule_at(1.0, [&ran] { ran = true; });  // in the past
    });
    run_in_shard_order(shards);
    engine->run_all();
    EXPECT_TRUE(ran);
    EXPECT_DOUBLE_EQ(engine->now(), 5.0);
  }
}

// ---------------------------------------------------------------------------
// RoundScheduler batch dispatch
// ---------------------------------------------------------------------------

TEST(RoundSchedulerBatch, SameInstantTicksArriveAsOneBatch) {
  sim::Simulator sim;
  std::vector<std::vector<std::size_t>> batches;
  sim::RoundScheduler rounds(sim, 1.0, [&batches](const std::vector<std::size_t>& users) {
    batches.push_back(users);
  });
  rounds.add(0.5, 10);
  rounds.add(0.5, 20);
  rounds.add(0.5, 30);
  rounds.add(0.75, 40);
  sim.run_until(2.0);
  // t=0.5: {10,20,30} in add order; t=0.75: {40}; then the same again
  // one period later.
  ASSERT_EQ(batches.size(), 4u);
  EXPECT_EQ(batches[0], (std::vector<std::size_t>{10, 20, 30}));
  EXPECT_EQ(batches[1], (std::vector<std::size_t>{40}));
  EXPECT_EQ(batches[2], (std::vector<std::size_t>{10, 20, 30}));
  EXPECT_EQ(batches[3], (std::vector<std::size_t>{40}));
}

TEST(RoundSchedulerBatch, RemovalDuringBatchStopsRescheduling) {
  sim::Simulator sim;
  std::vector<sim::RoundScheduler::Handle> handles;
  std::vector<std::size_t> seen;
  sim::RoundScheduler* rptr = nullptr;
  sim::RoundScheduler rounds(sim, 1.0, [&](const std::vector<std::size_t>& users) {
    for (const std::size_t user : users) {
      seen.push_back(user);
      if (user == 1) rptr->remove(handles[2]);  // kill participant 2
    }
  });
  rptr = &rounds;
  handles.push_back(rounds.add(0.5, 0));
  handles.push_back(rounds.add(0.5, 1));
  handles.push_back(rounds.add(0.5, 2));
  sim.run_until(1.0);
  // First batch reports all three (removal mid-batch does not retract
  // an already-collected tick)...
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
  seen.clear();
  sim.run_until(2.0);
  // ...but participant 2 is gone from the next round.
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(rounds.active(), 2u);
}

TEST(RoundSchedulerBatch, AddAtMergesLateJoinerIntoCohortBatch) {
  // A participant added mid-run at a cohort's recurring tick instant
  // (computed with the cohort's own accumulation arithmetic) must land
  // in the SAME batch — this is what keeps round batches at ~N/buckets
  // under churn instead of fragmenting into per-join singletons.
  sim::Simulator sim;
  std::vector<std::vector<std::size_t>> batches;
  sim::RoundScheduler rounds(sim, 1.0, [&batches](const std::vector<std::size_t>& users) {
    batches.push_back(users);
  });
  const double phase = 0.3;
  rounds.add(phase, 1);
  sim.run_until(5.5);  // cohort ticked at 0.3, 1.3, ..., 5.3
  // Next cohort instant, by the same next = fired + period accumulation.
  double tick = phase;
  while (tick <= sim.now()) tick += 1.0;
  rounds.add_at(tick, 2);
  batches.clear();
  sim.run_until(6.5);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], (std::vector<std::size_t>{1, 2}));
}

// ---------------------------------------------------------------------------
// Session-level threads invariance
// ---------------------------------------------------------------------------

TEST(SessionThreads, ResultsBitIdenticalAcrossThreadCounts) {
  trace::GeneratorConfig tc;
  tc.node_count = 200;
  tc.seed = 21;
  const auto snapshot = trace::generate_snapshot(tc);

  const auto fingerprint_at = [&snapshot](unsigned threads, bool churn) {
    core::SystemConfig config;
    config.seed = 42;
    config.threads = threads;
    config.churn_enabled = churn;
    runner::ReplicationSpec spec;
    spec.config = config;
    spec.snapshot = std::make_shared<const trace::TraceSnapshot>(snapshot);
    spec.duration = 25.0;
    spec.stable_from = 15.0;
    return runner::result_fingerprint(runner::ExperimentRunner::run_one(spec));
  };

  for (const bool churn : {false, true}) {
    const std::uint64_t reference = fingerprint_at(1, churn);
    for (const unsigned threads : {2u, 4u, 8u}) {
      EXPECT_EQ(fingerprint_at(threads, churn), reference)
          << "threads " << threads << " churn " << churn;
    }
  }
}

// ---------------------------------------------------------------------------
// Quantized delivery batches (receiver-sharded network mode)
// ---------------------------------------------------------------------------

TEST(QuantizedDelivery, SessionsBitIdenticalAcrossThreadCounts) {
  // The delivery-batch twin of the SessionThreads gate: with a latency
  // grid installed, every segment request / arrival / completion runs
  // through receiver-sharded bucket dispatches, and the fingerprint
  // must STILL be a pure function of (seed, config, trace). Covers
  // static and churn (drops exercise the per-shard drop buffers) at
  // two grid sizes.
  trace::GeneratorConfig tc;
  tc.node_count = 200;
  tc.seed = 21;
  const auto snapshot = trace::generate_snapshot(tc);

  const auto fingerprint_at = [&snapshot](unsigned threads, bool churn,
                                          double grid_ms) {
    core::SystemConfig config;
    config.seed = 42;
    config.threads = threads;
    config.churn_enabled = churn;
    config.latency_grid_ms = grid_ms;
    runner::ReplicationSpec spec;
    spec.config = config;
    spec.snapshot = std::make_shared<const trace::TraceSnapshot>(snapshot);
    spec.duration = 25.0;
    spec.stable_from = 15.0;
    return runner::result_fingerprint(runner::ExperimentRunner::run_one(spec));
  };

  for (const double grid_ms : {1.0, 5.0}) {
    for (const bool churn : {false, true}) {
      const std::uint64_t reference = fingerprint_at(1, churn, grid_ms);
      for (const unsigned threads : {2u, 4u, 8u}) {
        EXPECT_EQ(fingerprint_at(threads, churn, grid_ms), reference)
            << "threads " << threads << " churn " << churn << " grid "
            << grid_ms;
      }
    }
  }
}

TEST(QuantizedDelivery, ForkedBucketMatchesSingleThreadExecutor) {
  // Network-level equivalence: the same delivery schedule dispatched
  // with a real worker pool and with a one-thread executor (which runs
  // the shards inline) must produce identical per-receiver handler
  // sequences, identical join-replay order, and identical drop counts
  // — both use the executor's one shard decomposition.
  const auto run_with =
      [](sim::parallel::ParallelExecutor& exec) {
        sim::Simulator sim;
        // 40 nodes, all pairwise latencies floored -> one big bucket
        // of 39 receiver groups across several shards (grain 8).
        std::vector<double> pings(40);
        for (std::size_t i = 0; i < pings.size(); ++i) {
          pings[i] = 10.0 + 0.001 * static_cast<double>(i);
        }
        // Drop every 7th receiver, as churn would.
        struct DropSevenths final : net::DeliveryHost {
          bool reachable(std::uint32_t to) const override { return to % 7 != 0; }
          void before_fork(std::size_t) override {}
          void after_join(std::size_t) override {}
        } host;
        net::Network net(sim, exec, net::LatencyModel(std::move(pings), 5.0, 5.0),
                         &host);

        // Handlers write ONLY receiver-own state (their slot) plus what
        // they defer; the deferred ops replay serially at the join, so
        // `joined` is the thread-count-invariant sequence to compare.
        struct Log {
          std::vector<std::uint32_t> joined;
        } log;
        std::vector<std::uint32_t> hits(40, 0);
        for (std::uint32_t to = 1; to < 40; ++to) {
          net.send_sharded(0, to, net::MessageType::kPing, 80,
                           [&hits, &log, to](net::DeliveryContext& ctx) {
                             ++hits[to];  // receiver-own slot
                             ctx.defer([&log, to] { log.joined.push_back(to); });
                           });
        }
        sim.run_all();
        struct Result {
          std::vector<std::uint32_t> hits;
          std::vector<std::uint32_t> joined;
          std::uint64_t dropped;
          std::uint64_t batches;
        };
        return Result{std::move(hits), std::move(log.joined), net.dropped(),
                      net.delivery_batches()};
      };

  sim::parallel::ParallelExecutor pool(4);
  sim::parallel::ParallelExecutor single(1);
  const auto forked = run_with(pool);
  const auto single_run = run_with(single);

  EXPECT_EQ(forked.hits, single_run.hits);
  EXPECT_EQ(forked.joined, single_run.joined);
  EXPECT_EQ(forked.dropped, single_run.dropped);
  EXPECT_EQ(forked.batches, single_run.batches);
  EXPECT_EQ(forked.dropped, 5u);  // receivers 7, 14, 21, 28, 35
  // Join replay is shard-major, schedule-ordered within a shard — and
  // identical whether a pool or the calling thread ran the shards.
  ASSERT_EQ(forked.joined.size(), 34u);
}

// ---------------------------------------------------------------------------
// Prepare split (prepare-local forked / prepare-link serial)
// ---------------------------------------------------------------------------

TEST(PrepareSplit, TimeoutSweepDropsStaleEntriesAndReportsSuppliersOnce) {
  core::SystemConfig config;
  const dht::IdSpace space(1024);
  core::Node node(/*id=*/7, /*session_index=*/1, config, core::UrgentLineConfig{},
                  space, /*inbound=*/10.0, /*outbound=*/10.0, /*ping_ms=*/50.0);

  ASSERT_TRUE(node.begin_transfer(1, core::TransferKind::kScheduled, 11, 0.0));
  ASSERT_TRUE(node.begin_transfer(2, core::TransferKind::kScheduled, 12, 1.0));
  ASSERT_TRUE(node.begin_transfer(3, core::TransferKind::kScheduled, 11, 5.0));
  // A record with no known supplier must be dropped WITHOUT a decay.
  ASSERT_TRUE(node.begin_transfer(4, core::TransferKind::kScheduled,
                                  kInvalidNode, 2.0));
  ASSERT_TRUE(node.begin_prefetch(10, 0.5));
  ASSERT_TRUE(node.begin_prefetch(11, 6.0));

  std::vector<NodeId> decayed;
  const std::size_t dropped = node.sweep_timeouts(
      /*cutoff=*/4.0, [&decayed](NodeId supplier) { decayed.push_back(supplier); });

  // Dropped: transfers 1, 2, 4 and prefetch 10. Kept: 3 and 11.
  EXPECT_EQ(dropped, 4u);
  EXPECT_FALSE(node.transfer_pending(1));
  EXPECT_FALSE(node.transfer_pending(2));
  EXPECT_TRUE(node.transfer_pending(3));
  EXPECT_FALSE(node.transfer_pending(4));
  EXPECT_FALSE(node.prefetch_pending(10));
  EXPECT_TRUE(node.prefetch_pending(11));
  // Exactly one decay per dropped scheduled transfer with a known
  // supplier — the kInvalidNode record contributes none.
  std::sort(decayed.begin(), decayed.end());
  EXPECT_EQ(decayed, (std::vector<NodeId>{11, 12}));

  // Idempotence: re-sweeping at the same cutoff drops nothing more.
  EXPECT_EQ(node.sweep_timeouts(4.0, [](NodeId) { FAIL(); }), 0u);
}

TEST(PrepareSplit, ThreadsInvarianceExercisesTimeoutsAndChurnStarts) {
  // Fingerprint equality across thread counts, on runs VERIFIED to
  // exercise the relocated prepare-local paths: the timeout sweep with
  // its deferred rate decays (transfer_timeouts > 0) and, under churn,
  // the deferred playback starts of joiners (joins > 0).
  trace::GeneratorConfig tc;
  tc.node_count = 200;
  tc.seed = 33;
  const auto snapshot = trace::generate_snapshot(tc);

  for (const bool churn : {false, true}) {
    runner::ReplicationResult reference;
    for (const unsigned threads : {1u, 4u}) {
      core::SystemConfig config;
      config.seed = 44;
      config.threads = threads;
      config.churn_enabled = churn;
      runner::ReplicationSpec spec;
      spec.config = config;
      spec.snapshot = std::make_shared<const trace::TraceSnapshot>(snapshot);
      spec.duration = 30.0;
      spec.stable_from = 15.0;
      auto run = runner::ExperimentRunner::run_one(spec);
      EXPECT_GT(run.stats.transfer_timeouts, 0u) << "churn " << churn;
      if (churn) {
        EXPECT_GT(run.stats.joins, 0u);
      }
      EXPECT_EQ(run.stats.mixed_batch_fallbacks, 0u);
      if (threads == 1u) {
        reference = std::move(run);
      } else {
        EXPECT_EQ(runner::result_fingerprint(run),
                  runner::result_fingerprint(reference))
            << "threads " << threads << " churn " << churn;
      }
    }
  }
}

TEST(PrepareSplit, DeferredRateDecayLeavesIdenticalEstimatesAtAnyThreadCount) {
  // The deferred rate-decay list applies in shard order after the
  // prepare-local join; shard structure is thread-count independent, so
  // every node's EWMA table must come out BIT-identical. Checked
  // directly (not just via the run fingerprint, which only sees rates
  // through scheduling outcomes) on a churny run where timeouts and
  // decays demonstrably occurred.
  trace::GeneratorConfig tc;
  tc.node_count = 150;
  tc.seed = 91;
  const auto snapshot = trace::generate_snapshot(tc);

  const auto run_session = [&snapshot](unsigned threads) {
    core::SystemConfig config;
    config.seed = 17;
    config.threads = threads;
    config.churn_enabled = true;
    auto session = std::make_unique<core::Session>(config, snapshot);
    session->run(25.0);
    return session;
  };
  const auto serial = run_session(1);
  const auto parallel = run_session(4);

  ASSERT_GT(serial->stats().transfer_timeouts, 0u);
  EXPECT_EQ(serial->stats().transfer_timeouts,
            parallel->stats().transfer_timeouts);
  ASSERT_EQ(serial->node_count(), parallel->node_count());
  for (std::size_t i = 0; i < serial->node_count(); ++i) {
    const auto& a = serial->node(i);
    const auto& b = parallel->node(i);
    for (const auto& neighbor : a.neighbors().all()) {
      const double ea = a.rates().estimate(neighbor.id);
      const double eb = b.rates().estimate(neighbor.id);
      EXPECT_EQ(std::memcmp(&ea, &eb, sizeof(ea)), 0)
          << "node " << i << " supplier " << neighbor.id;
    }
  }
}

TEST(PrepareSplit, MixedBatchFallbacksStayZeroAcrossMatrix) {
  // Reserved ticks (sampler, churn) ride phases of their own, so no
  // batch should ever mix them with node rounds and fall back to
  // serial dispatch. A phase-layout change that breaks this would
  // silently forfeit BOTH forked phases — pin the counter at zero
  // across the named matrix (large scenarios trimmed/skipped to keep
  // the suite fast; their phase construction is identical).
  for (const auto& scenario : runner::scenario_matrix()) {
    if (scenario.node_count > 2000) continue;
    auto spec = runner::spec_for(scenario, 42);
    spec.duration = std::min(spec.duration, 10.0);
    spec.stable_from = std::min(spec.stable_from, 5.0);
    const auto run = runner::ExperimentRunner::run_one(spec);
    EXPECT_EQ(run.stats.mixed_batch_fallbacks, 0u) << scenario.name;
  }
}

// ---------------------------------------------------------------------------
// Runner core arbitration
// ---------------------------------------------------------------------------

TEST(RunnerThreads, ArbitratesCoreBudget) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  // Legacy behaviour untouched when intra-session parallelism is off.
  EXPECT_EQ(runner::ExperimentRunner(0).jobs(), hw);
  EXPECT_EQ(runner::ExperimentRunner(8).jobs(), 8u);
  EXPECT_EQ(runner::ExperimentRunner(8, 1).jobs(), 8u);
  // With threads > 1, jobs x threads never exceeds the machine (and the
  // intra-session width keeps what it asked for).
  for (const unsigned threads : {2u, 4u}) {
    for (const unsigned jobs : {0u, 2u, 8u}) {
      const runner::ExperimentRunner runner(jobs, threads);
      EXPECT_LE(static_cast<std::uint64_t>(runner.jobs()) * threads,
                std::max(hw, threads))
          << "jobs " << jobs << " threads " << threads;
      EXPECT_GE(runner.jobs(), 1u);
    }
  }
}

TEST(RunnerThreads, ThreadsOverrideDoesNotChangeResults) {
  runner::ReplicationSpec base;
  base.config.seed = 5;
  base.trace.node_count = 150;
  base.trace.seed = 77;
  base.duration = 20.0;
  base.stable_from = 10.0;
  const auto specs = runner::replicate(base, 3);

  const auto results_serial = runner::ExperimentRunner(1, 1).run_all(specs);
  const auto results_parallel = runner::ExperimentRunner(2, 4).run_all(specs);
  ASSERT_EQ(results_serial.size(), results_parallel.size());
  for (std::size_t i = 0; i < results_serial.size(); ++i) {
    EXPECT_EQ(runner::result_fingerprint(results_serial[i]),
              runner::result_fingerprint(results_parallel[i]))
        << "replication " << i;
  }
}

// ---------------------------------------------------------------------------
// CLI validation
// ---------------------------------------------------------------------------

TEST(CliValidation, ParsePositiveRejectsNonPositive) {
  using runner::cli::parse_positive;
  EXPECT_EQ(parse_positive("1").value(), 1u);
  EXPECT_EQ(parse_positive("8").value(), 8u);
  EXPECT_EQ(parse_positive("123456789").value(), 123456789u);
  EXPECT_FALSE(parse_positive("0").has_value());
  EXPECT_FALSE(parse_positive("-1").has_value());
  EXPECT_FALSE(parse_positive("+2").has_value());
  EXPECT_FALSE(parse_positive("4x").has_value());
  EXPECT_FALSE(parse_positive("x4").has_value());
  EXPECT_FALSE(parse_positive("").has_value());
  EXPECT_FALSE(parse_positive(" 3").has_value());
  EXPECT_FALSE(parse_positive("3.5").has_value());
  EXPECT_FALSE(parse_positive("99999999999999999999999").has_value());
  EXPECT_FALSE(parse_positive(nullptr).has_value());
}

TEST(CliValidation, ParseUintAllowsZeroButNotGarbage) {
  using runner::cli::parse_uint;
  EXPECT_EQ(parse_uint("0").value(), 0u);  // seeds may be zero
  EXPECT_EQ(parse_uint("42").value(), 42u);
  EXPECT_FALSE(parse_uint("x42").has_value());
  EXPECT_FALSE(parse_uint("42x").has_value());
  EXPECT_FALSE(parse_uint("-1").has_value());
  EXPECT_FALSE(parse_uint("").has_value());
}

TEST(CliValidation, ParseDoubleAcceptsOnlyOneFiniteNumber) {
  using runner::cli::parse_double;
  EXPECT_EQ(parse_double("45").value(), 45.0);
  EXPECT_EQ(parse_double("0.05").value(), 0.05);
  EXPECT_EQ(parse_double("-5").value(), -5.0);  // the caller checks range
  EXPECT_EQ(parse_double("1e2").value(), 100.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("5s").has_value());
  EXPECT_FALSE(parse_double("4x").has_value());
  EXPECT_FALSE(parse_double(" 5").has_value());
  EXPECT_FALSE(parse_double("5 ").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("-infinity").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());
  EXPECT_FALSE(parse_double(nullptr).has_value());
}

TEST(CliValidation, UnknownScenarioMessageListsValidNames) {
  const std::string message = runner::cli::unknown_scenario_message("bogus");
  EXPECT_NE(message.find("bogus"), std::string::npos);
  // Every matrix scenario and at least one family member is listed.
  for (const auto& name : runner::scenario_names()) {
    EXPECT_NE(message.find(name), std::string::npos) << name;
  }
  EXPECT_NE(message.find("fig7_static_1000"), std::string::npos);
  // Fault-family members are listed too — an f*_ typo must still show
  // the full catalogue.
  EXPECT_NE(message.find("f5_static_1k"), std::string::npos);
  EXPECT_NE(message.find("fp_static_small"), std::string::npos);
}

TEST(CliValidation, QueueSkewSelectsTheWindowedEngineOnlyOnAGrid) {
  using runner::cli::select_engine;
  core::SystemConfig config;
  EXPECT_FALSE(select_engine(config, 0).has_value());  // exact stays legal
  EXPECT_FALSE(config.windowed_engine());
  // No latency grid: the flag would do nothing, so it is a diagnosis.
  const auto problem = select_engine(config, 1);
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("quantized"), std::string::npos);
  EXPECT_FALSE(config.windowed_engine());
  config.latency_grid_ms = 1.0;
  EXPECT_FALSE(select_engine(config, 4).has_value());
  EXPECT_TRUE(config.windowed_engine());
  EXPECT_EQ(config.queue_skew_buckets, 4u);
  EXPECT_FALSE(select_engine(config, 0).has_value());
  EXPECT_FALSE(config.windowed_engine());
}

// ---------------------------------------------------------------------------
// Scenario parameterization
// ---------------------------------------------------------------------------

TEST(ScenarioFamilies, OverridesApply) {
  const auto base = runner::find_scenario("static_1k");
  ASSERT_TRUE(base.has_value());
  runner::ScenarioOverrides o;
  o.node_count = 777;
  o.churn_fraction = 0.10;
  o.playback_rate = 20;  // stream rate
  o.trace_seed = 9;
  const auto derived = base->with(o, "derived");
  EXPECT_EQ(derived.name, "derived");
  EXPECT_EQ(derived.node_count, 777u);
  EXPECT_TRUE(derived.churn);  // a positive rate implies the toggle
  EXPECT_DOUBLE_EQ(derived.churn_fraction, 0.10);
  EXPECT_EQ(derived.playback_rate, 20u);
  EXPECT_EQ(derived.trace_seed, 9u);
  // Untouched fields keep base values.
  EXPECT_EQ(derived.connected_neighbors, base->connected_neighbors);

  const auto config = derived.make_config(3);
  EXPECT_EQ(config.playback_rate, 20u);
  EXPECT_TRUE(config.churn_enabled);
  EXPECT_DOUBLE_EQ(config.churn.leave_fraction, 0.10);
  EXPECT_EQ(derived.make_trace().node_count, 777u);
}

TEST(ScenarioFamilies, FigGridsAreNamedScenarios) {
  // The fig7/8/9/11 sweep grids resolve by name with the workloads the
  // benches used to build inline.
  const auto fig7 = runner::find_scenario("fig7_static_2000");
  ASSERT_TRUE(fig7.has_value());
  EXPECT_EQ(fig7->node_count, 2000u);
  EXPECT_FALSE(fig7->churn);
  EXPECT_EQ(fig7->trace_seed, 2300u);  // 300 + n

  const auto fig8 = runner::find_scenario("fig8_dynamic_500");
  ASSERT_TRUE(fig8.has_value());
  EXPECT_TRUE(fig8->churn);
  EXPECT_EQ(fig8->trace_seed, 900u);  // 400 + n

  const auto fig9 = runner::find_scenario("fig9_m6_1000");
  ASSERT_TRUE(fig9.has_value());
  EXPECT_EQ(fig9->connected_neighbors, 6u);
  EXPECT_EQ(fig9->trace_seed, 1506u);  // 500 + n + m

  const auto fig11 = runner::find_scenario("fig11_dynamic_4000");
  ASSERT_TRUE(fig11.has_value());
  EXPECT_TRUE(fig11->churn);
  EXPECT_EQ(fig11->trace_seed, 4600u);  // 600 + n

  EXPECT_FALSE(runner::find_scenario("fig7_static_123").has_value());

  // The core matrix keeps its names (append-only: static_100k joined
  // in PR 4), still resolvable, and family names do not shadow them.
  EXPECT_EQ(runner::scenario_names().size(), 13u);
  EXPECT_EQ(runner::all_scenario_names().size(),
            13u + runner::scenario_families().size());
}

TEST(ScenarioFamilies, FaultFamiliesAndGroupsResolve) {
  // The f*_ families run the same trace/seeds as their matrix base,
  // plus a fault plan and the hardening toggle.
  const auto base = runner::find_scenario("static_1k");
  const auto f5 = runner::find_scenario("f5_static_1k");
  ASSERT_TRUE(base.has_value());
  ASSERT_TRUE(f5.has_value());
  EXPECT_EQ(f5->node_count, base->node_count);
  EXPECT_EQ(f5->trace_seed, base->trace_seed);
  EXPECT_TRUE(f5->harden);
  EXPECT_TRUE(f5->fault.active());
  EXPECT_DOUBLE_EQ(f5->fault.loss_rate, 0.05);
  ASSERT_EQ(f5->fault.crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(f5->fault.crashes[0].fraction, 0.10);

  const auto config = f5->make_config(7);
  EXPECT_TRUE(config.harden);
  EXPECT_TRUE(config.fault.active());

  // The quantized variant carries the same plan over the grid mode.
  const auto f5q = runner::find_scenario("f5_q1_static_1k");
  ASSERT_TRUE(f5q.has_value());
  EXPECT_DOUBLE_EQ(f5q->latency_grid_ms, 1.0);
  EXPECT_TRUE(f5q->fault.active());

  const auto fp = runner::find_scenario("fp_static_small");
  ASSERT_TRUE(fp.has_value());
  ASSERT_EQ(fp->fault.partitions.size(), 1u);
  EXPECT_DOUBLE_EQ(fp->fault.partitions[0].heal, 30.0);
  EXPECT_DOUBLE_EQ(fp->fault.loss_rate, 0.0);

  // Matrix scenarios stay fault-free: the zero-fault hot path is the
  // default everywhere outside the f*_ families.
  for (const auto& s : runner::scenario_matrix()) {
    EXPECT_FALSE(s.fault.active()) << s.name;
    EXPECT_FALSE(s.harden) << s.name;
  }

  // Prefix groups cover every family member exactly once, first
  // appearance order, and the fault groups are present.
  const auto& groups = runner::scenario_family_groups();
  std::size_t grouped = 0;
  bool saw_f1 = false, saw_f5 = false, saw_fp = false;
  for (const auto& g : groups) {
    EXPECT_FALSE(g.description.empty()) << g.prefix;
    grouped += g.members.size();
    if (g.prefix == "f1") saw_f1 = true;
    if (g.prefix == "f5") saw_f5 = true;
    if (g.prefix == "fp") saw_fp = true;
    for (const auto& name : g.members) {
      EXPECT_TRUE(runner::find_scenario(name).has_value()) << name;
    }
  }
  EXPECT_EQ(grouped, runner::scenario_families().size());
  EXPECT_TRUE(saw_f1);
  EXPECT_TRUE(saw_f5);
  EXPECT_TRUE(saw_fp);
}

}  // namespace
}  // namespace continu
