// Microbenchmarks (google-benchmark) for the hot paths of the
// reproduction: the event queue, the buffer-map codec, the priority
// model + Algorithm 1 inner loop, greedy DHT routing, and the bit
// window primitives that buffer-map processing leans on.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/buffer_map.hpp"
#include "core/priority.hpp"
#include "core/scheduler.hpp"
#include "dht/id_space.hpp"
#include "dht/routing_experiment.hpp"
#include "sim/event_queue.hpp"
#include "sim/round_scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/bitwindow.hpp"
#include "util/rng.hpp"

namespace {

using namespace continu;

/// Representative protocol capture (~48 bytes: this*, indices, segment
/// ids, a rate) — the size every session/network/DHT action actually
/// schedules. std::function heap-allocated every one of these; the
/// EventAction slot pool stores them inline.
struct ActionPayload {
  void* self = nullptr;
  std::size_t requester = 1;
  std::size_t supplier = 2;
  std::uint64_t segment = 3;
  std::uint64_t node = 4;
  double rate = 5.0;
};

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  ActionPayload payload;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_in(rng.next_double(),
                      [payload, &sink] { sink += payload.segment; });
    }
    benchmark::DoNotOptimize(sim.run_all());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000)->Arg(100000);

/// Floor variant: captureless actions (the cheapest possible schedule;
/// std::function kept these in its own small-buffer too, so this
/// isolates the queue data structure from action storage).
void BM_EventQueuePushPopEmpty(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_in(rng.next_double(), [] {});
    }
    benchmark::DoNotOptimize(sim.run_all());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueuePushPopEmpty)->Arg(1000)->Arg(10000)->Arg(100000);

/// Churn shape: half of the scheduled events are cancelled before they
/// fire. Cancels are O(1) slot writes; dead heap entries die lazily.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<sim::EventId> ids;
  ids.reserve(batch);
  for (auto _ : state) {
    sim::Simulator sim;
    ids.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      ids.push_back(sim.schedule_in(rng.next_double(), [] {}));
    }
    for (std::size_t i = 0; i < batch; i += 2) {
      benchmark::DoNotOptimize(sim.cancel(ids[i]));
    }
    benchmark::DoNotOptimize(sim.run_all());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1000)->Arg(100000);

/// Steady-state hold model: `range(0)` events stay pending and each op
/// pops the earliest one and schedules its replacement — the shape of a
/// running session, which the fill-then-drain benches above never
/// reach. Delays approximate the static_8k mix: log-uniform over
/// 4 ms - 0.5 s (deliveries, DHT hops, round ticks) plus ~0.3% long
/// 2-8 s timers. Delays are pre-drawn so the RNG stays out of the loop.
void BM_EventQueueHold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDelays = std::size_t{1} << 16;
  util::Rng rng(13);
  std::vector<double> delays(kDelays);
  for (double& delay : delays) {
    delay = rng.next_double() < 0.003
                ? rng.next_range(2.0, 8.0)
                : 0.004 * std::pow(0.5 / 0.004, rng.next_double());
  }
  sim::EventQueue queue;
  for (std::size_t i = 0; i < pending; ++i) {
    (void)queue.emplace(delays[i & (kDelays - 1)], [] {});
  }
  std::size_t next = pending;
  sim::EventQueue::DueEvent due;
  const double horizon = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    (void)queue.acquire_due(horizon, due);
    queue.execute_and_release(due);
    (void)queue.emplace(due.time + delays[next++ & (kDelays - 1)], [] {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold)->Arg(8000)->Arg(90000);

/// A fleet of same-period participants behind one batched proxy event
/// (the per-node scheduling-round fleet of a session).
void BM_RoundSchedulerTicks(benchmark::State& state) {
  const auto participants = static_cast<std::size_t>(state.range(0));
  util::Rng rng(9);
  std::vector<double> phases;
  phases.reserve(participants);
  for (std::size_t i = 0; i < participants; ++i) {
    phases.push_back(rng.next_range(0.05, 0.90));
  }
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t ticks = 0;
    sim::RoundScheduler rounds(sim, 1.0,
                               [&ticks](const std::vector<std::size_t>& users) {
                                 ticks += users.size();
                               });
    for (std::size_t i = 0; i < participants; ++i) {
      (void)rounds.add(phases[i], i);
    }
    sim.run_until(10.0);
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(participants) * 10);
}
BENCHMARK(BM_RoundSchedulerTicks)->Arg(1000)->Arg(8000);

void BM_BufferMapEncodeDecode(benchmark::State& state) {
  util::Rng rng(2);
  util::BitWindow window(600, 10000);
  for (int i = 0; i < 400; ++i) {
    window.set(10000 + static_cast<SegmentId>(rng.next_below(600)));
  }
  for (auto _ : state) {
    const auto image = core::encode_buffer_map(window);
    const auto decoded = core::decode_buffer_map(image, 600, 10000);
    benchmark::DoNotOptimize(decoded.count());
  }
}
BENCHMARK(BM_BufferMapEncodeDecode);

void BM_BitWindowMissingScan(benchmark::State& state) {
  util::Rng rng(3);
  util::BitWindow window(600, 0);
  for (int i = 0; i < 450; ++i) {
    window.set(static_cast<SegmentId>(rng.next_below(600)));
  }
  std::vector<SegmentId> missing;
  for (auto _ : state) {
    missing.clear();
    window.missing_in(0, 600, missing);
    benchmark::DoNotOptimize(missing.data());
  }
}
BENCHMARK(BM_BitWindowMissingScan);

/// A scheduling request over `offers`, which must outlive it.
[[nodiscard]] core::ScheduleRequest make_request(std::size_t candidates,
                                                 std::size_t suppliers,
                                                 std::vector<core::SupplierOffer>& offers) {
  util::Rng rng(4);
  core::ScheduleRequest request;
  request.priority_inputs.play_point = 100;
  request.inbound_budget = 15;
  request.rank_jitter = 0.4;
  request.jitter_seed = 99;
  offers.clear();
  std::vector<std::size_t> counts;
  for (std::size_t i = 0; i < candidates; ++i) {
    const std::size_t first = offers.size();
    for (std::size_t s = 0; s < suppliers; ++s) {
      if (rng.next_bool(0.7)) {
        offers.push_back(core::SupplierOffer{static_cast<NodeId>(s + 1),
                                             rng.next_range(2.0, 30.0),
                                             1 + rng.next_below(600)});
      }
    }
    if (offers.size() > first) {
      request.candidates.push_back(core::Candidate{110 + static_cast<SegmentId>(i), {}});
      counts.push_back(offers.size() - first);
    }
  }
  const core::SupplierOffer* next = offers.data();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    request.candidates[i].offers = core::OfferSpan(next, counts[i]);
    next += counts[i];
  }
  return request;
}

void BM_ScheduleContinu(benchmark::State& state) {
  std::vector<core::SupplierOffer> offers;
  const auto request = make_request(static_cast<std::size_t>(state.range(0)), 6, offers);
  core::ScheduleWorkspace work;
  core::ScheduleResult result;
  for (auto _ : state) {
    core::schedule_continu(request, work, result);
    benchmark::DoNotOptimize(result.assignments.data());
  }
}
BENCHMARK(BM_ScheduleContinu)->Arg(20)->Arg(100)->Arg(400);

void BM_ScheduleCoolStreaming(benchmark::State& state) {
  std::vector<core::SupplierOffer> offers;
  const auto request = make_request(static_cast<std::size_t>(state.range(0)), 6, offers);
  core::ScheduleWorkspace work;
  core::ScheduleResult result;
  for (auto _ : state) {
    core::schedule_coolstreaming(request, work, result);
    benchmark::DoNotOptimize(result.assignments.data());
  }
}
BENCHMARK(BM_ScheduleCoolStreaming)->Arg(20)->Arg(100)->Arg(400);

void BM_DhtGreedyRoute(benchmark::State& state) {
  const dht::IdSpace space(8192);
  util::Rng build_rng(5);
  const dht::RoutingExperiment experiment(space, 4096, build_rng);
  util::Rng query_rng(6);
  const auto& ids = experiment.node_ids();
  for (auto _ : state) {
    const NodeId start = ids[query_rng.next_below(ids.size())];
    const auto target = static_cast<NodeId>(query_rng.next_below(space.size()));
    benchmark::DoNotOptimize(experiment.route(start, target));
  }
}
BENCHMARK(BM_DhtGreedyRoute);

}  // namespace
