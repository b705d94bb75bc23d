// Unit tests for the network layer: message taxonomy, traffic
// accounting, the latency model and delivery semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/latency_model.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "sim/parallel/executor.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"

namespace continu::net {
namespace {

/// One-thread executor for the networks built here: it runs every
/// fork inline on the calling thread.
sim::parallel::ParallelExecutor& serial_exec() {
  static sim::parallel::ParallelExecutor exec(1);
  return exec;
}

/// A host whose only job is the liveness filter: `keep(to)` false drops
/// the delivery. No fork needs scratch.
template <typename Keep>
class FilterHost final : public DeliveryHost {
 public:
  explicit FilterHost(Keep keep) : keep_(std::move(keep)) {}
  [[nodiscard]] bool reachable(std::uint32_t to) const override { return keep_(to); }
  void before_fork(std::size_t) override {}
  void after_join(std::size_t) override {}

 private:
  Keep keep_;
};

TEST(Message, WireCostsMatchPaper) {
  // Section 5.4.2: 600 window bits + 20 head bits = 620.
  EXPECT_EQ(WireCosts::kBufferMapBits, 620u);
  // Section 5.4.3: routing message = 10 bytes = 80 bits.
  EXPECT_EQ(WireCosts::kDhtRouteBits, 80u);
  // One segment = 30 Kb (1024-based).
  EXPECT_EQ(WireCosts::kSegmentBits, 30u * 1024u);
}

TEST(Message, TrafficClassMapping) {
  EXPECT_EQ(traffic_class_of(MessageType::kBufferMap), TrafficClass::kControl);
  EXPECT_EQ(traffic_class_of(MessageType::kSegmentRequest), TrafficClass::kRequest);
  EXPECT_EQ(traffic_class_of(MessageType::kSegmentData), TrafficClass::kData);
  EXPECT_EQ(traffic_class_of(MessageType::kDhtRoute), TrafficClass::kPrefetch);
  EXPECT_EQ(traffic_class_of(MessageType::kDhtReply), TrafficClass::kPrefetch);
  EXPECT_EQ(traffic_class_of(MessageType::kPrefetchRequest), TrafficClass::kPrefetch);
  EXPECT_EQ(traffic_class_of(MessageType::kPrefetchData), TrafficClass::kPrefetch);
  EXPECT_EQ(traffic_class_of(MessageType::kPing), TrafficClass::kMaintenance);
  EXPECT_EQ(traffic_class_of(MessageType::kHandover), TrafficClass::kMaintenance);
}

TEST(Message, NamesAreStable) {
  EXPECT_EQ(message_type_name(MessageType::kBufferMap), "buffer-map");
  EXPECT_EQ(traffic_class_name(TrafficClass::kPrefetch), "prefetch");
}

TEST(Message, DefaultBitsPositive) {
  for (const auto type :
       {MessageType::kBufferMap, MessageType::kSegmentRequest, MessageType::kSegmentData,
        MessageType::kDhtRoute, MessageType::kDhtReply, MessageType::kPrefetchRequest,
        MessageType::kPrefetchData, MessageType::kPing, MessageType::kPong,
        MessageType::kJoinNotify, MessageType::kHandover}) {
    EXPECT_GT(default_message_bits(type), 0u) << message_type_name(type);
  }
}

TEST(Traffic, ChargesByClass) {
  TrafficAccount account;
  account.charge(TrafficClass::kControl, 620);
  account.charge(TrafficClass::kControl, 620);
  account.charge(TrafficClass::kData, 30 * 1024);
  EXPECT_EQ(account.bits(TrafficClass::kControl), 1240u);
  EXPECT_EQ(account.messages(TrafficClass::kControl), 2u);
  EXPECT_EQ(account.bits(TrafficClass::kData), 30u * 1024u);
}

TEST(Traffic, ControlOverheadRatio) {
  TrafficAccount account;
  // M = 5 maps against p = 10 segments: 620*5 / (30720*10), which the
  // paper rounds to M/495.
  for (int i = 0; i < 5; ++i) account.charge(TrafficClass::kControl, 620);
  for (int i = 0; i < 10; ++i) account.charge(TrafficClass::kData, 30 * 1024);
  EXPECT_NEAR(account.control_overhead(), 620.0 * 5.0 / (30.0 * 1024.0 * 10.0), 1e-12);
  EXPECT_NEAR(account.control_overhead(), 5.0 / 495.0, 2e-4);
}

TEST(Traffic, OverheadZeroWithoutData) {
  TrafficAccount account;
  account.charge(TrafficClass::kControl, 620);
  EXPECT_DOUBLE_EQ(account.control_overhead(), 0.0);
  EXPECT_DOUBLE_EQ(account.prefetch_overhead(), 0.0);
}

TEST(Traffic, SinceComputesDelta) {
  TrafficAccount account;
  account.charge(TrafficClass::kData, 100);
  const TrafficAccount snapshot = account;
  account.charge(TrafficClass::kData, 50);
  account.charge(TrafficClass::kPrefetch, 10);
  const auto delta = account.since(snapshot);
  EXPECT_EQ(delta.bits(TrafficClass::kData), 50u);
  EXPECT_EQ(delta.bits(TrafficClass::kPrefetch), 10u);
  EXPECT_EQ(delta.messages(TrafficClass::kData), 1u);
}

TEST(Traffic, ClearResets) {
  TrafficAccount account;
  account.charge(TrafficClass::kData, 100);
  account.clear();
  EXPECT_EQ(account.bits(TrafficClass::kData), 0u);
  EXPECT_EQ(account.messages(TrafficClass::kData), 0u);
}

TEST(LatencyModel, PairwiseDifferenceWithFloor) {
  const LatencyModel model({100.0, 160.0, 101.0}, 5.0);
  EXPECT_DOUBLE_EQ(model.latency_ms(0, 1), 60.0);
  EXPECT_DOUBLE_EQ(model.latency_ms(1, 0), 60.0);
  EXPECT_DOUBLE_EQ(model.latency_ms(0, 2), 5.0);  // floored
  EXPECT_DOUBLE_EQ(model.latency_s(0, 1), 0.060);
}

TEST(LatencyModel, RttIsTwiceOneWay) {
  const LatencyModel model({10.0, 60.0}, 5.0);
  EXPECT_DOUBLE_EQ(model.rtt_s(0, 1), 2.0 * model.latency_s(0, 1));
}

TEST(LatencyModel, FromTraceMatchesPings) {
  trace::GeneratorConfig config;
  config.node_count = 20;
  config.seed = 3;
  const auto snap = trace::generate_snapshot(config);
  const auto model = LatencyModel::from_trace(snap);
  EXPECT_EQ(model.node_count(), 20u);
  const double expected =
      std::max(std::abs(snap.nodes()[2].ping_ms - snap.nodes()[7].ping_ms), 5.0);
  EXPECT_DOUBLE_EQ(model.latency_ms(2, 7), expected);
}

TEST(LatencyModel, AddNodeExtends) {
  LatencyModel model({10.0}, 5.0);
  const auto idx = model.add_node(70.0);
  EXPECT_EQ(idx, 1u);
  EXPECT_DOUBLE_EQ(model.latency_ms(0, 1), 60.0);
}

TEST(LatencyModel, AverageLatencyPositive) {
  const LatencyModel model({10.0, 60.0, 200.0, 450.0}, 5.0);
  const double avg = model.average_latency_ms();
  EXPECT_GT(avg, 5.0);
  EXPECT_LT(avg, 450.0);
}

TEST(LatencyModel, RejectsEmptyAndNegativeFloor) {
  EXPECT_THROW(LatencyModel({}, 5.0), std::invalid_argument);
  EXPECT_THROW(LatencyModel({1.0}, -1.0), std::invalid_argument);
}

TEST(Network, DeliversAfterLatency) {
  sim::Simulator sim;
  Network net(sim, serial_exec(), LatencyModel({10.0, 60.0}, 5.0));
  double delivered_at = -1.0;
  net.send(0, 1, MessageType::kPing, 80, [&] { delivered_at = sim.now(); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(delivered_at, 0.050);
}

TEST(Network, ExtraDelayAddsToLatency) {
  sim::Simulator sim;
  Network net(sim, serial_exec(), LatencyModel({10.0, 60.0}, 5.0));
  double delivered_at = -1.0;
  net.send(0, 1, MessageType::kSegmentData, 30720, [&] { delivered_at = sim.now(); },
           /*extra_delay=*/0.2);
  sim.run_all();
  EXPECT_DOUBLE_EQ(delivered_at, 0.250);
}

TEST(Network, ChargesTrafficAtSendTime) {
  sim::Simulator sim;
  Network net(sim, serial_exec(), LatencyModel({10.0, 60.0}, 5.0));
  net.send(0, 1, MessageType::kSegmentData, 30720, [] {});
  // Charged immediately, before delivery.
  EXPECT_EQ(net.traffic().bits(TrafficClass::kData), 30720u);
}

TEST(Network, FilterDropsDeliveries) {
  sim::Simulator sim;
  FilterHost host([](std::uint32_t) { return false; });
  Network net(sim, serial_exec(), LatencyModel({10.0, 60.0}, 5.0), &host);
  bool delivered = false;
  net.send(0, 1, MessageType::kPing, 80, [&] { delivered = true; });
  sim.run_all();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.dropped(), 1u);
  // Bits still charged — they hit the wire.
  EXPECT_EQ(net.traffic().bits(TrafficClass::kMaintenance), 80u);
}

TEST(Network, FilterEvaluatedAtDeliveryTime) {
  sim::Simulator sim;
  bool alive = true;
  FilterHost host([&alive](std::uint32_t) { return alive; });
  Network net(sim, serial_exec(), LatencyModel({10.0, 60.0}, 5.0), &host);
  bool delivered = false;
  net.send(0, 1, MessageType::kPing, 80, [&] { delivered = true; });
  // The destination dies while the packet is in flight.
  sim.schedule_in(0.01, [&] { alive = false; });
  sim.run_all();
  EXPECT_FALSE(delivered);
}

TEST(Network, ChargeOnlyCountsWithoutEvent) {
  sim::Simulator sim;
  Network net(sim, serial_exec(), LatencyModel({10.0, 60.0}, 5.0));
  net.charge_only(MessageType::kBufferMap, 620);
  EXPECT_EQ(net.traffic().bits(TrafficClass::kControl), 620u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Network, OrderedDeliveriesBetweenSamePair) {
  sim::Simulator sim;
  Network net(sim, serial_exec(), LatencyModel({10.0, 60.0}, 5.0));
  std::vector<int> order;
  net.send(0, 1, MessageType::kPing, 80, [&] { order.push_back(1); });
  net.send(0, 1, MessageType::kPing, 80, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Latency grid (quantized mode)
// ---------------------------------------------------------------------------

TEST(LatencyModel, GridSnapsUpNeverDown) {
  const LatencyModel model({0.0, 7.0}, 5.0, 2.0);
  // 7 ms is strictly between grid points: snaps UP to 8, never to 6.
  EXPECT_DOUBLE_EQ(model.latency_ms(0, 1), 8.0);
  // The floor itself quantizes: floored pairs land on ceil(5/2)*2 = 6.
  const LatencyModel floored({10.0, 10.0}, 5.0, 2.0);
  EXPECT_DOUBLE_EQ(floored.latency_ms(0, 1), 6.0);
}

TEST(LatencyModel, GridPointExactVsEpsilonBelow) {
  const LatencyModel model({0.0}, 5.0, 2.0);
  // A value exactly ON the grid stays put...
  EXPECT_DOUBLE_EQ(model.quantize_up_ms(6.0), 6.0);
  EXPECT_DOUBLE_EQ(model.quantize_up_ms(0.0), 0.0);
  // ...while epsilon below a grid point still snaps to that point, and
  // epsilon above snaps to the NEXT one — snapping is never downward.
  EXPECT_DOUBLE_EQ(model.quantize_up_ms(5.9999999), 6.0);
  EXPECT_DOUBLE_EQ(model.quantize_up_ms(6.0000001), 8.0);
  // Continuous mode (grid 0) is the identity.
  const LatencyModel continuous({0.0}, 5.0, 0.0);
  EXPECT_DOUBLE_EQ(continuous.quantize_up_ms(7.3), 7.3);
}

TEST(LatencyModel, QuantizedRttIsSymmetricAndOnGrid) {
  const LatencyModel model({3.0, 17.5, 41.2}, 5.0, 2.0);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      if (a == b) continue;
      EXPECT_DOUBLE_EQ(model.rtt_s(a, b), model.rtt_s(b, a));
      EXPECT_DOUBLE_EQ(model.rtt_s(a, b), 2.0 * model.latency_s(a, b));
      // 2x an on-grid latency is still a whole number of grid steps.
      const double steps = model.rtt_s(a, b) * 1000.0 / model.grid_ms();
      EXPECT_NEAR(steps, std::round(steps), 1e-9) << a << "," << b;
    }
  }
}

TEST(LatencyModel, FloorZeroAllowsZeroLatency) {
  // floor_ms = 0 with identical pings: zero one-way latency is legal
  // (the model never goes negative) and quantization keeps 0 at 0 —
  // ceil(0/grid) is 0, so a zero latency never inflates to one grid.
  const LatencyModel model({25.0, 25.0}, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(model.latency_ms(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(model.rtt_s(0, 1), 0.0);
  const LatencyModel continuous({25.0, 25.0}, 0.0);
  EXPECT_DOUBLE_EQ(continuous.latency_ms(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(continuous.average_latency_ms(), 0.0);
}

TEST(LatencyModel, AddNodeDuringChurnKeepsAverageSane) {
  // Grow a model across the exact/sampled boundary (n = 512) the way
  // churn joins do, and require the average to stay inside the hard
  // [floor, max-pairwise] envelope at every size — the old lattice
  // sweep could leave this envelope on adversarial vectors.
  LatencyModel model({0.0, 40.0}, 5.0);
  double max_ping = 40.0;
  for (std::size_t k = 2; k < 600; ++k) {
    const double ping = static_cast<double>((k * 37) % 200);
    max_ping = std::max(max_ping, ping);
    model.add_node(ping);
    if (k % 97 == 0 || k >= 510) {
      const double avg = model.average_latency_ms();
      EXPECT_GE(avg, model.floor_ms()) << "n=" << k + 1;
      EXPECT_LE(avg, max_ping) << "n=" << k + 1;
    }
  }
  // Deterministic: same model, same estimate, every call.
  EXPECT_DOUBLE_EQ(model.average_latency_ms(), model.average_latency_ms());
}

TEST(LatencyModel, AverageSamplerSurvivesAdversarialIndexCorrelation) {
  // Regression for the stride-lattice sampling bias. For 512 < n <=
  // 1024 the old sampler visited only pairs with i even and j odd; on
  // a ping vector where parity encodes the ping (even index -> 0 ms,
  // odd -> 100 ms) every sampled pair hit |0 - 100| = 100 ms and the
  // estimate came out ~2x the true mean. The fixed sampler draws pairs
  // uniformly, so index structure cannot bias it.
  const std::size_t n = 600;
  std::vector<double> pings(n);
  for (std::size_t i = 0; i < n; ++i) pings[i] = (i % 2 == 0) ? 0.0 : 100.0;
  const LatencyModel model(pings, 5.0);

  // Ground truth, exact O(n^2).
  double exact_total = 0.0;
  std::size_t exact_pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      exact_total += model.latency_ms(i, j);
      ++exact_pairs;
    }
  }
  const double exact = exact_total / static_cast<double>(exact_pairs);

  // The OLD estimator, reproduced verbatim: this is what the shipped
  // sampler used to compute. It MUST be badly off on this vector —
  // if this assertion ever fails, the vector stopped being adversarial
  // and the regression test lost its teeth.
  const std::size_t stride = n / 512 + 1;
  double old_total = 0.0;
  std::size_t old_pairs = 0;
  for (std::size_t i = 0; i < n; i += stride) {
    for (std::size_t j = i + 1; j < n; j += stride) {
      old_total += model.latency_ms(i, j);
      ++old_pairs;
    }
  }
  const double old_estimate = old_total / static_cast<double>(old_pairs);
  ASSERT_GT(std::abs(old_estimate - exact) / exact, 0.5)
      << "old lattice estimate " << old_estimate << " vs exact " << exact;

  // The fixed sampler lands within a few percent of the exact mean.
  const double estimate = model.average_latency_ms();
  EXPECT_LT(std::abs(estimate - exact) / exact, 0.05)
      << "sampled " << estimate << " vs exact " << exact;
}

// ---------------------------------------------------------------------------
// Quantized delivery batching
// ---------------------------------------------------------------------------

TEST(Network, QuantizedSendSnapsDeliveryInstantUp) {
  sim::Simulator sim;
  // Pings 10/17: one-way 7 ms -> 10 ms on the 5 ms grid.
  Network net(sim, serial_exec(), LatencyModel({10.0, 17.0}, 5.0, 5.0));
  double delivered_at = -1.0;
  net.send(0, 1, MessageType::kPing, 80, [&] { delivered_at = sim.now(); });
  sim.run_all();
  EXPECT_DOUBLE_EQ(delivered_at, 0.010);

  // extra_delay lands off-grid (10 ms latency + 1.2 ms payload) and the
  // TOTAL instant snaps: 11.2 -> 15 ms after the send.
  delivered_at = -1.0;
  net.send(0, 1, MessageType::kSegmentData, 30720, [&] { delivered_at = sim.now(); },
           /*extra_delay=*/0.0012);
  sim.run_all();
  EXPECT_DOUBLE_EQ(delivered_at, 0.025);  // 0.010 (now) + 11.2 ms -> 25 ms
}

TEST(Network, QuantizedCoInstantDeliveriesFormOneBatch) {
  sim::Simulator sim;
  // All pairwise latencies floor to 5 ms -> one 5 ms grid bucket.
  Network net(sim, serial_exec(), LatencyModel({10.0, 11.0, 12.0, 13.0}, 5.0, 5.0));
  std::vector<std::uint32_t> delivered;
  std::vector<double> instants;
  for (std::uint32_t to = 1; to < 4; ++to) {
    net.send_sharded(0, to, MessageType::kPing, 80,
                     [&delivered, &instants, &sim, to](DeliveryContext&) {
                       delivered.push_back(to);
                       instants.push_back(sim.now());
                     });
  }
  sim.run_all();
  EXPECT_EQ(net.delivery_batches(), 1u);
  EXPECT_EQ(net.batched_deliveries(), 3u);
  EXPECT_EQ(delivered, (std::vector<std::uint32_t>{1, 2, 3}));
  for (const double t : instants) EXPECT_DOUBLE_EQ(t, 0.005);
}

TEST(Network, QuantizedSamePairKeepsFifoWithinBucket) {
  sim::Simulator sim;
  Network net(sim, serial_exec(), LatencyModel({10.0, 11.0}, 5.0, 5.0));
  std::vector<int> order;
  net.send_sharded(0, 1, MessageType::kPing, 80,
                   [&order](DeliveryContext&) { order.push_back(1); });
  net.send_sharded(0, 1, MessageType::kPing, 80,
                   [&order](DeliveryContext&) { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(net.delivery_batches(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Network, QuantizedFilterDropsAreCounted) {
  sim::Simulator sim;
  FilterHost host([](std::uint32_t to) { return to != 1; });
  Network net(sim, serial_exec(), LatencyModel({10.0, 11.0, 12.0}, 5.0, 5.0), &host);
  int ran = 0;
  net.send_sharded(0, 1, MessageType::kPing, 80,
                   [&ran](DeliveryContext&) { ++ran; });
  net.send_sharded(0, 2, MessageType::kPing, 80,
                   [&ran](DeliveryContext&) { ++ran; });
  sim.run_all();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(net.dropped(), 1u);
  // Both messages hit the wire regardless.
  EXPECT_EQ(net.traffic().messages(TrafficClass::kMaintenance), 2u);
}

TEST(Network, PostShardedSkipsChargeAndFilter) {
  sim::Simulator sim;
  FilterHost host([](std::uint32_t) { return false; });
  Network net(sim, serial_exec(), LatencyModel({10.0, 11.0}, 5.0, 5.0), &host);
  double ran_at = -1.0;
  net.post_sharded(1, 0.0042, [&](DeliveryContext&) { ran_at = sim.now(); });
  sim.run_all();
  // Local continuation: no wire traffic, immune to the liveness filter,
  // snapped onto the grid like any quantized delivery.
  EXPECT_DOUBLE_EQ(ran_at, 0.005);
  EXPECT_EQ(net.dropped(), 0u);
  EXPECT_EQ(net.traffic().messages(TrafficClass::kMaintenance), 0u);
}

TEST(Network, ContinuousShardedPathsKeepExactTiming) {
  sim::Simulator sim;
  Network net(sim, serial_exec(), LatencyModel({10.0, 60.0}, 5.0));  // continuous
  double delivered_at = -1.0;
  double forwarded_at = -1.0;
  bool deferred_ran_inline = false;
  net.send_sharded(0, 1, MessageType::kPing, 80, [&](DeliveryContext& ctx) {
    delivered_at = sim.now();
    EXPECT_FALSE(ctx.parallel());
    EXPECT_EQ(ctx.shard(), 0u);
    // Immediate mode: defer() runs its argument right here...
    ctx.defer([&] { deferred_ran_inline = true; });
    EXPECT_TRUE(deferred_ran_inline);
    // ...and forward() schedules an exact (unquantized) continuation.
    ctx.forward(1, sim.now() + 0.0013,
                [&](DeliveryContext&) { forwarded_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_DOUBLE_EQ(delivered_at, 0.050);
  EXPECT_DOUBLE_EQ(forwarded_at, 0.0513);
  EXPECT_EQ(net.delivery_batches(), 0u);  // no buckets in continuous mode
}

TEST(Network, QuantizedForwardChainsAcrossBuckets) {
  sim::Simulator sim;
  Network net(sim, serial_exec(), LatencyModel({10.0, 11.0}, 5.0, 5.0));
  std::vector<double> hops;
  net.send_sharded(0, 1, MessageType::kPing, 80, [&](DeliveryContext& ctx) {
    hops.push_back(sim.now());
    ctx.forward(1, sim.now() + 0.0021, [&](DeliveryContext& inner) {
      hops.push_back(sim.now());
      inner.forward(1, sim.now() + 0.0021,
                    [&](DeliveryContext&) { hops.push_back(sim.now()); });
    });
  });
  sim.run_all();
  // 5 ms arrival, then each 2.1 ms continuation snaps to the next grid
  // point: 10 ms, 15 ms.
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_DOUBLE_EQ(hops[0], 0.005);
  EXPECT_DOUBLE_EQ(hops[1], 0.010);
  EXPECT_DOUBLE_EQ(hops[2], 0.015);
  EXPECT_EQ(net.delivery_batches(), 3u);
}

TEST(Network, QuantizedDeferSettlesAfterWholeBucket) {
  sim::Simulator sim;
  Network net(sim, serial_exec(), LatencyModel({10.0, 11.0, 12.0}, 5.0, 5.0));
  std::vector<std::string> log;
  for (std::uint32_t to = 1; to < 3; ++to) {
    net.send_sharded(0, to, MessageType::kPing, 80, [&log, to](DeliveryContext& ctx) {
      log.push_back("handler" + std::to_string(to));
      ctx.defer([&log, to] { log.push_back("defer" + std::to_string(to)); });
    });
  }
  sim.run_all();
  // Every handler of the bucket runs before ANY deferred op: the join
  // replays buffers only after the fork completes.
  EXPECT_EQ(log, (std::vector<std::string>{"handler1", "handler2", "defer1",
                                           "defer2"}));
}

/// A host that reaches every node and logs its fork/join brackets.
class LoggingHost final : public DeliveryHost {
 public:
  explicit LoggingHost(std::vector<std::string>& log) : log_(log) {}
  [[nodiscard]] bool reachable(std::uint32_t) const override { return true; }
  void before_fork(std::size_t shards) override {
    log_.push_back("fork" + std::to_string(shards));
  }
  void after_join(std::size_t shards) override {
    log_.push_back("join" + std::to_string(shards));
  }

 private:
  std::vector<std::string>& log_;
};

TEST(Network, HostBracketsEachForkedBucket) {
  // 20 nodes, every pairwise latency floored to the 5 ms grid: the 19
  // receivers share one bucket of three shards (grain 8). Receivers 1
  // and 2 forward into a second bucket of two receivers, one shard.
  std::vector<double> pings(20);
  for (std::size_t i = 0; i < pings.size(); ++i) {
    pings[i] = 10.0 + 0.001 * static_cast<double>(i);
  }
  std::vector<std::string> expected = {"fork3", "join3"};
  for (std::uint32_t to = 1; to < 20; ++to) expected.push_back("defer" + std::to_string(to));
  for (const char* line : {"fork1", "join1", "late1", "late2"}) expected.emplace_back(line);

  for (const unsigned skew : {0u, 1u}) {
    SCOPED_TRACE(skew == 0 ? "exact engine" : "windowed engine, skew 1");
    sim::Simulator::LaxConfig lax;
    lax.skew_buckets = skew;
    lax.grid_s = 0.005;
    sim::Simulator sim(lax);
    std::vector<std::string> log;
    LoggingHost host(log);
    Network net(sim, serial_exec(), LatencyModel(pings, 5.0, 5.0), &host);
    for (std::uint32_t to = 1; to < 20; ++to) {
      net.send_sharded(0, to, MessageType::kPing, 80, [&log, &sim, to](DeliveryContext& ctx) {
        ctx.defer([&log, to] { log.push_back("defer" + std::to_string(to)); });
        if (to > 2) return;
        ctx.forward(to, sim.now() + 0.0021, [&log, to](DeliveryContext& inner) {
          inner.defer([&log, to] { log.push_back("late" + std::to_string(to)); });
        });
      });
    }
    sim.run_all();
    EXPECT_EQ(net.delivery_batches(), 2u);
    // One before_fork/after_join pair per fired bucket, with the same
    // shard count, and the reduction runs before the bucket's deferred
    // ops replay.
    EXPECT_EQ(log, expected);
  }

  // Continuous mode never forks, so the host is only asked for liveness.
  sim::Simulator sim;
  std::vector<std::string> log;
  LoggingHost host(log);
  Network net(sim, serial_exec(), LatencyModel({10.0, 60.0}, 5.0), &host);
  int ran = 0;
  net.send(0, 1, MessageType::kPing, 80, [&ran] { ++ran; });
  net.send_sharded(0, 1, MessageType::kPing, 80, [&ran](DeliveryContext& ctx) {
    ++ran;
    ctx.defer([&ran] { ++ran; });
  });
  net.post_sharded(1, 0.001, [&ran](DeliveryContext&) { ++ran; });
  sim.run_all();
  EXPECT_EQ(ran, 4);
  EXPECT_TRUE(log.empty());
}

// Regression: fired buckets used to recycle their entry vectors into
// the next buckets, so every pending bucket inherited the largest
// capacity any bucket had reached — 79 MB of hoarded capacity on an
// 8000-node quantized session. Pending memory must track what is live,
// on both engines: the windowed engine's sweep fires the same buckets.
TEST(Network, QuantizedPendingBytesTrackLiveDeliveries) {
  constexpr std::size_t kBuckets = 64;
  constexpr std::size_t kBurst = 1000;
  constexpr double kGrid = 0.001;
  for (const unsigned skew : {0u, 1u}) {
    SCOPED_TRACE(skew == 0 ? "exact engine" : "windowed engine, skew 1");
    sim::Simulator::LaxConfig lax;
    lax.skew_buckets = skew;
    lax.grid_s = kGrid;
    sim::Simulator sim(lax);
    Network net(sim, serial_exec(), LatencyModel({10.0, 11.0}, 5.0, 1.0));
    std::size_t ran = 0;
    const auto handler = [&ran](DeliveryContext&) { ++ran; };
    for (std::size_t b = 0; b < kBuckets; ++b) {
      for (std::size_t i = 0; i < kBurst; ++i) {
        // Mid-step instants snap up to grid point b + 1 without
        // rounding ambiguity.
        net.post_sharded(1, (static_cast<double>(b) + 0.5) * kGrid, handler);
      }
    }
    EXPECT_GE(net.pending_bytes(), kBuckets * kBurst * sizeof(HandoffEntry));
    sim.run_all();
    ASSERT_EQ(ran, kBuckets * kBurst);
    EXPECT_EQ(net.delivery_batches(), kBuckets);
    EXPECT_EQ(net.pending_bytes(), 0u);

    for (std::size_t b = 0; b < kBuckets; ++b) {
      net.post_sharded(1, sim.now() + (static_cast<double>(b) + 0.5) * kGrid,
                       handler);
    }
    const std::size_t live_bytes = kBuckets * sizeof(HandoffEntry);
    EXPECT_GE(net.pending_bytes(), live_bytes);
    EXPECT_LE(net.pending_bytes(), 4 * live_bytes)
        << "pending buckets hold more than their live deliveries";
    sim.run_all();
    EXPECT_EQ(ran, kBuckets * kBurst + kBuckets);
  }
}

}  // namespace
}  // namespace continu::net
