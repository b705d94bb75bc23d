// Unit tests for trace snapshots, the synthetic generator and topology.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "trace/generator.hpp"
#include "trace/topology.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace continu::trace {
namespace {

TEST(TraceSnapshot, ValidatesDenseIds) {
  std::vector<TraceNode> nodes(2);
  nodes[0].trace_id = 0;
  nodes[1].trace_id = 5;  // not dense
  EXPECT_THROW(TraceSnapshot(std::move(nodes), {}), std::invalid_argument);
}

TEST(TraceSnapshot, RejectsSelfLoops) {
  std::vector<TraceNode> nodes(2);
  nodes[0].trace_id = 0;
  nodes[1].trace_id = 1;
  EXPECT_THROW(TraceSnapshot(std::move(nodes), {{0, 0}}), std::invalid_argument);
}

TEST(TraceSnapshot, RejectsOutOfRangeEdges) {
  std::vector<TraceNode> nodes(2);
  nodes[0].trace_id = 0;
  nodes[1].trace_id = 1;
  EXPECT_THROW(TraceSnapshot(std::move(nodes), {{0, 7}}), std::invalid_argument);
}

TEST(TraceSnapshot, RejectsNegativeOrNonFinitePing) {
  for (const double ping : {-1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    std::vector<TraceNode> nodes(2);
    nodes[0].trace_id = 0;
    nodes[1].trace_id = 1;
    nodes[1].ping_ms = ping;
    EXPECT_THROW(TraceSnapshot(std::move(nodes), {}), std::invalid_argument) << ping;
  }
  std::istringstream in("continu-trace 1 2 0\nnode 0 1 20 100\nnode 1 2 -50 100\n");
  EXPECT_THROW((void)TraceSnapshot::load(in), std::invalid_argument);
}

TEST(TraceSnapshot, AverageDegree) {
  std::vector<TraceNode> nodes(4);
  for (std::uint32_t i = 0; i < 4; ++i) nodes[i].trace_id = i;
  const TraceSnapshot snap(std::move(nodes), {{0, 1}, {1, 2}});
  EXPECT_DOUBLE_EQ(snap.average_degree(), 1.0);
}

TEST(TraceSnapshot, SaveLoadRoundtrip) {
  GeneratorConfig config;
  config.node_count = 50;
  config.seed = 7;
  const TraceSnapshot original = generate_snapshot(config);
  std::stringstream stream;
  original.save(stream);
  const TraceSnapshot loaded = TraceSnapshot::load(stream);
  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.edge_count(), original.edge_count());
  for (std::size_t i = 0; i < original.node_count(); ++i) {
    EXPECT_EQ(loaded.nodes()[i].ipv4, original.nodes()[i].ipv4);
    EXPECT_DOUBLE_EQ(loaded.nodes()[i].ping_ms, original.nodes()[i].ping_ms);
    EXPECT_DOUBLE_EQ(loaded.nodes()[i].speed_kbps, original.nodes()[i].speed_kbps);
  }
  EXPECT_EQ(loaded.edges(), original.edges());
}

TEST(TraceSnapshot, LoadRejectsBadHeader) {
  std::stringstream stream("bogus 1 0 0\n");
  EXPECT_THROW(TraceSnapshot::load(stream), std::runtime_error);
}

TEST(TraceSnapshot, LoadRejectsCountMismatch) {
  std::stringstream stream("continu-trace 1 2 0\nnode 0 1 2.0 56.0\n");
  EXPECT_THROW(TraceSnapshot::load(stream), std::runtime_error);
  // A header count far beyond any real trace is diagnosed as a count
  // mismatch, not attempted as an allocation.
  std::stringstream huge("continu-trace 1 99999999999999 0\n");
  try {
    (void)TraceSnapshot::load(huge);
    FAIL() << "a 10^14-node header with no records must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("record counts disagree with header"),
              std::string::npos)
        << e.what();
  }
}

TEST(FormatIpv4, Format) {
  EXPECT_EQ(format_ipv4(0x0A000001), "10.0.0.1");
  EXPECT_EQ(format_ipv4(0xC0A80164), "192.168.1.100");
}

TEST(Generator, Deterministic) {
  GeneratorConfig config;
  config.node_count = 100;
  config.seed = 42;
  const auto a = generate_snapshot(config);
  const auto b = generate_snapshot(config);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.nodes()[3].ipv4, b.nodes()[3].ipv4);
}

TEST(Generator, RespectsNodeCount) {
  GeneratorConfig config;
  config.node_count = 321;
  EXPECT_EQ(generate_snapshot(config).node_count(), 321u);
}

TEST(Generator, RejectsTinyCounts) {
  GeneratorConfig config;
  config.node_count = 1;
  EXPECT_THROW(generate_snapshot(config), std::invalid_argument);
}

TEST(Generator, AverageDegreeNearTarget) {
  GeneratorConfig config;
  config.node_count = 2000;
  config.average_degree = 2.5;
  config.seed = 5;
  const auto snap = generate_snapshot(config);
  // Dedup and self-loop rejection lose a little; stay in the crawl band.
  EXPECT_GT(snap.average_degree(), 1.5);
  EXPECT_LT(snap.average_degree(), 3.5);
}

TEST(Generator, DegreeClampedToCrawlBand) {
  GeneratorConfig config;
  config.node_count = 500;
  config.average_degree = 50.0;  // absurd; must clamp to 3.5
  const auto snap = generate_snapshot(config);
  EXPECT_LE(snap.average_degree(), 3.6);
}

TEST(Generator, PingTimesInEraRange) {
  GeneratorConfig config;
  config.node_count = 1000;
  config.seed = 11;
  const auto snap = generate_snapshot(config);
  for (const auto& node : snap.nodes()) {
    EXPECT_GE(node.ping_ms, 15.0);
    EXPECT_LE(node.ping_ms, 300.0);
  }
}

TEST(Generator, TwoPingPopulations) {
  GeneratorConfig config;
  config.node_count = 2000;
  config.broadband_fraction = 0.5;
  config.seed = 13;
  const auto snap = generate_snapshot(config);
  std::size_t fast = 0;
  std::size_t slow = 0;
  for (const auto& node : snap.nodes()) {
    if (node.ping_ms < 100.0) ++fast;
    if (node.ping_ms >= 100.0) ++slow;
  }
  EXPECT_NEAR(static_cast<double>(fast) / 2000.0, 0.5, 0.06);
  EXPECT_NEAR(static_cast<double>(slow) / 2000.0, 0.5, 0.06);
}

TEST(Generator, CorpusSizesSpanRange) {
  const auto corpus = generate_corpus(10, 100, 10000, 3);
  ASSERT_EQ(corpus.size(), 10u);
  EXPECT_NEAR(static_cast<double>(corpus.front().node_count()), 100.0, 5.0);
  EXPECT_NEAR(static_cast<double>(corpus.back().node_count()), 10000.0, 100.0);
  for (std::size_t i = 1; i < corpus.size(); ++i) {
    EXPECT_GE(corpus[i].node_count(), corpus[i - 1].node_count());
  }
}

TEST(Generator, CorpusRejectsBadArguments) {
  EXPECT_THROW(generate_corpus(0, 100, 1000, 1), std::invalid_argument);
  EXPECT_THROW(generate_corpus(5, 1000, 100, 1), std::invalid_argument);
}

TEST(Topology, EveryNodeReachesMinDegree) {
  GeneratorConfig config;
  config.node_count = 500;
  config.average_degree = 1.2;  // sparse crawl
  config.seed = 17;
  const auto snap = generate_snapshot(config);
  util::Rng rng(1);
  const Topology topo(snap, 5, rng);
  EXPECT_GE(topo.min_degree(), 5u);
}

TEST(Topology, PreservesTraceEdges) {
  GeneratorConfig config;
  config.node_count = 100;
  config.seed = 19;
  const auto snap = generate_snapshot(config);
  util::Rng rng(2);
  const Topology topo(snap, 5, rng);
  for (const auto& [a, b] : snap.edges()) {
    EXPECT_TRUE(topo.has_edge(a, b));
    EXPECT_TRUE(topo.has_edge(b, a));
  }
}

TEST(Topology, AdjacencySymmetric) {
  GeneratorConfig config;
  config.node_count = 200;
  config.seed = 23;
  const auto snap = generate_snapshot(config);
  util::Rng rng(3);
  const Topology topo(snap, 5, rng);
  for (std::uint32_t v = 0; v < 200; ++v) {
    for (const auto u : topo.neighbors(v)) {
      EXPECT_TRUE(topo.has_edge(u, v));
    }
  }
}

TEST(Topology, NoSelfLoopsOrDuplicates) {
  GeneratorConfig config;
  config.node_count = 300;
  config.seed = 29;
  const auto snap = generate_snapshot(config);
  util::Rng rng(4);
  const Topology topo(snap, 5, rng);
  for (std::uint32_t v = 0; v < 300; ++v) {
    const auto& adj = topo.neighbors(v);
    std::set<std::uint32_t> unique(adj.begin(), adj.end());
    EXPECT_EQ(unique.size(), adj.size());
    EXPECT_FALSE(unique.count(v) != 0);
  }
}

TEST(Topology, LatencyIsPingDifferenceWithFloor) {
  std::vector<TraceNode> nodes(3);
  for (std::uint32_t i = 0; i < 3; ++i) nodes[i].trace_id = i;
  nodes[0].ping_ms = 100.0;
  nodes[1].ping_ms = 130.0;
  nodes[2].ping_ms = 101.0;
  const TraceSnapshot snap(std::move(nodes), {{0, 1}});
  util::Rng rng(5);
  const Topology topo(snap, 1, rng);
  EXPECT_DOUBLE_EQ(topo.latency_ms(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(topo.latency_ms(1, 0), 30.0);
  // |100 - 101| = 1ms is below the 5ms floor.
  EXPECT_DOUBLE_EQ(topo.latency_ms(0, 2), Topology::kLatencyFloorMs);
}

TEST(Topology, SmallCompleteGraphCase) {
  // min_degree >= n-1 must terminate with the complete graph.
  std::vector<TraceNode> nodes(4);
  for (std::uint32_t i = 0; i < 4; ++i) nodes[i].trace_id = i;
  const TraceSnapshot snap(std::move(nodes), {});
  util::Rng rng(6);
  const Topology topo(snap, 10, rng);
  EXPECT_EQ(topo.min_degree(), 3u);
}

// Parameterized sweep over the paper's trace sizes: augmentation to
// M = 5 must hold at every scale.
class TopologyScale : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TopologyScale, AugmentationHoldsAtScale) {
  GeneratorConfig config;
  config.node_count = GetParam();
  config.average_degree = 2.0;
  config.seed = 31;
  const auto snap = generate_snapshot(config);
  util::Rng rng(7);
  const Topology topo(snap, 5, rng);
  EXPECT_GE(topo.min_degree(), 5u);
  EXPECT_LT(topo.average_degree(), 16.0);  // augmentation stays frugal
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopologyScale,
                         ::testing::Values(100u, 500u, 1000u, 2000u));

}  // namespace
}  // namespace continu::trace
