#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace continu::trace {

namespace {

constexpr double kMaxAverageDegree = 3.5;

/// Advertised modem/DSL speeds seen in era crawls.
constexpr double kSpeedTable[] = {28.8, 33.6, 56.0, 128.0, 384.0, 768.0, 1544.0};

[[nodiscard]] double sample_ping_ms(util::Rng& rng, bool broadband) {
  // Calibrated so the paper's latency estimator (|ping_a - ping_b|)
  // yields an average one-hop latency t_hop ~ 50-70 ms, matching the
  // paper's own measurement on its traces.
  if (broadband) {
    // Cable/DSL/university hosts.
    return std::min(15.0 + rng.next_exponential(1.0 / 20.0), 100.0);
  }
  // Modem hosts.
  return std::min(100.0 + rng.next_exponential(1.0 / 50.0), 300.0);
}

[[nodiscard]] std::uint32_t sample_ipv4(util::Rng& rng) {
  // Avoid 0.x and 255.x for cosmetic realism; addresses are opaque.
  const auto a = static_cast<std::uint32_t>(rng.next_int(1, 223));
  const auto b = static_cast<std::uint32_t>(rng.next_int(0, 255));
  const auto c = static_cast<std::uint32_t>(rng.next_int(0, 255));
  const auto d = static_cast<std::uint32_t>(rng.next_int(1, 254));
  return (a << 24) | (b << 16) | (c << 8) | d;
}

}  // namespace

TraceSnapshot generate_snapshot(const GeneratorConfig& config) {
  if (config.node_count < 2) {
    throw std::invalid_argument("generate_snapshot: need at least 2 nodes");
  }
  util::Rng rng(config.seed);
  const std::size_t n = config.node_count;

  std::vector<TraceNode> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceNode node;
    node.trace_id = static_cast<std::uint32_t>(i);
    node.ipv4 = sample_ipv4(rng);
    const bool broadband = rng.next_bool(config.broadband_fraction);
    node.ping_ms = sample_ping_ms(rng, broadband);
    if (broadband) {
      node.speed_kbps = kSpeedTable[rng.next_int(3, 6)];
    } else {
      node.speed_kbps = kSpeedTable[rng.next_int(0, 2)];
    }
    nodes.push_back(node);
  }

  // Heavy-tailed stub counts scaled to hit the target average degree,
  // paired off chemistry-model style (configuration model without
  // self-loops or multi-edges).
  const double avg_degree = std::clamp(config.average_degree, 0.0, kMaxAverageDegree);
  std::vector<double> raw(n);
  double raw_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    raw[i] = rng.next_pareto(1.0, config.degree_pareto_shape);
    raw_sum += raw[i];
  }
  const double target_stubs = avg_degree * static_cast<double>(n);
  std::vector<std::uint32_t> stubs;
  stubs.reserve(static_cast<std::size_t>(target_stubs) + n);
  for (std::size_t i = 0; i < n; ++i) {
    const double share = raw[i] / raw_sum * target_stubs;
    const auto count = static_cast<std::size_t>(share + rng.next_double());
    for (std::size_t s = 0; s < count; ++s) {
      stubs.push_back(static_cast<std::uint32_t>(i));
    }
  }
  rng.shuffle(stubs);

  std::vector<TraceEdge> edges;
  edges.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    std::uint32_t a = stubs[i];
    std::uint32_t b = stubs[i + 1];
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    edges.emplace_back(a, b);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return TraceSnapshot(std::move(nodes), std::move(edges));
}

std::vector<TraceSnapshot> generate_corpus(std::size_t count, std::size_t min_nodes,
                                           std::size_t max_nodes, std::uint64_t seed) {
  if (count == 0 || min_nodes < 2 || max_nodes < min_nodes) {
    throw std::invalid_argument("generate_corpus: bad parameters");
  }
  util::Rng rng(seed);
  std::vector<TraceSnapshot> corpus;
  corpus.reserve(count);
  const double log_min = std::log(static_cast<double>(min_nodes));
  const double log_max = std::log(static_cast<double>(max_nodes));
  for (std::size_t i = 0; i < count; ++i) {
    const double t = (count == 1) ? 0.0 : static_cast<double>(i) / static_cast<double>(count - 1);
    GeneratorConfig config;
    config.node_count =
        static_cast<std::size_t>(std::lround(std::exp(log_min + t * (log_max - log_min))));
    config.average_degree = rng.next_range(0.8, kMaxAverageDegree);
    config.broadband_fraction = rng.next_range(0.3, 0.6);
    config.seed = rng.next_u64();
    corpus.push_back(generate_snapshot(config));
  }
  return corpus;
}

}  // namespace continu::trace
