#include "trace/trace.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace continu::trace {

TraceSnapshot::TraceSnapshot(std::vector<TraceNode> nodes, std::vector<TraceEdge> edges)
    : nodes_(std::move(nodes)), edges_(std::move(edges)) {
  validate();
}

void TraceSnapshot::validate() const {
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].trace_id != static_cast<std::uint32_t>(i)) {
      throw std::invalid_argument("TraceSnapshot: node ids must be dense and 0-based");
    }
    // Latency is |ping_a - ping_b|, so a negative ping would pass for a
    // plausible but wrong distance.
    if (!std::isfinite(nodes_[i].ping_ms) || nodes_[i].ping_ms < 0.0) {
      throw std::invalid_argument("TraceSnapshot: node " + std::to_string(i) +
                                  " ping must be finite and >= 0");
    }
  }
  for (const auto& [a, b] : edges_) {
    if (a >= n || b >= n || a == b) {
      throw std::invalid_argument("TraceSnapshot: edge endpoint out of range or self-loop");
    }
  }
}

double TraceSnapshot::average_degree() const noexcept {
  if (nodes_.empty()) return 0.0;
  return 2.0 * static_cast<double>(edges_.size()) / static_cast<double>(nodes_.size());
}

void TraceSnapshot::save(std::ostream& out) const {
  out.precision(17);  // lossless double roundtrip
  out << "continu-trace 1 " << nodes_.size() << ' ' << edges_.size() << '\n';
  for (const auto& node : nodes_) {
    out << "node " << node.trace_id << ' ' << node.ipv4 << ' ' << node.ping_ms << ' '
        << node.speed_kbps << '\n';
  }
  for (const auto& [a, b] : edges_) {
    out << "edge " << a << ' ' << b << '\n';
  }
}

TraceSnapshot TraceSnapshot::load(std::istream& in) {
  std::string magic;
  int version = 0;
  std::size_t n = 0;
  std::size_t m = 0;
  if (!(in >> magic >> version >> n >> m) || magic != "continu-trace" || version != 1) {
    throw std::runtime_error("TraceSnapshot::load: bad header");
  }
  // Nothing is sized from the header: its counts are unchecked until
  // every record has been read, and a bogus count must reach the
  // mismatch diagnosis below rather than an allocation failure.
  std::vector<TraceNode> nodes;
  std::vector<TraceEdge> edges;
  std::string kind;
  while (in >> kind) {
    if (kind == "node") {
      TraceNode node;
      if (!(in >> node.trace_id >> node.ipv4 >> node.ping_ms >> node.speed_kbps)) {
        throw std::runtime_error("TraceSnapshot::load: bad node record");
      }
      nodes.push_back(node);
    } else if (kind == "edge") {
      std::uint32_t a = 0;
      std::uint32_t b = 0;
      if (!(in >> a >> b)) {
        throw std::runtime_error("TraceSnapshot::load: bad edge record");
      }
      edges.emplace_back(a, b);
    } else {
      throw std::runtime_error("TraceSnapshot::load: unknown record '" + kind + "'");
    }
  }
  if (nodes.size() != n || edges.size() != m) {
    throw std::runtime_error("TraceSnapshot::load: record counts disagree with header");
  }
  return TraceSnapshot(std::move(nodes), std::move(edges));
}

void TraceSnapshot::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("TraceSnapshot::save_file: cannot open " + path);
  save(out);
}

TraceSnapshot TraceSnapshot::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("TraceSnapshot::load_file: cannot open " + path);
  return load(in);
}

std::string format_ipv4(std::uint32_t ip) {
  std::ostringstream os;
  os << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.' << ((ip >> 8) & 0xff)
     << '.' << (ip & 0xff);
  return os.str();
}

}  // namespace continu::trace
