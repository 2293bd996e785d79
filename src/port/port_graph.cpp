#include "port/port_graph.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "util/rng.hpp"

namespace eds::port {

void check_port_count(std::uint64_t total_ports) {
  if (total_ports > kMaxPorts) {
    throw InvalidArgument(
        "PortGraph: the graph has " + std::to_string(total_ports) +
        " ports; flat port indices are 32-bit, so at most " +
        std::to_string(kMaxPorts) + " are supported");
  }
}

const std::shared_ptr<const PortGraph::Tables>& PortGraph::empty_tables() {
  static const std::shared_ptr<const Tables> empty = [] {
    auto t = std::make_shared<Tables>();
    t->hash = hash_structure(*t);
    return std::shared_ptr<const Tables>(std::move(t));
  }();
  return empty;
}

PortGraph::PortGraph() noexcept : tables_(empty_tables()) {}

std::size_t PortGraph::flat_index(std::span<const std::uint32_t> offsets,
                                  NodeId v, Port i) {
  if (v >= offsets.size() - 1 || i < 1 || i > offsets[v + 1] - offsets[v]) {
    throw InvalidArgument("PortGraph: port reference out of range");
  }
  return offsets[v] + (i - 1);
}

PortGraph::PortGraph(PortGraph&& other) noexcept
    : tables_(std::exchange(other.tables_, empty_tables())) {}

PortGraph& PortGraph::operator=(PortGraph&& other) noexcept {
  // The source is left a valid empty graph, hash included.
  tables_ = std::exchange(other.tables_, empty_tables());
  return *this;
}

std::uint64_t PortGraph::hash_structure(const Tables& t) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto mix = [&state](std::uint64_t value) {
    state ^= value + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
    std::uint64_t sm = state;
    state = splitmix64(sm);
  };
  const std::size_t n = t.offsets.size() - 1;
  mix(n);
  for (std::size_t v = 0; v < n; ++v) mix(t.offsets[v + 1] - t.offsets[v]);
  for (std::size_t q = 0; q < t.partner_flat.size(); ++q) {
    const std::uint32_t u = t.partner_node[q];
    const Port port = t.partner_flat[q] - t.offsets[u] + 1;
    mix((static_cast<std::uint64_t>(u) << 32) | port);
  }
  return state;
}

std::vector<PortEdge> PortGraph::port_edges() const {
  std::vector<PortEdge> out;
  out.reserve(num_ports() / 2 + 1);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (Port i = 1; i <= degree(v); ++i) {
      const PortRef here{v, i};
      const PortRef there = partner_ref(offset(v) + i - 1);
      if (there == here) {
        out.push_back({here, here, /*directed_loop=*/true});
      } else if (std::pair(v, i) < std::pair(there.node, there.port)) {
        out.push_back({here, there, /*directed_loop=*/false});
      }
    }
  }
  return out;
}

bool PortGraph::is_simple() const {
  std::map<std::pair<NodeId, NodeId>, int> count;
  for (const auto& e : port_edges()) {
    if (e.is_loop()) return false;
    NodeId u = e.a.node;
    NodeId v = e.b.node;
    if (u > v) std::swap(u, v);
    if (++count[{u, v}] > 1) return false;
  }
  return true;
}

void PortGraph::validate() const {
  const auto& t = *tables_;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (Port i = 1; i <= degree(v); ++i) {
      const std::size_t q = offset(v) + i - 1;
      const std::uint32_t u = t.partner_node[q];
      const std::uint32_t p = t.partner_flat[q];
      if (u >= num_nodes() || p < t.offsets[u] || p >= t.offsets[u + 1]) {
        std::ostringstream os;
        os << "PortGraph: p(" << v << "," << i << ") points out of range";
        throw InvalidStructure(os.str());
      }
      if (t.partner_flat[p] != q) {
        std::ostringstream os;
        os << "PortGraph: involution violated at node " << v << " port " << i;
        throw InvalidStructure(os.str());
      }
    }
  }
}

std::string PortGraph::summary() const {
  std::size_t loops = 0;
  for (const auto& e : port_edges()) {
    if (e.is_loop()) ++loops;
  }
  std::ostringstream os;
  os << "nodes=" << num_nodes() << " ports=" << num_ports()
     << " loops=" << loops;
  return os.str();
}

PortGraphBuilder::PortGraphBuilder(std::vector<Port> degrees) {
  std::uint64_t total = 0;
  for (const Port d : degrees) total += d;
  check_port_count(total);
  tables_ = std::make_shared<PortGraph::Tables>();
  auto& t = *tables_;
  t.offsets.resize(degrees.size() + 1);
  for (std::size_t v = 0; v < degrees.size(); ++v) {
    t.offsets[v + 1] = t.offsets[v] + degrees[v];
  }
  t.partner_flat.assign(total, kUnassigned);
  t.partner_node.resize(total);
}

PortGraphBuilder& PortGraphBuilder::connect(PortRef a, PortRef b) {
  if (a == b) {
    throw InvalidArgument(
        "PortGraphBuilder::connect: use fix() for a directed loop");
  }
  auto& t = *tables_;
  const std::size_t ia = PortGraph::flat_index(t.offsets, a.node, a.port);
  const std::size_t ib = PortGraph::flat_index(t.offsets, b.node, b.port);
  if (t.partner_flat[ia] != kUnassigned || t.partner_flat[ib] != kUnassigned) {
    std::ostringstream os;
    os << "PortGraphBuilder: port already connected: (" << a.node << ","
       << a.port << ") or (" << b.node << "," << b.port << ")";
    throw InvalidStructure(os.str());
  }
  t.partner_flat[ia] = static_cast<std::uint32_t>(ib);
  t.partner_node[ia] = b.node;
  t.partner_flat[ib] = static_cast<std::uint32_t>(ia);
  t.partner_node[ib] = a.node;
  return *this;
}

PortGraphBuilder& PortGraphBuilder::fix(PortRef a) {
  auto& t = *tables_;
  const std::size_t ia = PortGraph::flat_index(t.offsets, a.node, a.port);
  if (t.partner_flat[ia] != kUnassigned) {
    throw InvalidStructure("PortGraphBuilder::fix: port already connected");
  }
  t.partner_flat[ia] = static_cast<std::uint32_t>(ia);
  t.partner_node[ia] = a.node;
  return *this;
}

PortGraph PortGraphBuilder::build() {
  if (built_) {
    throw InvalidArgument(
        "PortGraphBuilder::build: the graph was already built");
  }
  auto& t = *tables_;
  for (std::size_t idx = 0; idx < t.partner_flat.size(); ++idx) {
    if (t.partner_flat[idx] == kUnassigned) {
      std::ostringstream os;
      os << "PortGraphBuilder::build: unassigned port (flat index " << idx
         << ")";
      throw InvalidStructure(os.str());
    }
  }
  t.hash = PortGraph::hash_structure(t);
  PortGraph g;
  g.tables_ = std::move(tables_);
  g.validate();
  built_ = true;
  return g;
}

}  // namespace eds::port
