#include "port/port_graph.hpp"

#include <atomic>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "util/rng.hpp"

namespace eds::port {

PortGraph::PortGraph(PortGraph&& other) noexcept {
  *this = std::move(other);
}

PortGraph& PortGraph::operator=(PortGraph&& other) noexcept {
  // The source is left a valid empty graph, hash and build id included.
  degrees_ = std::exchange(other.degrees_, {});
  offsets_ = std::exchange(other.offsets_, {});
  partner_ = std::exchange(other.partner_, {});
  hash_ = std::exchange(other.hash_, hash_structure({}, {}));
  build_id_ = std::exchange(other.build_id_, 0);
  return *this;
}

std::uint64_t PortGraph::hash_structure(std::span<const Port> degrees,
                                        std::span<const PortRef> partner) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto mix = [&state](std::uint64_t value) {
    state ^= value + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
    std::uint64_t sm = state;
    state = splitmix64(sm);
  };
  mix(degrees.size());
  for (const auto deg : degrees) mix(deg);
  for (const auto& dst : partner) {
    mix((static_cast<std::uint64_t>(dst.node) << 32) | dst.port);
  }
  return state;
}

std::vector<PortEdge> PortGraph::port_edges() const {
  std::vector<PortEdge> out;
  out.reserve(num_ports() / 2 + 1);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (Port i = 1; i <= degrees_[v]; ++i) {
      const PortRef here{v, i};
      const PortRef there = partner(here);
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
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (Port i = 1; i <= degrees_[v]; ++i) {
      const PortRef there = partner(v, i);
      if (there.node >= num_nodes() || there.port < 1 ||
          there.port > degrees_[there.node]) {
        std::ostringstream os;
        os << "PortGraph: p(" << v << "," << i << ") points out of range";
        throw InvalidStructure(os.str());
      }
      const PortRef back = partner(there);
      if (!(back == PortRef{v, i})) {
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
  g_.degrees_ = std::move(degrees);
  g_.offsets_.resize(g_.degrees_.size());
  std::size_t total = 0;
  for (std::size_t v = 0; v < g_.degrees_.size(); ++v) {
    g_.offsets_[v] = total;
    total += g_.degrees_[v];
  }
  g_.partner_.resize(total);
  assigned_.assign(total, false);
}

std::size_t PortGraphBuilder::flat_index(PortRef r) const {
  return g_.flat_index(r.node, r.port);
}

PortGraphBuilder& PortGraphBuilder::connect(PortRef a, PortRef b) {
  if (a == b) {
    throw InvalidArgument(
        "PortGraphBuilder::connect: use fix() for a directed loop");
  }
  const std::size_t ia = flat_index(a);
  const std::size_t ib = flat_index(b);
  if (assigned_[ia] || assigned_[ib]) {
    std::ostringstream os;
    os << "PortGraphBuilder: port already connected: (" << a.node << ","
       << a.port << ") or (" << b.node << "," << b.port << ")";
    throw InvalidStructure(os.str());
  }
  g_.partner_[ia] = b;
  g_.partner_[ib] = a;
  assigned_[ia] = assigned_[ib] = true;
  return *this;
}

PortGraphBuilder& PortGraphBuilder::fix(PortRef a) {
  const std::size_t ia = flat_index(a);
  if (assigned_[ia]) {
    throw InvalidStructure("PortGraphBuilder::fix: port already connected");
  }
  g_.partner_[ia] = a;
  assigned_[ia] = true;
  return *this;
}

PortGraph PortGraphBuilder::build() {
  if (built_) {
    throw InvalidArgument(
        "PortGraphBuilder::build: the graph was already built");
  }
  for (std::size_t idx = 0; idx < assigned_.size(); ++idx) {
    if (!assigned_[idx]) {
      std::ostringstream os;
      os << "PortGraphBuilder::build: unassigned port (flat index " << idx
         << ")";
      throw InvalidStructure(os.str());
    }
  }
  g_.validate();
  g_.hash_ = PortGraph::hash_structure(g_.degrees_, g_.partner_);
  static std::atomic<std::uint64_t> last_build_id{0};
  g_.build_id_ = last_build_id.fetch_add(1, std::memory_order_relaxed) + 1;
  built_ = true;
  return std::move(g_);
}

}  // namespace eds::port
