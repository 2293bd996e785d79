#include "runtime/outputs.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

namespace eds::runtime {

namespace {

void check_mask(const port::PortGraph& g, const RunResult& result,
                const char* who) {
  if (result.selected.size() != g.num_ports()) {
    throw ExecutionError(std::string(who) +
                         ": selection mask does not match the graph's port "
                         "count");
  }
}

/// The one consistency sweep, in flat port order (node by node, port by
/// port): calls on_edge(q) for every structural edge selected from both
/// sides, at its lower flat port q (a directed loop at its only port), and
/// on_one_sided(v, i, p(v, i)) for every claim whose partner port is not
/// selected.
template <class OnEdge, class OnOneSided>
void sweep_selection(const port::PortGraph& g, const RunResult& result,
                     const char* who, OnEdge&& on_edge,
                     OnOneSided&& on_one_sided) {
  check_mask(g, result, who);
  const std::uint8_t* const sel = result.selected.data();
  const auto offsets = g.offsets();
  const auto partner = g.partner_flat();
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::size_t q = offsets[v]; q < offsets[v + 1]; ++q) {
      if (sel[q] == 0) continue;
      const std::size_t p = partner[q];
      if (sel[p] == 0) {
        on_one_sided(v, static_cast<Port>(q - offsets[v] + 1),
                     g.partner_ref(q));
      } else if (q <= p) {
        on_edge(q);
      }
    }
  }
}

}  // namespace

std::vector<Port> selected_ports(const port::PortGraph& g,
                                 const RunResult& result, port::NodeId v) {
  check_mask(g, result, "selected_ports");
  if (v >= g.num_nodes()) {
    throw InvalidArgument("selected_ports: node out of range");
  }
  std::vector<Port> out;
  const std::uint8_t* const seg = result.selected.data() + g.offset(v);
  for (Port i = 1; i <= g.degree(v); ++i) {
    if (seg[i - 1] != 0) out.push_back(i);
  }
  return out;
}

graph::EdgeSet validated_edge_set(const port::PortedGraph& pg,
                                  const RunResult& result) {
  check_mask(pg.ports(), result, "validated_edge_set");
  // One branch-free pass over the edges: edge e is selected when both of
  // its ports are, and a port pair that disagrees is a one-sided claim.
  // 64 edges fill one word of the EdgeSet.
  const std::uint8_t* const sel = result.selected.data();
  const auto& ends = pg.edge_port_table();
  const std::size_t m = ends.size();
  std::vector<std::uint64_t> words(graph::EdgeSet::word_count(m), 0);
  bool one_sided = false;
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t first = w * 64;
    const std::size_t last = std::min(first + 64, m);
    std::uint64_t word = 0;
    for (std::size_t e = first; e < last; ++e) {
      const bool at_u = sel[ends[e][0]] != 0;
      const bool at_v = sel[ends[e][1]] != 0;
      one_sided |= at_u != at_v;
      word |= static_cast<std::uint64_t>(at_u & at_v) << (e - first);
    }
    words[w] = word;
  }
  if (one_sided) {
    // Rare: re-sweep port by port, in flat order, to name the first
    // one-sided claim.
    sweep_selection(
        pg.ports(), result, "validated_edge_set", [](std::size_t) {},
        [](port::NodeId v, Port i, port::PortRef there) {
          std::ostringstream os;
          os << "validated_edge_set: inconsistent output — node " << v
             << " claims port " << i << " but node " << there.node
             << " does not claim port " << there.port;
          throw ExecutionError(os.str());
        });
  }
  return graph::EdgeSet::from_words(m, std::move(words));
}

bool all_outputs_identical(const port::PortGraph& g,
                           const RunResult& result) {
  check_mask(g, result, "all_outputs_identical");
  if (g.num_nodes() == 0) return true;
  const auto first = selected_ports(g, result, 0);
  for (port::NodeId v = 1; v < g.num_nodes(); ++v) {
    if (selected_ports(g, result, v) != first) return false;
  }
  return true;
}

SelectionCounts count_selection(const port::PortGraph& g,
                                const RunResult& result, const char* who) {
  SelectionCounts counts;
  sweep_selection(
      g, result, who, [&](std::size_t) { ++counts.selected; },
      [&](port::NodeId, Port, port::PortRef) { ++counts.inconsistent; });
  return counts;
}

std::size_t validated_selection_size(const port::PortGraph& g,
                                     const RunResult& result) {
  std::size_t selected = 0;
  sweep_selection(
      g, result, "validated_selection_size",
      [&](std::size_t) { ++selected; },
      [](port::NodeId v, Port i, port::PortRef) {
        std::ostringstream os;
        os << "validated_selection_size: inconsistent output at node " << v
           << " port " << i;
        throw ExecutionError(os.str());
      });
  return selected;
}

std::optional<std::size_t> consistent_selection_size(const port::PortGraph& g,
                                                     const RunResult& result) {
  const auto counts =
      count_selection(g, result, "consistent_selection_size");
  if (counts.inconsistent != 0) return std::nullopt;
  return counts.selected;
}

}  // namespace eds::runtime
