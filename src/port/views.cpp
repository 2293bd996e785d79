#include "port/views.hpp"

#include <algorithm>
#include <map>
#include <tuple>

namespace eds::port {

namespace {

/// One refinement round: the new class of v is determined by its old class
/// plus, for each port i in order, the pair (remote port, neighbour's old
/// class).  Directed loops contribute the node's own class.
std::vector<std::size_t> refine(const PortGraph& g,
                                const std::vector<std::size_t>& old) {
  using Signature =
      std::pair<std::size_t, std::vector<std::pair<Port, std::size_t>>>;
  std::map<Signature, std::size_t> numbering;
  std::vector<std::size_t> next(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Signature sig;
    sig.first = old[v];
    for (Port i = 1; i <= g.degree(v); ++i) {
      const auto there = g.partner(v, i);
      sig.second.emplace_back(there.port, old[there.node]);
    }
    const auto [it, inserted] =
        numbering.emplace(std::move(sig), numbering.size());
    next[v] = it->second;
  }
  return next;
}

std::vector<std::size_t> degree_classes(const PortGraph& g) {
  std::map<Port, std::size_t> numbering;
  std::vector<std::size_t> classes(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto [it, inserted] =
        numbering.emplace(g.degree(v), numbering.size());
    classes[v] = it->second;
  }
  return classes;
}

}  // namespace

std::vector<std::size_t> view_classes(const PortGraph& g, std::size_t t) {
  auto classes = degree_classes(g);
  for (std::size_t round = 0; round < t; ++round) {
    auto next = refine(g, classes);
    // Refinement only splits classes, so an equal class count means the
    // fixpoint; both numberings assign ids by first appearance in node
    // order, so every later round returns this same vector.
    if (num_classes(next) == num_classes(classes)) break;
    classes = std::move(next);
  }
  return classes;
}

std::vector<std::size_t> stable_view_classes(const PortGraph& g) {
  return view_classes(g, g.num_nodes() + 1);
}

std::size_t num_classes(const std::vector<std::size_t>& classes) {
  if (classes.empty()) return 0;
  return *std::max_element(classes.begin(), classes.end()) + 1;
}

bool respects_views(const PortGraph& cover, const PortGraph& base,
                    const std::vector<NodeId>& f) {
  if (f.size() != cover.num_nodes()) return false;
  // Compare stable views in the disjoint union of the two graphs: nodes of
  // the cover must land in the same class as their images.
  std::vector<Port> degrees;
  degrees.reserve(cover.num_nodes() + base.num_nodes());
  for (NodeId v = 0; v < cover.num_nodes(); ++v) {
    degrees.push_back(cover.degree(v));
  }
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    degrees.push_back(base.degree(v));
  }
  PortGraphBuilder builder(std::move(degrees));
  const auto shift = static_cast<NodeId>(cover.num_nodes());
  auto copy_into = [&builder](const PortGraph& g, NodeId offset) {
    for (const auto& pe : g.port_edges()) {
      const PortRef a{pe.a.node + offset, pe.a.port};
      if (pe.directed_loop) {
        builder.fix(a);
      } else {
        builder.connect(a, {pe.b.node + offset, pe.b.port});
      }
    }
  };
  copy_into(cover, 0);
  copy_into(base, shift);
  const auto classes = stable_view_classes(builder.build());
  for (NodeId v = 0; v < cover.num_nodes(); ++v) {
    if (classes[v] != classes[shift + f[v]]) return false;
  }
  return true;
}

}  // namespace eds::port
