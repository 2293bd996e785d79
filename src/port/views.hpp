// Radius-t views of anonymous nodes (the machinery behind the paper's
// indistinguishability arguments, in the tradition of Angluin 1980 and
// Yamashita–Kameda 1996).
//
// The view of a node v at radius t captures everything a deterministic
// anonymous algorithm can possibly learn about v's surroundings within t
// communication rounds: its degree, and — recursively — for each port i the
// pair (i, j) of port numbers on that connection together with the
// neighbour's radius-(t-1) view.  Two nodes with equal radius-t views are
// *provably* indistinguishable to any t-round deterministic algorithm; this
// module computes view equivalence classes by iterated refinement (a
// port-aware colour refinement), and the test suite checks the implication
// empirically against the simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "port/port_graph.hpp"

namespace eds::port {

/// view_classes(g, t)[v] is the equivalence class of v's radius-t view;
/// classes are numbered 0.. by first appearance in node order.  t = 0
/// classifies by degree alone.  Refinement stops at its fixpoint, so a
/// radius past it costs no more than the fixpoint itself.
[[nodiscard]] std::vector<std::size_t> view_classes(const PortGraph& g,
                                                    std::size_t t);

/// The refinement's fixpoint: classes of the full (infinite-radius) view.
/// Two nodes in the same class are indistinguishable to deterministic
/// anonymous algorithms of *any* running time.  (Reached after at most
/// |V| rounds of refinement.)
[[nodiscard]] std::vector<std::size_t> stable_view_classes(const PortGraph& g);

/// Number of distinct classes in a classification.
[[nodiscard]] std::size_t num_classes(const std::vector<std::size_t>& classes);

/// True when `f` maps nodes onto representatives with identical stable
/// views — a necessary condition for being a covering map that the
/// covering-map checker's positive verdicts must imply.
[[nodiscard]] bool respects_views(const PortGraph& cover,
                                  const PortGraph& base,
                                  const std::vector<NodeId>& f);

}  // namespace eds::port
