// The paper's lower-bound constructions (Sections 3 and 4).
//
// Each instance packages the adversarial port-numbered graph G, the known
// optimal edge dominating set, the covering multigraph M, and the covering
// map f — everything the tightness experiments need.  Construction
// self-checks (regularity, optimality structure, covering-map validity) run
// eagerly, so a successfully built instance is a machine-checked replica of
// the paper's figures 4–7.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_set.hpp"
#include "port/covering.hpp"
#include "port/ported_graph.hpp"
#include "util/fraction.hpp"

namespace eds::lb {

/// One adversarial instance: the graph, its optimum, and its covering space.
struct LowerBoundInstance {
  port::PortedGraph ported;                 ///< G with adversarial ports
  graph::EdgeSet optimal;                   ///< a minimum EDS of G
  port::PortGraph covering_base;            ///< the multigraph M
  std::vector<graph::NodeId> covering_map;  ///< f : V_G -> V_M
  Fraction forced_ratio;                    ///< the Table 1 lower bound
};

/// Theorem 1 / Figure 4: the d-regular graph (d even >= 2) on A ∪ B with
/// S a perfect matching on A, T = K_{d,d-1}, and ports induced by a
/// 2-factorisation.  Any deterministic algorithm outputs a full 2-factor
/// (|V| = 2d−1 edges) while |S| = d/2, forcing ratio >= 4 − 2/d.
[[nodiscard]] LowerBoundInstance even_lower_bound(port::Port d);

/// Ports of even_lower_bound(d): 2d − 1 nodes of degree d, d(2d − 1)
/// ports (UINT64_MAX when that does not fit in 64 bits).  Computed
/// without building anything.
[[nodiscard]] std::uint64_t even_lower_bound_ports(port::Port d);

/// Theorem 2 / Figures 5–7: the d-regular graph (d odd >= 3) made of d
/// components H(l) plus hubs P and Q; |D*| = (k+1)d with k = (d−1)/2, and
/// any algorithm is forced to pick (2d−1)d edges: ratio >= 4 − 6/(d+1).
[[nodiscard]] LowerBoundInstance odd_lower_bound(port::Port d);

/// Ports of odd_lower_bound(d): 2d² + d − 1 nodes of degree d, 2d³ + d² − d
/// ports (UINT64_MAX when that does not fit in 64 bits).  Computed without
/// building anything.
[[nodiscard]] std::uint64_t odd_lower_bound_ports(port::Port d);

/// The Table 1 lower-bound value for d-regular graphs (either parity).
[[nodiscard]] Fraction forced_ratio_regular(port::Port d);

}  // namespace eds::lb
