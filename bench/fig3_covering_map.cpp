// Figure 3: covering graphs.  We build a simple port-numbered graph C that
// covers a 2-node multigraph M (in the spirit of the figure), verify the
// covering map mechanically, and then demonstrate the covering lemma of
// Section 2.3 by executing a real algorithm on both and comparing outputs.
#include <iostream>

#include "algo/driver.hpp"
#include "graph/simple_graph.hpp"
#include "port/covering.hpp"
#include "port/ported_graph.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"

int main() {
  using eds::graph::EdgeId;
  using eds::graph::NodeId;
  using eds::graph::SimpleGraph;

  // Base M: two nodes {g, w} ("grey" and "white"), both of degree 3:
  //   p(g,1) <-> (w,2),  p(g,2) <-> (w,1),  p(g,3) <-> (w,3).
  eds::port::PortGraphBuilder mb({3, 3});
  mb.connect({0, 1}, {1, 2});
  mb.connect({0, 2}, {1, 1});
  mb.connect({0, 3}, {1, 3});
  const auto base = mb.build();

  // Cover C: the 6-cycle g0 w0 g1 w1 g2 w2 with a chord pattern making it
  // 3-regular = K_{3,3}; ports chosen to satisfy the covering conditions.
  // Grey nodes are 0,1,2; white nodes 3,4,5.  Edge (g_i, w_j) exists for all
  // i, j; g_i's port 1 -> w_i (which uses port 2), g_i's port 2 -> w_{i-1}
  // (which uses port 1), g_i's port 3 -> w_{i+1} (which uses port 3).
  eds::graph::GraphBuilder cb(6);
  for (NodeId i = 0; i < 3; ++i) {
    for (NodeId j = 0; j < 3; ++j) cb.add_edge(i, 3 + j);
  }
  auto cg = cb.build();
  std::vector<std::vector<EdgeId>> order(6, std::vector<EdgeId>(3));
  for (NodeId i = 0; i < 3; ++i) {
    order[i][0] = *cg.find_edge(i, 3 + i);
    order[i][1] = *cg.find_edge(i, 3 + (i + 2) % 3);
    order[i][2] = *cg.find_edge(i, 3 + (i + 1) % 3);
    order[3 + i][0] = *cg.find_edge(3 + i, (i + 1) % 3);
    order[3 + i][1] = *cg.find_edge(3 + i, i);
    order[3 + i][2] = *cg.find_edge(3 + i, (i + 2) % 3);
  }
  const eds::port::PortedGraph cover(std::move(cg), order);

  const std::vector<NodeId> f{0, 0, 0, 1, 1, 1};
  const auto check = eds::port::check_covering_map(cover.ports(), base, f);
  std::cout << "C (K_{3,3}, 6 nodes) covers M (2 nodes, 3 parallel edges): "
            << (check.ok ? "verified" : check.reason) << "\n\n";

  // Execute Theorem 4's d = 3 algorithm on both.
  const auto factory = eds::algo::make_factory(eds::algo::Algorithm::kOddRegular, 3);
  const auto on_cover = eds::runtime::run_synchronous(cover.ports(), *factory);
  const auto on_base = eds::runtime::run_synchronous(base, *factory);

  bool lifts = true;
  for (NodeId v = 0; v < 6; ++v) {
    const auto mine = eds::runtime::selected_ports(cover.ports(), on_cover, v);
    const auto image = eds::runtime::selected_ports(base, on_base, f[v]);
    std::cout << "node " << v << " of C outputs {";
    for (std::size_t i = 0; i < mine.size(); ++i) {
      std::cout << (i ? "," : "") << mine[i];
    }
    std::cout << "}  |  its image " << f[v] << " in M outputs {";
    for (std::size_t i = 0; i < image.size(); ++i) {
      std::cout << (i ? "," : "") << image[i];
    }
    std::cout << "}\n";
    lifts = lifts && mine == image;
  }
  std::cout << "\nSection 2.3 lemma (outputs lift along covering maps): "
            << (lifts ? "verified" : "VIOLATED") << "\n";
  return check.ok && lifts ? 0 : 1;
}
