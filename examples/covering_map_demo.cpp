// Demonstrates the covering-map lemma (Section 2.3) live: a deterministic
// anonymous algorithm cannot distinguish a graph from its covering space.
// We run the same algorithm on a 12-cycle and on the 1-node multigraph it
// covers, and show the outputs lift exactly.
#include <iostream>

#include "algo/driver.hpp"
#include "graph/generators.hpp"
#include "port/covering.hpp"
#include "port/port_graph.hpp"
#include "port/ported_graph.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"

namespace {

eds::port::PortedGraph oriented_cycle(std::size_t n) {
  auto g = eds::graph::cycle(n);
  std::vector<std::vector<eds::graph::EdgeId>> order(
      n, std::vector<eds::graph::EdgeId>(2));
  for (eds::graph::NodeId v = 0; v < n; ++v) {
    order[v][0] =
        *g.find_edge(v, static_cast<eds::graph::NodeId>((v + 1) % n));
    order[v][1] =
        *g.find_edge(v, static_cast<eds::graph::NodeId>((v + n - 1) % n));
  }
  return eds::port::PortedGraph(std::move(g), order);
}

void print_outputs(const char* label, const eds::port::PortGraph& g,
                   const eds::runtime::RunResult& result) {
  std::cout << label << ":\n";
  for (eds::graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto ports = eds::runtime::selected_ports(g, result, v);
    std::cout << "  node " << v << " -> {";
    for (std::size_t i = 0; i < ports.size(); ++i) {
      std::cout << (i ? "," : "") << ports[i];
    }
    std::cout << "}\n";
  }
}

}  // namespace

int main() {
  // The covering space: C_12 with ports 1 (forward) and 2 (backward).
  const auto big = oriented_cycle(12);

  // The base: one anonymous node with a loop pairing its two ports — what
  // the cycle "looks like" to a local algorithm.
  eds::port::PortGraphBuilder mb({2});
  mb.connect({0, 1}, {0, 2});
  const auto base = mb.build();

  const std::vector<eds::graph::NodeId> f(12, 0);
  const auto check = eds::port::check_covering_map(big.ports(), base, f);
  std::cout << "f : C_12 -> bouquet is a covering map: "
            << (check.ok ? "yes" : check.reason) << "\n\n";

  const auto factory = eds::algo::make_factory(eds::algo::Algorithm::kPortOne);
  const auto on_cycle = eds::runtime::run_synchronous(big.ports(), *factory);
  const auto on_base = eds::runtime::run_synchronous(base, *factory);

  print_outputs("outputs on C_12", big.ports(), on_cycle);
  print_outputs("outputs on the 1-node base", base, on_base);

  bool lifts = true;
  for (eds::graph::NodeId v = 0; v < 12; ++v) {
    lifts = lifts && eds::runtime::selected_ports(big.ports(), on_cycle, v) ==
                         eds::runtime::selected_ports(base, on_base, 0);
  }
  std::cout << "\nevery node of C_12 behaves exactly like the base node: "
            << (lifts ? "yes" : "NO") << "\n";
  std::cout << "consequence: the algorithm must select EVERY edge of the\n"
               "cycle (ratio 3 = 4 - 2/d at d = 2) — no deterministic\n"
               "anonymous algorithm can do better on this numbering.\n";
  return lifts ? 0 : 1;
}
