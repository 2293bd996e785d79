#include "graph/io.hpp"

#include <ostream>
#include <sstream>
#include <string>

#include "graph/edge_set.hpp"
#include "util/text.hpp"

namespace eds::graph {

void write_edge_list(std::ostream& os, const SimpleGraph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const auto& e : g.edges()) os << e.u << ' ' << e.v << '\n';
}

SimpleGraph read_edge_list(std::istream& is) {
  LineReader<InvalidStructure> in(is, "read_edge_list");
  if (!in.next()) {
    throw InvalidStructure("read_edge_list: missing header line");
  }
  in.expect_size(2, "the header 'n m'");
  const auto n = in.number<std::size_t>(0, "node count n", kMaxTextNodes);
  const auto m = in.number<std::size_t>(1, "edge count m", kMaxTextPorts / 2);

  std::vector<Edge> edges;
  while (in.next()) {
    if (edges.size() == m) {
      in.fail("more edges than the header's m = " + std::to_string(m));
    }
    in.expect_size(2, "an edge 'u v'");
    const auto u = in.number<NodeId>(0, "endpoint u");
    const auto v = in.number<NodeId>(1, "endpoint v");
    if (u >= n || v >= n) in.fail("endpoint out of range");
    edges.push_back({u, v});
  }
  if (edges.size() < m) {
    throw InvalidStructure("read_edge_list: fewer edges than promised");
  }
  return SimpleGraph::from_edges(n, std::move(edges));
}

std::string to_edge_list_string(const SimpleGraph& g) {
  std::ostringstream os;
  write_edge_list(os, g);
  return os.str();
}

SimpleGraph from_edge_list_string(const std::string& text) {
  std::istringstream is(text);
  return read_edge_list(is);
}

void write_dot(std::ostream& os, const SimpleGraph& g,
               const EdgeSet* highlight, const std::string& name) {
  os << "graph " << name << " {\n";
  os << "  node [shape=circle];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  " << v << ";\n";
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    os << "  " << g.edge(e).u << " -- " << g.edge(e).v;
    if (highlight != nullptr && highlight->contains(e)) {
      os << " [color=red, penwidth=2.5]";
    }
    os << ";\n";
  }
  os << "}\n";
}

}  // namespace eds::graph
