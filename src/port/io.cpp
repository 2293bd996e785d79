#include "port/io.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "util/text.hpp"

namespace eds::port {

void write_port_graph(std::ostream& os, const PortGraph& g) {
  os << "ports " << g.num_nodes() << '\n';
  os << "deg";
  for (NodeId v = 0; v < g.num_nodes(); ++v) os << ' ' << g.degree(v);
  os << '\n';
  for (const auto& pe : g.port_edges()) {
    if (pe.directed_loop) {
      os << "loop " << pe.a.node << ' ' << pe.a.port << '\n';
    } else {
      os << "conn " << pe.a.node << ' ' << pe.a.port << ' ' << pe.b.node << ' '
         << pe.b.port << '\n';
    }
  }
}

PortGraph read_port_graph(std::istream& is) {
  LineReader<InvalidStructure> in(is, "read_port_graph");
  std::optional<std::size_t> n;
  std::optional<PortGraphBuilder> builder;
  while (in.next()) {
    const std::string_view keyword = in[0];
    if (keyword == "ports") {
      if (n) in.fail("duplicate 'ports' line");
      in.expect_size(2, "'ports'");
      n = in.number<std::size_t>(1, "node count", kMaxTextNodes);
    } else if (keyword == "deg") {
      if (!n) in.fail("'deg' before 'ports'");
      if (builder) in.fail("duplicate 'deg' line");
      // One degree per node, counted before the degree vector exists.
      in.expect_size(*n + 1, "'deg'");
      std::vector<Port> degrees(*n);
      std::uint64_t ports = 0;
      for (std::size_t v = 0; v < *n; ++v) {
        degrees[v] = in.number<Port>(v + 1, "degree");
        ports += degrees[v];
      }
      if (ports > kMaxTextPorts) {
        in.fail("the degrees sum to " + std::to_string(ports) +
                " ports (max " + std::to_string(kMaxTextPorts) + ")");
      }
      builder.emplace(std::move(degrees));
    } else if (keyword == "conn") {
      if (!builder) in.fail("'conn' before 'deg'");
      in.expect_size(5, "'conn'");
      const PortRef a{in.number<NodeId>(1, "node v"),
                      in.number<Port>(2, "port i")};
      const PortRef b{in.number<NodeId>(3, "node u"),
                      in.number<Port>(4, "port j")};
      builder->connect(a, b);
    } else if (keyword == "loop") {
      if (!builder) in.fail("'loop' before 'deg'");
      in.expect_size(3, "'loop'");
      builder->fix({in.number<NodeId>(1, "node v"),
                    in.number<Port>(2, "port i")});
    } else {
      in.fail("unknown keyword '" + std::string(keyword) + "'");
    }
  }
  if (!builder) throw InvalidStructure("read_port_graph: missing 'deg' line");
  return builder->build();
}

std::string to_port_graph_string(const PortGraph& g) {
  std::ostringstream os;
  write_port_graph(os, g);
  return os.str();
}

PortGraph from_port_graph_string(const std::string& text) {
  std::istringstream is(text);
  return read_port_graph(is);
}

}  // namespace eds::port
