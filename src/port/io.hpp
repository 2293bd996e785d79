// Serialisation of port-numbered graphs.
//
// Plain-text format, one record per line, read by the shared text rules of
// util/text.hpp (README, "Text formats"):
//
//   ports <n>
//   deg <d_0> <d_1> ... <d_{n-1}>
//   conn <v> <i> <u> <j>     # p(v,i) = (u,j), written once per pair
//   loop <v> <i>             # fixed point p(v,i) = (v,i)
//
// Each record holds exactly the tokens shown; a graph holds at most 2^24
// nodes and 2^26 ports, checked before anything is sized from the header.
// This is the on-disk form of adversarial instances: a researcher can dump
// a lower-bound construction, edit it, and feed it back to the simulator.
#pragma once

#include <iosfwd>
#include <string>

#include "port/port_graph.hpp"

namespace eds::port {

/// Writes `g` in the portgraph text format.
void write_port_graph(std::ostream& os, const PortGraph& g);

/// Parses a port graph; throws InvalidStructure on malformed input (extra
/// tokens, a count above the caps), incomplete involutions or double
/// assignments, and InvalidArgument (from PortGraphBuilder) on a port
/// reference out of range.
[[nodiscard]] PortGraph read_port_graph(std::istream& is);

/// String convenience wrappers.
[[nodiscard]] std::string to_port_graph_string(const PortGraph& g);
[[nodiscard]] PortGraph from_port_graph_string(const std::string& text);

}  // namespace eds::port
