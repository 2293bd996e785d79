// Plain-text graph serialisation.
//
// Format: first line "n m", then m lines "u v" (0-based endpoints), read
// by the shared text rules of util/text.hpp: '#' comments, blank lines,
// tabs and CRLF line endings are fine, extra tokens and signs are not, and
// a graph holds at most 2^24 nodes and 2^25 edges.  README, "Text formats",
// states the grammar for every text format.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/simple_graph.hpp"

namespace eds::graph {

/// Writes `g` in edge-list format.
void write_edge_list(std::ostream& os, const SimpleGraph& g);

/// Reads a graph in edge-list format; throws InvalidStructure on malformed
/// input (wrong counts, extra tokens or lines, out-of-range endpoints,
/// loops, duplicates) and on a header above the caps.
[[nodiscard]] SimpleGraph read_edge_list(std::istream& is);

/// Serialises to a string (convenience wrapper around write_edge_list).
[[nodiscard]] std::string to_edge_list_string(const SimpleGraph& g);

/// Parses from a string (convenience wrapper around read_edge_list).
[[nodiscard]] SimpleGraph from_edge_list_string(const std::string& text);

/// Writes Graphviz DOT, optionally highlighting a solution: edges in
/// `highlight` are drawn bold/red.  `highlight` may be null.
void write_dot(std::ostream& os, const SimpleGraph& g,
               const class EdgeSet* highlight = nullptr,
               const std::string& name = "G");

}  // namespace eds::graph
