// Translating distributed outputs into centralised edge sets.
//
// The paper requires algorithm outputs to be internally consistent:
// if i ∈ X(v) and p(v, i) = (u, j), then j ∈ X(u).  On the flat selection
// mask of a RunResult that is one sweep, sel[q] == sel[partner(q)] for
// every flat port q; every validator here is that sweep with a different
// reaction to a one-sided claim.  validated_edge_set enforces consistency
// and converts the mask into an EdgeSet over the underlying simple graph,
// where verifiers operate; on a simple graph it sweeps edges instead of
// ports (PortedGraph::edge_port_table), and falls back to the port sweep
// only to name a one-sided claim.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "graph/edge_set.hpp"
#include "port/ported_graph.hpp"
#include "runtime/runner.hpp"

namespace eds::runtime {

/// X(v): the ports node v selected, ascending.  Throws ExecutionError when
/// the result's mask does not match the graph's port count, and
/// InvalidArgument for a node out of range.
[[nodiscard]] std::vector<Port> selected_ports(const port::PortGraph& g,
                                               const RunResult& result,
                                               port::NodeId v);

/// Converts the selection mask into the selected edge set, checking
/// internal consistency; throws ExecutionError when an edge is claimed from
/// one side only.
[[nodiscard]] graph::EdgeSet validated_edge_set(const port::PortedGraph& pg,
                                                const RunResult& result);

/// True when every node announced exactly the same port set (used by the
/// covering-map experiments, where symmetry forces identical outputs).
[[nodiscard]] bool all_outputs_identical(const port::PortGraph& g,
                                         const RunResult& result);

/// Port-level internal-consistency check that also works on multigraphs
/// (where no SimpleGraph edge ids exist): i ∈ X(v) with p(v, i) = (u, j)
/// requires j ∈ X(u).  Directed loops are trivially self-consistent.
/// Returns the number of selected structural edges; throws ExecutionError
/// on an inconsistency.
[[nodiscard]] std::size_t validated_selection_size(const port::PortGraph& g,
                                                   const RunResult& result);

/// Non-throwing variant of validated_selection_size for runs that are
/// *expected* to go wrong: under the free-running asynchronous model with
/// faults, one-sided selections are a measured outcome, not a bug.  Returns
/// the selected structural-edge count, or nullopt when the output is
/// internally inconsistent (still throws on a size mismatch, which is
/// always a harness bug).
[[nodiscard]] std::optional<std::size_t> consistent_selection_size(
    const port::PortGraph& g, const RunResult& result);

/// The sweep's counts: `selected` structural edges claimed from both sides
/// (a directed loop counts once), `inconsistent` one-sided claims (ports q
/// with sel[q] set and sel[partner(q)] clear).
struct SelectionCounts {
  std::size_t selected = 0;
  std::size_t inconsistent = 0;
};

/// Counts the whole mask without throwing on inconsistency; throws
/// ExecutionError, prefixed with `who`, when the mask's length is not the
/// graph's port count.
[[nodiscard]] SelectionCounts count_selection(const port::PortGraph& g,
                                              const RunResult& result,
                                              const char* who);

}  // namespace eds::runtime
