// Port-numbered graphs (Section 2.1 of the paper).
//
// A port-numbered graph is a set of nodes V, a degree function d : V -> N,
// and an involution p on the set of ports {(v, i) : v in V, 1 <= i <= d(v)}.
// Crucially this definition admits *multigraphs*: parallel edges, undirected
// loops (p maps two distinct ports of the same node to each other), and
// directed loops (fixed points of p).  The lower-bound machinery depends on
// this: the covering multigraphs of Theorems 1 and 2 have loops and parallel
// edges, and the simulator must run algorithms on them unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/simple_graph.hpp"
#include "util/error.hpp"

namespace eds::port {

using graph::NodeId;

/// 1-based port number, matching the paper's convention.
using Port = std::uint32_t;

/// A port: a (node, port-number) pair.
struct PortRef {
  NodeId node = 0;
  Port port = 1;

  [[nodiscard]] bool operator==(const PortRef&) const = default;
};

/// One structural edge of a port-numbered graph: either an undirected edge
/// joining two distinct ports, or a directed loop at a fixed point of p.
struct PortEdge {
  PortRef a;
  PortRef b;                  // equals `a` for a directed loop
  bool directed_loop = false;

  [[nodiscard]] bool is_loop() const noexcept {
    return directed_loop || a.node == b.node;
  }
};

/// Largest port count a PortGraph can hold: flat port indices are stored
/// as uint32, and 0xFFFFFFFF is never one (the builder marks unassigned
/// ports with it).
inline constexpr std::uint64_t kMaxPorts = 0xFFFFFFFFULL;

/// Throws InvalidArgument when a graph of `total_ports` ports is too large
/// for a PortGraph (more than kMaxPorts), so flat indices can never wrap.
/// PortGraphBuilder's constructor calls it before allocating any table.
void check_port_count(std::uint64_t total_ports);

/// An immutable port-numbered (multi)graph: a degree sequence plus the
/// involution p, stored once as three uint32 tables over flat port indices
/// (the ports of node v are offset(v) .. offset(v + 1) - 1, port (v, i) at
/// offset(v) + i - 1):
///   offsets       n + 1 prefix sums of the degrees;
///   partner_flat  the involution: the flat index of p(q) for each port q;
///   partner_node  the node that owns p(q), for each port q.
/// Degrees and (node, port) partners are derived from them.  Both engines
/// run on these tables, through raw pointers taken once per run.
///
/// PortGraphBuilder::build() writes the tables and the structural hash
/// into one immutable block that every copy of the graph shares, so a
/// copy costs a reference count and two graphs with the same block are
/// the same structure.  A moved-from graph is left a valid empty graph,
/// with the empty hash.
class PortGraph {
 public:
  PortGraph() noexcept;
  PortGraph(const PortGraph&) = default;
  PortGraph& operator=(const PortGraph&) = default;
  PortGraph(PortGraph&& other) noexcept;
  PortGraph& operator=(PortGraph&& other) noexcept;

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return tables_->offsets.size() - 1;
  }

  /// Total number of ports, i.e. the sum of degrees.
  [[nodiscard]] std::size_t num_ports() const noexcept {
    return tables_->partner_flat.size();
  }

  [[nodiscard]] Port degree(NodeId v) const {
    if (v >= num_nodes()) {
      throw InvalidArgument("PortGraph::degree: node out of range");
    }
    return tables_->offsets[v + 1] - tables_->offsets[v];
  }

  /// The involution: p(v, i).  Ports are 1-based.
  [[nodiscard]] PortRef partner(NodeId v, Port i) const {
    return partner_ref(flat_index(tables_->offsets, v, i));
  }
  [[nodiscard]] PortRef partner(PortRef r) const {
    return partner(r.node, r.port);
  }

  /// The involution partner of flat port q as a (node, port) pair
  /// (unchecked: q must be a port).
  [[nodiscard]] PortRef partner_ref(std::size_t q) const noexcept {
    const NodeId u = tables_->partner_node[q];
    return {u, tables_->partner_flat[q] - tables_->offsets[u] + 1};
  }

  /// Flat index of port (v, 1), i.e. Σ_{u<v} d(u); port (v, i) has flat
  /// index offset(v) + i - 1.  Unchecked: v must be a node.
  [[nodiscard]] std::size_t offset(NodeId v) const noexcept {
    return tables_->offsets[v];
  }

  /// The tables themselves, for hot paths that index flat ports:
  /// offsets() has num_nodes() + 1 entries, the other two num_ports().
  [[nodiscard]] std::span<const std::uint32_t> offsets() const noexcept {
    return tables_->offsets;
  }
  [[nodiscard]] std::span<const std::uint32_t> partner_flat() const noexcept {
    return tables_->partner_flat;
  }
  [[nodiscard]] std::span<const std::uint32_t> partner_node() const noexcept {
    return tables_->partner_node;
  }

  /// A 64-bit hash of the structure (node count, degree sequence, flat
  /// involution), computed once at build().  Equal structures hash equal;
  /// collisions are possible, so a cache must still compare the tables.
  [[nodiscard]] std::uint64_t structural_hash() const noexcept {
    return tables_->hash;
  }

  /// Heap footprint of the three tables: (n + 1 + 2 · ports) · 4 bytes.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (tables_->offsets.capacity() + tables_->partner_flat.capacity() +
            tables_->partner_node.capacity()) *
           sizeof(std::uint32_t);
  }

  /// Same structure (degree sequence and involution): O(1) when the two
  /// graphs share their tables (one is a copy of the other), else the
  /// offsets and the flat involution are compared.
  [[nodiscard]] friend bool operator==(const PortGraph& a,
                                       const PortGraph& b) noexcept {
    return a.tables_ == b.tables_ ||
           (a.tables_->offsets == b.tables_->offsets &&
            a.tables_->partner_flat == b.tables_->partner_flat);
  }

  /// All structural edges: one entry per unordered port pair {(v,i),(u,j)}
  /// with p(v,i) = (u,j), plus one entry per fixed point (directed loop).
  [[nodiscard]] std::vector<PortEdge> port_edges() const;

  /// True when the graph is simple: no loops of either kind and no parallel
  /// edges (at most one edge per unordered node pair).
  [[nodiscard]] bool is_simple() const;

  /// Verifies the involution property p(p(v,i)) = (v,i) and range validity;
  /// throws InvalidStructure with a description on failure.
  void validate() const;

  /// One-line summary ("nodes=5 ports=20 loops=2").
  [[nodiscard]] std::string summary() const;

 private:
  friend class PortGraphBuilder;
  /// Test seam, defined only by the plan-cache tests: forges a structural
  /// hash collision, which no real pair of graphs can be made to produce.
  friend struct PortGraphTestAccess;

  struct Tables {
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint32_t> partner_flat;
    std::vector<std::uint32_t> partner_node;
    std::uint64_t hash = 0;
  };

  /// The block of the empty graph, shared by every default-constructed
  /// and moved-from graph.
  [[nodiscard]] static const std::shared_ptr<const Tables>& empty_tables();

  /// Flat index of port (v, i) under `offsets`; throws InvalidArgument
  /// when (v, i) is not a port.
  [[nodiscard]] static std::size_t flat_index(
      std::span<const std::uint32_t> offsets, NodeId v, Port i);

  /// The hash walk: splitmix64 mixing over the node count, the degree
  /// sequence, then the involution as (node << 32 | port) per flat port.
  [[nodiscard]] static std::uint64_t hash_structure(const Tables& t);

  std::shared_ptr<const Tables> tables_;
};

/// Incremental construction of a PortGraph.  Every port must be assigned
/// exactly once, either by connect() (joining two distinct ports — possibly
/// of the same node, which creates an undirected loop) or by fix() (a
/// directed loop).  build() validates completeness and the involution.
class PortGraphBuilder {
 public:
  /// Degrees per node; degrees[v] = d(v).  Throws InvalidArgument
  /// (check_port_count) before allocating any table when the degrees sum
  /// to more than kMaxPorts.
  explicit PortGraphBuilder(std::vector<Port> degrees);

  /// Declares p(a) = b and p(b) = a; a and b must be distinct ports.
  PortGraphBuilder& connect(PortRef a, PortRef b);

  /// Declares the fixed point p(a) = a (a directed loop).
  PortGraphBuilder& fix(PortRef a);

  /// Validates that every port was assigned, hashes the structure and
  /// moves the graph out; the builder is spent afterwards (a second
  /// build() throws InvalidArgument).
  [[nodiscard]] PortGraph build();

 private:
  /// Marks a port no connect() or fix() has assigned yet.
  static constexpr std::uint32_t kUnassigned = 0xFFFFFFFFU;

  std::shared_ptr<PortGraph::Tables> tables_;
  bool built_ = false;
};

}  // namespace eds::port
