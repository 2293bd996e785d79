#include "algo/central.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "util/error.hpp"

namespace eds::algo {

OddRegularTrace central_odd_regular(const port::PortedGraph& pg) {
  const auto& g = pg.graph();
  const auto d = static_cast<port::Port>(g.max_degree());
  graph::EdgeSet dset(g.num_edges());
  std::vector<bool> covered(g.num_nodes(), false);

  // Phase I: for each (i, j) lexicographically, add every e in M(i, j)
  // unless both endpoints are covered.
  for (port::Port i = 1; i <= d; ++i) {
    for (port::Port j = 1; j <= d; ++j) {
      const auto mij = port::matching_m(pg, i, j);
      // Snapshot semantics: decisions within a step read the pre-step state;
      // M(i, j) is a matching, so reading live state is equivalent.
      for (const auto e : mij.to_vector()) {
        const auto& edge = g.edge(e);
        if (covered[edge.u] && covered[edge.v]) continue;
        dset.insert(e);
        covered[edge.u] = covered[edge.v] = true;
      }
    }
  }
  OddRegularTrace trace{dset, dset};

  // Phase II: remove e in D ∩ M(i, j) when both endpoints are covered by
  // D \ {e}.  Within a step, members of a matching have disjoint endpoints,
  // so the pre-step snapshot equals the live state for the tested nodes.
  auto set_degree = [&](graph::NodeId v) {
    std::size_t deg = 0;
    for (const auto& inc : g.incidences(v)) {
      if (trace.after_phase2.contains(inc.edge)) ++deg;
    }
    return deg;
  };
  for (port::Port i = 1; i <= d; ++i) {
    for (port::Port j = 1; j <= d; ++j) {
      const auto mij = port::matching_m(pg, i, j);
      std::vector<graph::EdgeId> to_remove;
      for (const auto e : mij.to_vector()) {
        if (!trace.after_phase2.contains(e)) continue;
        const auto& edge = g.edge(e);
        if (set_degree(edge.u) >= 2 && set_degree(edge.v) >= 2) {
          to_remove.push_back(e);
        }
      }
      for (const auto e : to_remove) trace.after_phase2.erase(e);
    }
  }
  return trace;
}

graph::EdgeSet central_port_one(const port::PortedGraph& pg) {
  const auto& g = pg.graph();
  graph::EdgeSet out(g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) >= 1) out.insert(pg.edge_at(v, 1));
  }
  return out;
}

namespace {

/// One proposer/acceptor sweep shared by the phase II and phase III mirrors.
/// `eligible[v]` lists v's proposal ports in increasing order (empty when v
/// does not propose); `may_accept(v)` gates the acceptor role; `on_match`
/// commits an accepted proposal (proposer, proposer_port).  Runs `slots`
/// slots, mirroring the distributed 2-rounds-per-slot schedule.
void proposal_sweep(
    const port::PortedGraph& pg,
    std::vector<std::vector<port::Port>> eligible, port::Port slots,
    const std::function<bool(graph::NodeId)>& may_accept,
    const std::function<void(graph::NodeId, port::Port)>& on_match) {
  const auto& g = pg.graph();
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> cursor(n, 0);
  std::vector<bool> accepted_out(n, false);
  std::vector<bool> accepted_in(n, false);

  for (port::Port slot = 1; slot <= slots; ++slot) {
    // Propose half: collect (proposer, proposer_port) per target node.
    struct Incoming {
      graph::NodeId from;
      port::Port from_port;
      port::Port at_port;  // the target's own port towards the proposer
    };
    std::vector<std::vector<Incoming>> inbox(n);
    std::vector<graph::NodeId> proposers;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (accepted_out[v] || cursor[v] >= eligible[v].size()) continue;
      const auto p = eligible[v][cursor[v]];
      const auto partner = pg.ports().partner(v, p);
      inbox[partner.node].push_back({v, p, partner.port});
      proposers.push_back(v);
    }

    // Respond half: each eligible acceptor takes its smallest-port proposal.
    std::vector<bool> accepted_this_slot(n, false);
    for (graph::NodeId u = 0; u < n; ++u) {
      if (inbox[u].empty() || accepted_in[u] || !may_accept(u)) continue;
      const auto best = std::min_element(
          inbox[u].begin(), inbox[u].end(),
          [](const Incoming& a, const Incoming& b) {
            return a.at_port < b.at_port;
          });
      accepted_in[u] = true;
      accepted_out[best->from] = true;
      accepted_this_slot[best->from] = true;
      on_match(best->from, best->from_port);
    }
    // Rejected proposers advance to their next eligible port.
    for (const auto v : proposers) {
      if (!accepted_out[v]) {
        ++cursor[v];
      } else if (!accepted_this_slot[v]) {
        // accepted in an earlier slot: unreachable (such nodes don't propose)
        EDS_ENSURE(false, "proposal_sweep: stale proposer state");
      }
    }
  }
}

}  // namespace

BoundedDegreeTrace central_bounded_degree(const port::PortedGraph& pg,
                                          port::Port max_degree) {
  const auto& g = pg.graph();
  const port::Port delta =
      max_degree % 2 == 1 ? max_degree : max_degree + 1;  // A(2k) = A(2k+1)
  const std::size_t n = g.num_nodes();

  BoundedDegreeTrace trace{graph::EdgeSet(g.num_edges()),
                           graph::EdgeSet(g.num_edges()),
                           graph::EdgeSet(g.num_edges()),
                           graph::EdgeSet(g.num_edges())};
  std::vector<bool> m_covered(n, false);

  // Phase I: M(i, j) sweep; add only when *neither* endpoint is covered.
  for (port::Port i = 1; i <= delta; ++i) {
    for (port::Port j = 1; j <= delta; ++j) {
      for (const auto e : port::matching_m(pg, i, j).to_vector()) {
        const auto& edge = g.edge(e);
        if (m_covered[edge.u] || m_covered[edge.v]) continue;
        trace.m_after_phase1.insert(e);
        m_covered[edge.u] = m_covered[edge.v] = true;
      }
    }
  }
  trace.m_after_phase2 = trace.m_after_phase1;

  // Phase II: for each degree class i, a proposal-based maximal matching on
  // B_i (edges {u, v}: deg u < deg v = i, both M-free at the step's start
  // and live during it — identical to the distributed semantics).
  for (port::Port i = 2; i <= delta; ++i) {
    std::vector<std::vector<port::Port>> eligible(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (g.degree(v) != i || m_covered[v]) continue;
      for (port::Port p = 1; p <= g.degree(v); ++p) {
        const auto u = pg.ports().partner(v, p).node;
        if (g.degree(u) < i) eligible[v].push_back(p);
      }
    }
    proposal_sweep(
        pg, std::move(eligible), delta,
        [&m_covered](graph::NodeId u) { return !m_covered[u]; },
        [&](graph::NodeId v, port::Port p) {
          const auto e = pg.edge_at(v, p);
          trace.m_after_phase2.insert(e);
          m_covered[g.edge(e).u] = m_covered[g.edge(e).v] = true;
        });
  }

  // Phase III: double-cover 2-matching on H (both endpoints M-free).
  // Every H-node plays both roles; the acceptor role always accepts.
  std::vector<std::vector<port::Port>> eligible(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (m_covered[v]) continue;
    for (port::Port p = 1; p <= g.degree(v); ++p) {
      const auto u = pg.ports().partner(v, p).node;
      if (!m_covered[u]) eligible[v].push_back(p);
    }
  }
  proposal_sweep(
      pg, std::move(eligible), delta,
      [&m_covered](graph::NodeId u) { return !m_covered[u]; },
      [&](graph::NodeId v, port::Port p) { trace.p.insert(pg.edge_at(v, p)); });

  trace.solution = trace.m_after_phase2.set_union(trace.p);
  return trace;
}

}  // namespace eds::algo
