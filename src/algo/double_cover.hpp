// The bipartite-double-cover 2-matching algorithm (Polishchuk–Suomela,
// IPL 2009), used as phase III of the Theorem 5 algorithm and exposed here
// as a standalone distributed algorithm.
//
// Conceptually each node v is split into a proposer copy and an acceptor
// copy (the bipartite double cover), and a maximal matching of the double
// cover is computed by proposing: on odd rounds every unsatisfied proposer
// offers its next port in increasing order; on even rounds every acceptor
// that has never accepted takes the smallest-port proposal it received and
// rejects the rest.  Mapping the matching back to the original graph yields
// a 2-matching P that dominates every edge; the P-covered nodes form a
// 3-approximate vertex cover.
#pragma once

#include <algorithm>
#include <set>
#include <vector>

#include "algo/common.hpp"
#include "runtime/program.hpp"

namespace eds::algo {

/// The per-node proposer/acceptor state machine.  The host program maps its
/// global rounds onto proposal slots: slot s = rounds (2s−1, 2s) of the
/// engine, s = 1, 2, ..., slots().  Eligibility of ports is fixed at init.
class DoubleCoverEngine {
 public:
  /// `eligible` lists the ports this node may propose on / accept from, in
  /// increasing order.  `degree` is the node degree (output array width).
  void init(port::Port degree, std::vector<port::Port> eligible);

  /// Number of slots needed to exhaust every proposal list of width <= cap.
  [[nodiscard]] static runtime::Round slots_for(port::Port cap) {
    return cap;
  }

  /// Round 2s−1 (propose half), send side.
  void send_propose(std::span<runtime::Message> out);

  /// Round 2s−1, receive side: remember the incoming proposals.
  void receive_propose(std::span<const runtime::Message> in);

  /// Round 2s (respond half), send side: accept one proposal, reject rest.
  void send_respond(std::span<runtime::Message> out);

  /// Round 2s, receive side: learn the fate of my outstanding proposal.
  void receive_respond(std::span<const runtime::Message> in);

  /// Ports of my P edges (proposals of mine that were accepted, plus the
  /// proposal I accepted); at most two entries.
  [[nodiscard]] const std::set<port::Port>& p_ports() const noexcept {
    return p_ports_;
  }

 private:
  port::Port degree_ = 0;
  std::vector<port::Port> eligible_;
  std::size_t cursor_ = 0;          // next eligible port to propose on
  bool proposal_outstanding_ = false;
  bool accepted_out_ = false;       // one of my proposals was accepted
  port::Port accepted_in_ = 0;      // the port whose proposal I accepted
  std::vector<port::Port> proposals_in_;  // proposals seen this slot
  std::set<port::Port> p_ports_;
};

/// Standalone 2-matching algorithm: runs the engine over all ports.  The
/// family parameter ∆ (max degree) fixes the common schedule length.
class DoubleCoverProgram final : public runtime::NodeProgram {
 public:
  explicit DoubleCoverProgram(port::Port max_degree);

  void start(port::Port degree) override;
  void send(runtime::Round round, std::span<runtime::Message> out) override;
  void receive(runtime::Round round,
               std::span<const runtime::Message> in) override;
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(runtime::OutputSink& out) const override;

  /// The halt round: after round 1 every proposal after the first is sent
  /// by the dispatch that receives the reply to the previous one, and
  /// every reply by the dispatch that receives the proposal.
  [[nodiscard]] runtime::Round wake_hint(runtime::Round round) const override {
    return std::max(round + 1, schedule_length(max_degree_));
  }

  [[nodiscard]] static runtime::Round schedule_length(port::Port max_degree) {
    return 2 * DoubleCoverEngine::slots_for(max_degree);
  }

 private:
  port::Port max_degree_;
  DoubleCoverEngine engine_;
  bool halted_ = false;
};

class DoubleCoverFactory final : public runtime::ProgramFactory {
 public:
  explicit DoubleCoverFactory(port::Port max_degree)
      : max_degree_(max_degree) {}
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create() const override {
    return std::make_unique<DoubleCoverProgram>(max_degree_);
  }
  void create_all(std::size_t n, runtime::ProgramArena& arena) const override {
    arena.emplace<DoubleCoverProgram>(n, max_degree_);
  }
  [[nodiscard]] std::string name() const override {
    return "double-cover-2-matching(max_deg=" + std::to_string(max_degree_) +
           ")";
  }

 private:
  port::Port max_degree_;
};

}  // namespace eds::algo
