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
#include <array>
#include <memory_resource>

#include "algo/common.hpp"
#include "runtime/program.hpp"

namespace eds::algo {

/// Flags the ports of `ports` on which `in` carries a proposal
/// (kFlagProposed) and clears the flag on the others; returns how many
/// proposals arrived.
port::Port flag_proposals(std::span<PortSlot> ports,
                          std::span<const runtime::Message> in);

/// Answers the `count` proposals flagged in `ports`: accepts the one on
/// the lowest port when `accept` is set and rejects the others.  Returns
/// the accepted port, or 0.  Stops at the last proposal, so a node of
/// high degree with few proposals does not scan all its ports.
port::Port answer_proposals(std::span<const PortSlot> ports, port::Port count,
                            bool accept, std::span<runtime::Message> out);

/// The per-node proposer/acceptor state machine.  The host program maps its
/// global rounds onto proposal slots: slot s = rounds (2s−1, 2s) of the
/// engine, s = 1, 2, ..., slots().  It works on the host's port block,
/// which every call names: a node proposes on the ports flagged
/// kFlagEligible (fixed before init), and kFlagProposed holds the
/// proposals of the current slot.
class DoubleCoverEngine {
 public:
  /// Starts over: proposals go out on the eligible ports of `ports`, in
  /// increasing order.
  void init(std::span<const PortSlot> ports);

  /// Number of slots needed to exhaust every proposal list of width <= cap.
  [[nodiscard]] static runtime::Round slots_for(port::Port cap) {
    return cap;
  }

  /// Round 2s−1 (propose half), send side.
  void send_propose(std::span<runtime::Message> out);

  /// Round 2s−1, receive side: remember the incoming proposals.
  void receive_propose(std::span<PortSlot> ports,
                       std::span<const runtime::Message> in) {
    proposals_ = flag_proposals(ports, in);
  }

  /// Round 2s (respond half), send side: accept one proposal, reject rest.
  void send_respond(std::span<const PortSlot> ports,
                    std::span<runtime::Message> out);

  /// Round 2s, receive side: learn the fate of my outstanding proposal;
  /// `who` and `round` name a missing response (expect_message).
  void receive_respond(std::span<const PortSlot> ports,
                       std::span<const runtime::Message> in, const char* who,
                       runtime::Round round);

  /// Ports of my P edges, 0 for none: the proposal I accepted, then my
  /// proposal that was accepted unless it is the same port (the neighbour
  /// behind it and I accepted each other's proposals).
  [[nodiscard]] std::array<port::Port, 2> p_ports() const noexcept {
    return {accepted_in_, accepted_out_ != accepted_in_ ? accepted_out_ : 0};
  }

 private:
  port::Port cursor_ = 0;        // eligible port I propose on next; 0: none
  port::Port accepted_in_ = 0;   // the port whose proposal I accepted
  port::Port accepted_out_ = 0;  // the port of my accepted proposal
  port::Port proposals_ = 0;     // proposals flagged this slot
  bool proposal_outstanding_ = false;
};

/// Standalone 2-matching algorithm: runs the engine over all ports.  The
/// family parameter ∆ (max degree) fixes the common schedule length.
class DoubleCoverProgram final : public runtime::NodeProgram {
 public:
  /// The port block comes from `memory` (a ProgramArena's resource under
  /// create_all).
  explicit DoubleCoverProgram(
      port::Port max_degree,
      std::pmr::memory_resource* memory = std::pmr::new_delete_resource());

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
    return std::max(round + 1,
                    static_cast<runtime::Round>(schedule_length(max_degree_)));
  }

  /// Total schedule length, in 64 bits: 2∆, which passes a Round for
  /// ∆ ≥ 2^31 (DoubleCoverFactory rejects those).
  [[nodiscard]] static std::uint64_t schedule_length(port::Port max_degree) {
    return 2 * std::uint64_t{DoubleCoverEngine::slots_for(max_degree)};
  }

 private:
  port::Port max_degree_;
  bool halted_ = false;
  PortBlock ports_;
  DoubleCoverEngine engine_;
};

class DoubleCoverFactory final : public runtime::ProgramFactory {
 public:
  /// Throws InvalidArgument when the schedule of `max_degree` does not fit
  /// a Round (max degree 2^31 or more).
  explicit DoubleCoverFactory(port::Port max_degree)
      : max_degree_(max_degree) {
    check_schedule("double-cover: max degree", max_degree,
                   DoubleCoverProgram::schedule_length(max_degree));
  }
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create() const override {
    return std::make_unique<DoubleCoverProgram>(max_degree_);
  }
  void create_all(std::size_t n, runtime::ProgramArena& arena) const override {
    arena.emplace<DoubleCoverProgram>(n, max_degree_, arena.resource());
  }
  [[nodiscard]] runtime::RunResult run(const port::PortGraph& g,
                                       const runtime::RunOptions& options,
                                       ThreadPool& pool) const override;
  [[nodiscard]] std::string name() const override {
    return "double-cover-2-matching(max_deg=" + std::to_string(max_degree_) +
           ")";
  }

 private:
  port::Port max_degree_;
};

}  // namespace eds::algo
