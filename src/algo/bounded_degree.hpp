// Theorem 5: the family A(∆) achieving α(2k) = α(2k+1) = 4 − 1/k for
// graphs of maximum degree ∆, in O(∆²) rounds.
//
// The factory normalises the family parameter to ∆' = 2k+1 (the paper sets
// A(2k) = A(2k+1)); ∆ = 1 is served by AllEdgesProgram instead.  All nodes
// derive the same round schedule from ∆':
//
//   round 1                     — hello: remote ports and degrees
//   round 2                     — distinguishable-neighbour claims
//   rounds 3 … 2+∆'²            — phase I: M(i, j) sweep; add e to the
//                                 matching M iff *neither* endpoint is
//                                 covered by M
//   next 2∆'(∆'−1) rounds       — phase II: for i = 2 … ∆' sequentially,
//                                 proposal-based maximal matching on the
//                                 bipartite graph B_i of edges {u, v} with
//                                 deg u < deg v = i and both ends M-free
//                                 (degree-i nodes propose in increasing port
//                                 order, smaller-degree nodes accept their
//                                 first proposal); ∆' slots of 2 rounds each
//   one round                   — M-coverage broadcast
//   final 2∆' rounds            — phase III: double-cover 2-matching P on
//                                 the subgraph H of edges with both ends
//                                 M-free
//
// Output: D = M ∪ P (my M port, if any, plus my P ports).
#pragma once

#include <atomic>
#include <memory>
#include <memory_resource>

#include "algo/common.hpp"
#include "algo/double_cover.hpp"
#include "runtime/program.hpp"

namespace eds::algo {

/// Aggregate phase statistics collected across all nodes of one execution
/// (for the Figure 9 phase portrait).  Each M edge is reported twice (once
/// per endpoint), as is each P edge, so |M| = m_port_claims / 2 and
/// |P| = p_port_claims / 2.  Nodes add their counts when they halt, from
/// every shard of a parallel run at once, hence the atomics.
struct BoundedPhaseStats {
  std::atomic<std::size_t> m_port_claims{0};
  std::atomic<std::size_t> p_port_claims{0};

  [[nodiscard]] std::size_t matching_size() const {
    return m_port_claims.load(std::memory_order_relaxed) / 2;
  }
  [[nodiscard]] std::size_t two_matching_size() const {
    return p_port_claims.load(std::memory_order_relaxed) / 2;
  }
};

class BoundedDegreeProgram final : public runtime::NodeProgram {
 public:
  /// `max_degree` is the family parameter ∆ >= 2 (for ∆ = 1 use
  /// AllEdgesProgram); it is normalised to the next odd value internally.
  /// Throws InvalidArgument when its schedule does not fit a Round, as
  /// BoundedDegreeFactory does.  `sink`, when set, receives per-node phase
  /// statistics at halt time.  The port block comes from `memory` (a
  /// ProgramArena's resource under create_all).
  explicit BoundedDegreeProgram(
      port::Port max_degree,
      std::shared_ptr<BoundedPhaseStats> sink = nullptr,
      std::pmr::memory_resource* memory = std::pmr::new_delete_resource());

  void start(port::Port degree) override;
  void send(runtime::Round round, std::span<runtime::Message> out) override;
  void receive(runtime::Round round,
               std::span<const runtime::Message> in) override;
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(runtime::OutputSink& out) const override;

  /// From round 2 on: the next of my phase-I steps (read off the label
  /// view, at most 1 + degree of them), the start of my own phase-II block
  /// when I am M-free with a smaller-degree neighbour, the M-status
  /// exchange and the halt round.  Everything else — accepting, every
  /// later proposal (the dispatch that receives a reply sends it), and
  /// phase III after the M-status exchange — is driven by messages.
  /// A plain read: receive() keeps the value, and computes it anew
  /// (next_wake) only in the round it names, or when phase I puts my edge
  /// into M, which drops my phase-II block start.
  [[nodiscard]] runtime::Round wake_hint(runtime::Round) const override {
    return wake_;
  }

  /// The normalised (odd) parameter ∆' = 2k+1.
  [[nodiscard]] static port::Port normalised_delta(port::Port max_degree) {
    return max_degree % 2 == 1 ? max_degree : max_degree + 1;
  }

  /// Total schedule length for the (normalised) parameter, in 64 bits:
  /// 3 + 3∆'² = 2 + ∆'² + 2∆'(∆' − 1) + 1 + 2∆', which passes a Round for
  /// ∆' > 37,837 (BoundedDegreeFactory rejects those).
  [[nodiscard]] static std::uint64_t schedule_length(port::Port max_degree) {
    return quadratic_schedule(3, normalised_delta(max_degree));
  }

 private:
  // Round classification.
  struct Step {
    enum class Kind {
      kHello,
      kClaim,
      kPhase1,
      kPhase2,
      kMStatus,
      kPhase3,
    };
    Kind kind = Kind::kHello;
    port::Port i = 0;  // phase I: pair row;  phase II: degree class
    port::Port j = 0;  // phase I: pair column
    bool respond_half = false;  // phases II/III: propose vs respond half
    bool block_start = false;   // phase II: first round of a degree block
  };
  [[nodiscard]] Step step_for(runtime::Round round) const;

  /// The wake hint after my dispatch in `round`, from the port block: the
  /// first of my phase-I steps, my block start, the M-status exchange and
  /// the halt round that is due after `round`.  The four come in that
  /// order, so the first one found is the earliest.
  [[nodiscard]] runtime::Round next_wake(runtime::Round round) const;

  /// schedule_length as a Round, which the constructor checked it fits.
  [[nodiscard]] runtime::Round halt_round() const noexcept {
    return static_cast<runtime::Round>(schedule_length(delta_));
  }

  void phase2_send(const Step& step, std::span<runtime::Message> out);
  void phase2_receive(runtime::Round round, const Step& step,
                      std::span<const runtime::Message> in);

  /// Phase II: my first port >= `from` to a neighbour of smaller degree,
  /// or 0.
  [[nodiscard]] port::Port next_smaller(port::Port from) const;

  port::Port delta_;        // normalised ∆' (odd)
  port::Port m_port_ = 0;   // my M edge's port (0 = M-free)
  port::Port active_port_ = 0;  // phase I step state

  // Phase II proposer state (valid within one degree block): the port I
  // propose on next, 0 when none is left.  Incoming proposals are flagged
  // kFlagProposed in the port block, and counted.
  port::Port p2_target_ = 0;
  port::Port p2_proposals_ = 0;
  bool p2_outstanding_ = false;

  bool halted_ = false;
  // A neighbour of smaller degree, from the hellos: I may propose in the
  // phase-II block of my degree.
  bool smaller_neighbour_ = false;
  LabelView view_;
  // Phase III, on the edges of H (kFlagEligible, set by the M-status
  // exchange).
  DoubleCoverEngine engine_;
  // wake_hint's value: 0 (that is, next round) before the first receive.
  runtime::Round wake_ = 0;
  std::shared_ptr<BoundedPhaseStats> sink_;
};

class BoundedDegreeFactory final : public runtime::ProgramFactory {
 public:
  /// Throws InvalidArgument when the schedule of `max_degree` does not fit
  /// a Round (max degree above 37,837).
  explicit BoundedDegreeFactory(
      port::Port max_degree,
      std::shared_ptr<BoundedPhaseStats> sink = nullptr)
      : max_degree_(max_degree), sink_(std::move(sink)) {
    check_schedule("bounded-degree: max degree", max_degree,
                   BoundedDegreeProgram::schedule_length(max_degree));
  }
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create() const override {
    return std::make_unique<BoundedDegreeProgram>(max_degree_, sink_);
  }
  void create_all(std::size_t n, runtime::ProgramArena& arena) const override {
    arena.emplace<BoundedDegreeProgram>(n, max_degree_, sink_,
                                        arena.resource());
  }
  [[nodiscard]] runtime::RunResult run(const port::PortGraph& g,
                                       const runtime::RunOptions& options,
                                       ThreadPool& pool) const override;
  [[nodiscard]] std::string name() const override {
    return "bounded-degree(delta=" + std::to_string(max_degree_) + ")";
  }

 private:
  port::Port max_degree_;
  std::shared_ptr<BoundedPhaseStats> sink_;
};

}  // namespace eds::algo
