// Theorem 4: the O(d²)-time factor 4 − 6/(d+1) algorithm for d-regular
// graphs with d odd.
//
// Schedule (all nodes compute it locally from d, so no termination
// detection is needed):
//   round 1            — hello: learn the remote port behind each port
//                        (label pairs), then pick the distinguishable
//                        neighbour (DN; exists for every node since d is
//                        odd — Lemma 1)
//   round 2            — tell the DN it was chosen
//   rounds 3 … 2+d²    — phase I: sweep pairs (i, j) lexicographically; the
//                        two endpoints of each M(i, j) edge exchange covered
//                        bits and add the edge unless both are covered
//                        (the growing D is a forest and an edge cover)
//   rounds 3+d² … 2+2d² — phase II: same sweep; an edge e ∈ D ∩ M(i, j) is
//                        removed when both endpoints are covered by D∖{e}
//                        (afterwards D is a star forest, |D| ≤ d|V|/(d+1))
// Both endpoints decide from the same exchanged bits, so membership of D
// stays consistent; within one step M(i, j) is a matching (Lemma 2), so the
// parallel decisions do not interfere.
#pragma once

#include <memory_resource>
#include <utility>
#include <vector>

#include "algo/common.hpp"
#include "runtime/program.hpp"

namespace eds::algo {

/// The order in which the (i, j) pairs are swept.  The paper processes them
/// "in an arbitrary order" — correctness must not depend on the choice, and
/// the test suite verifies the guarantee under every order here.  All nodes
/// must of course agree on the order (it is a family parameter).
enum class PairOrder {
  kLexicographic,  ///< (1,1), (1,2), ..., (d,d)
  kDiagonal,       ///< sorted by (i+j, i): the anti-diagonal sweep
  kReverse,        ///< (d,d), (d,d-1), ..., (1,1)
};

/// The d² pairs (i, j) in the given order.
[[nodiscard]] std::vector<std::pair<port::Port, port::Port>> pair_schedule(
    port::Port d, PairOrder order);

/// The 0-based index of pair (i, j), 1 <= i, j <= d, in
/// pair_schedule(d, order), computed in O(1).
[[nodiscard]] std::size_t pair_position(port::Port d, PairOrder order,
                                        port::Port i, port::Port j);

/// The pair at 0-based index k < d² of pair_schedule(d, order), computed
/// in O(1): the inverse of pair_position.
[[nodiscard]] std::pair<port::Port, port::Port> pair_at(port::Port d,
                                                        PairOrder order,
                                                        std::size_t k);

class OddRegularProgram final : public runtime::NodeProgram {
 public:
  /// `d` is the family parameter; every node's degree must equal it and it
  /// must be odd.  Throws InvalidArgument when its schedule does not fit a
  /// Round, as OddRegularFactory does.  The port block comes from `memory`
  /// (a ProgramArena's resource under create_all).
  explicit OddRegularProgram(
      port::Port d, PairOrder order = PairOrder::kLexicographic,
      std::pmr::memory_resource* memory = std::pmr::new_delete_resource());

  void start(port::Port degree) override;
  void send(runtime::Round round, std::span<runtime::Message> out) override;
  void receive(runtime::Round round,
               std::span<const runtime::Message> in) override;
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(runtime::OutputSink& out) const override;

  /// From round 2 on: the next of my at most 1 + d steps in each phase
  /// (those of my DN edge and of the edges whose far end claimed me; in
  /// phase II only the ones still in D), or the halt round.  The partner
  /// of a step sends too, so the dispatch that receives it is driven by
  /// that message.  A plain read: receive() keeps the value, and computes
  /// it anew (next_wake, O(d)) only in the round it names, or when an edge
  /// of mine joins or leaves D.
  [[nodiscard]] runtime::Round wake_hint(runtime::Round) const override {
    return wake_;
  }

  /// Total rounds the schedule takes for parameter d, in 64 bits:
  /// 2 + 2d², which passes a Round for d > 46,340 (OddRegularFactory
  /// rejects those).
  [[nodiscard]] static std::uint64_t schedule_length(port::Port d) {
    return quadratic_schedule(2, d);
  }

 private:
  struct Step {
    enum class Phase { kSetup, kAdd, kRemove, kDone };
    Phase phase = Phase::kSetup;
    port::Port i = 0;
    port::Port j = 0;
  };
  [[nodiscard]] Step step_for(runtime::Round round) const;

  /// The wake hint after my dispatch in `round`, from the port block and
  /// my D edges.
  [[nodiscard]] runtime::Round next_wake(runtime::Round round) const;

  /// schedule_length as a Round, which the constructor checked it fits.
  [[nodiscard]] runtime::Round halt_round() const noexcept {
    return static_cast<runtime::Round>(schedule_length(d_));
  }

  [[nodiscard]] bool in_d(port::Port p) const {
    return (view_.ports()[p - 1].flags & kFlagInD) != 0;
  }

  port::Port d_;
  PairOrder order_;
  port::Port d_count_ = 0;      // my incident D edges (flagged kFlagInD)
  port::Port active_port_ = 0;  // active port of the current step
  bool halted_ = false;
  // wake_hint's value: 0 (that is, next round) before the first receive.
  runtime::Round wake_ = 0;
  LabelView view_;
};

class OddRegularFactory final : public runtime::ProgramFactory {
 public:
  /// Throws InvalidArgument when the schedule of `d` does not fit a Round
  /// (d above 46,340).
  explicit OddRegularFactory(port::Port d,
                             PairOrder order = PairOrder::kLexicographic)
      : d_(d), order_(order) {
    check_schedule("odd-regular: d", d,
                   OddRegularProgram::schedule_length(d));
  }
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create() const override {
    return std::make_unique<OddRegularProgram>(d_, order_);
  }
  void create_all(std::size_t n, runtime::ProgramArena& arena) const override {
    arena.emplace<OddRegularProgram>(n, d_, order_, arena.resource());
  }
  [[nodiscard]] runtime::RunResult run(const port::PortGraph& g,
                                       const runtime::RunOptions& options,
                                       ThreadPool& pool) const override;
  [[nodiscard]] std::string name() const override {
    return "odd-regular(d=" + std::to_string(d_) + ")";
  }

 private:
  port::Port d_;
  PairOrder order_;
};

}  // namespace eds::algo
