// How to implement your own distributed algorithm against the library API.
//
// We build a small anonymous algorithm from scratch: a "greedy port
// matching" that, for k = 1..∆ sequentially, adds every edge whose two
// endpoints both rank it as their lowest-numbered *free* port and whose two
// port numbers are equal (a naive symmetric matcher).  It is deliberately
// simple — the point is the NodeProgram/ProgramFactory pattern:
//
//   1. derive from runtime::NodeProgram,
//   2. drive a fixed round schedule from the family parameter,
//   3. exchange messages only through the ports,
//   4. halt, then announce the output ports by selecting each one on the
//      OutputSink the engine passes to output(),
//   5. optionally build all programs of a run contiguously in the engine's
//      ProgramArena (ProgramFactory::create_all),
//   6. run through run_synchronous + validated_edge_set and verify with the
//      analysis toolbox.
//
// The example then compares it against the paper's algorithms: the naive
// matcher produces a matching but NOT always a dominating one — the
// verifiers catch that — which is exactly why the paper's machinery
// (distinguishable neighbours, degree classes, double covers) is needed.
#include <iostream>
#include <set>

#include "algo/driver.hpp"
#include "analysis/verify.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"

namespace {

using eds::port::Port;
using eds::runtime::Message;
using eds::runtime::Round;

constexpr std::int32_t kTagOffer = 1;

class NaivePortMatcher final : public eds::runtime::NodeProgram {
 public:
  explicit NaivePortMatcher(Port max_degree) : delta_(max_degree) {}

  void start(Port degree) override {
    degree_ = degree;
    if (degree_ == 0) halted_ = true;
  }

  void send(Round round, std::span<Message> out) override {
    // Round k: if my lowest free port is k, offer on it.
    offered_ = 0;
    if (matched_ == 0 && round <= degree_) {
      const auto k = static_cast<Port>(round);
      out[k - 1] = eds::runtime::msg(kTagOffer);
      offered_ = k;
    }
  }

  void receive(Round round, std::span<const Message> in) override {
    if (offered_ != 0 && in[offered_ - 1].tag == kTagOffer) {
      // Both endpoints offered this edge in the same round: symmetric
      // agreement, no tie to break — the edge joins the matching.
      matched_ = offered_;
    }
    if (round >= delta_) halted_ = true;
  }

  [[nodiscard]] bool halted() const override { return halted_; }
  void output(eds::runtime::OutputSink& out) const override {
    if (matched_ != 0) out.select(matched_);
  }

 private:
  Port delta_;
  Port degree_ = 0;
  Port offered_ = 0;
  Port matched_ = 0;
  bool halted_ = false;
};

class NaivePortMatcherFactory final : public eds::runtime::ProgramFactory {
 public:
  explicit NaivePortMatcherFactory(Port max_degree) : delta_(max_degree) {}
  [[nodiscard]] std::unique_ptr<eds::runtime::NodeProgram> create()
      const override {
    return std::make_unique<NaivePortMatcher>(delta_);
  }
  // Optional: without this override the engine adopts n create() results;
  // with it, the run's programs sit in one block of the run's arena.
  void create_all(std::size_t n,
                  eds::runtime::ProgramArena& arena) const override {
    arena.emplace<NaivePortMatcher>(n, delta_);
  }
  [[nodiscard]] std::string name() const override {
    return "naive-port-matcher";
  }

 private:
  Port delta_;
};

}  // namespace

int main() {
  eds::Rng rng(11);
  std::cout << "Custom-algorithm walkthrough: a naive symmetric matcher vs"
               " the paper's\nalgorithms, on twenty 3-regular instances.\n\n";

  int naive_dominates = 0;
  int paper_dominates = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto g = eds::graph::random_regular(16, 3, rng);
    const auto pg = eds::port::with_random_ports(g, rng);

    // Run the custom program exactly like the built-in ones.
    const NaivePortMatcherFactory factory(3);
    const auto raw = eds::runtime::run_synchronous(pg.ports(), factory);
    const auto naive = eds::runtime::validated_edge_set(pg, raw);

    const auto paper =
        eds::algo::run_algorithm(pg, eds::algo::Algorithm::kOddRegular, 3);

    const bool naive_ok = eds::analysis::is_edge_dominating_set(g, naive);
    const bool paper_ok =
        eds::analysis::is_edge_dominating_set(g, paper.solution);
    naive_dominates += naive_ok ? 1 : 0;
    paper_dominates += paper_ok ? 1 : 0;

    if (trial < 5) {
      std::cout << "instance " << trial << ": naive |M| = " << naive.size()
                << (eds::analysis::is_matching(g, naive) ? " (matching)"
                                                         : " (NOT a matching)")
                << ", dominating: " << (naive_ok ? "yes" : "no ")
                << "   |  paper |D| = " << paper.solution.size()
                << ", dominating: " << (paper_ok ? "yes" : "NO") << "\n";
    }
  }

  std::cout << "\nnaive matcher dominated all edges on " << naive_dominates
            << "/20 instances;\nthe paper's Theorem 4 algorithm on "
            << paper_dominates << "/20 (guaranteed).\n\n";
  std::cout
      << "Takeaway: symmetric agreement alone cannot guarantee domination in\n"
         "anonymous networks — the naive matcher leaves whole regions\n"
         "unmatched whenever port numberings disagree.  The paper's phase\n"
         "machinery exists precisely to beat this, and the library verifies\n"
         "any custom program with the same instruments (validated_edge_set,\n"
         "is_edge_dominating_set, covering-map tests).\n";
  return paper_dominates == 20 ? 0 : 1;
}
