// The trivial algorithm for ∆ = 1 (Table 1, first bounded-degree row).
//
// In a graph of maximum degree 1 every component is an isolated node or a
// single edge, and the only edge dominating set containing each edge's
// component is the edge itself: outputting every port is optimal (ratio 1)
// and requires no communication.
#pragma once

#include "runtime/program.hpp"

namespace eds::algo {

class AllEdgesProgram final : public runtime::NodeProgram {
 public:
  void start(port::Port degree) override {
    degree_ = degree;
    halted_ = true;  // no communication needed
  }
  void send(runtime::Round, std::span<runtime::Message>) override {}
  void receive(runtime::Round, std::span<const runtime::Message>) override {}
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(runtime::OutputSink& out) const override {
    for (port::Port i = 1; i <= degree_; ++i) out.select(i);
  }

 private:
  port::Port degree_ = 0;
  bool halted_ = false;
};

class AllEdgesFactory final : public runtime::ProgramFactory {
 public:
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create() const override {
    return std::make_unique<AllEdgesProgram>();
  }
  void create_all(std::size_t n, runtime::ProgramArena& arena) const override {
    arena.emplace<AllEdgesProgram>(n);
  }
  [[nodiscard]] runtime::RunResult run(const port::PortGraph& g,
                                       const runtime::RunOptions& options,
                                       ThreadPool& pool) const override;
  [[nodiscard]] std::string name() const override { return "all-edges"; }
};

}  // namespace eds::algo
