// Theorem 3: the O(1)-time factor 4 − 2/d algorithm for d-regular graphs
// (d even; the guarantee holds for every d).
//
// "The algorithm outputs all edges that are connected to a port with port
// number 1."  One round suffices: each node announces its port number on
// every port; node v then outputs port i iff i = 1 or the remote port is 1.
// The output covers every node (every node has a port 1), hence dominates
// every edge; |D| <= |V| = 2|E|/d and |E| <= (2d−1)|D*| give the ratio.
#pragma once

#include <memory_resource>
#include <vector>

#include "algo/common.hpp"
#include "runtime/program.hpp"

namespace eds::algo {

class PortOneProgram final : public runtime::NodeProgram {
 public:
  PortOneProgram() = default;
  /// Keeps the output list in `memory` (a ProgramArena's resource).
  explicit PortOneProgram(std::pmr::memory_resource* memory)
      : output_(memory) {}

  void start(port::Port degree) override;
  void send(runtime::Round round, std::span<runtime::Message> out) override;
  void receive(runtime::Round round,
               std::span<const runtime::Message> in) override;
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(runtime::OutputSink& out) const override {
    for (const port::Port i : output_) out.select(i);
  }

 private:
  port::Port degree_ = 0;
  bool halted_ = false;
  std::pmr::vector<port::Port> output_;
};

class PortOneFactory final : public runtime::ProgramFactory {
 public:
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create() const override {
    return std::make_unique<PortOneProgram>();
  }
  void create_all(std::size_t n, runtime::ProgramArena& arena) const override {
    arena.emplace<PortOneProgram>(n, arena.resource());
  }
  [[nodiscard]] std::string name() const override { return "port-one"; }
};

}  // namespace eds::algo
