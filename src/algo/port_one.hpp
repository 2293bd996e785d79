// Theorem 3: the O(1)-time factor 4 − 2/d algorithm for d-regular graphs
// (d even; the guarantee holds for every d).
//
// "The algorithm outputs all edges that are connected to a port with port
// number 1."  One round suffices: each node announces its port number on
// every port; node v then outputs port i iff i = 1 or the remote port is 1.
// The output covers every node (every node has a port 1), hence dominates
// every edge; |D| <= |V| = 2|E|/d and |E| <= (2d−1)|D*| give the ratio.
#pragma once

#include <cstdint>
#include <memory_resource>

#include "algo/common.hpp"
#include "runtime/program.hpp"

namespace eds::algo {

class PortOneProgram final : public runtime::NodeProgram {
 public:
  /// Keeps one selection flag per port in `memory` (a ProgramArena's
  /// resource under create_all and the typed run).
  explicit PortOneProgram(
      std::pmr::memory_resource* memory = std::pmr::new_delete_resource())
      : selected_(memory) {}

  void start(port::Port degree) override;
  void send(runtime::Round round, std::span<runtime::Message> out) override;
  void receive(runtime::Round round,
               std::span<const runtime::Message> in) override;
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(runtime::OutputSink& out) const override {
    out.select_flags(selected_.slots());
  }

 private:
  [[nodiscard]] port::Port degree() const noexcept {
    return static_cast<port::Port>(selected_.slots().size());
  }

  // selected_[i - 1] is 1 when port i is in X(v): i = 1 or remote port 1.
  PortArray<std::uint8_t> selected_;
  bool halted_ = false;
};

class PortOneFactory final : public runtime::ProgramFactory {
 public:
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create() const override {
    return std::make_unique<PortOneProgram>();
  }
  void create_all(std::size_t n, runtime::ProgramArena& arena) const override {
    arena.emplace<PortOneProgram>(n, arena.resource());
  }
  [[nodiscard]] runtime::RunResult run(const port::PortGraph& g,
                                       const runtime::RunOptions& options,
                                       ThreadPool& pool) const override;
  [[nodiscard]] std::string name() const override { return "port-one"; }
};

}  // namespace eds::algo
