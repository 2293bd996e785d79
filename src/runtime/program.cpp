#include "runtime/program.hpp"

#include <algorithm>
#include <string>

#include "runtime/engine.hpp"
#include "util/error.hpp"

namespace eds::runtime {

namespace {

/// Programs are about this size on average (vtable, degree, a few flags and
/// small containers); the first arena buffer holds n of them, and the
/// monotonic resource grows past it when a factory needs more.
constexpr std::size_t kArenaBytesPerNode = 64;

}  // namespace

void OutputSink::fail(bool duplicate) const {
  throw ExecutionError(std::string(engine_) +
                       (duplicate
                            ? ": node output contains a duplicate port"
                            : ": node output contains an invalid port number"));
}

ProgramArena::ProgramArena(std::size_t n)
    : nodes_(n), memory_(std::max<std::size_t>(n, 1) * kArenaBytesPerNode) {}

ProgramArena::~ProgramArena() {
  // Arena-built programs are destroyed in place (their memory goes with
  // memory_); adopted ones are freed by owned_.
  for (auto block = blocks_.rbegin(); block != blocks_.rend(); ++block) {
    block->destroy(block->first, block->count);
  }
}

void ProgramArena::adopt(std::unique_ptr<NodeProgram> program) {
  if (programs_.empty()) programs_.reserve(nodes_);
  programs_.push_back(program.get());
  if (program) owned_.push_back(std::move(program));
}

void ProgramFactory::create_all(std::size_t n, ProgramArena& arena) const {
  for (std::size_t v = 0; v < n; ++v) arena.adopt(create());
}

RunResult ProgramFactory::run(const port::PortGraph& g,
                              const RunOptions& options,
                              ThreadPool& pool) const {
  ProgramArena arena(g.num_nodes());
  const auto programs =
      create_programs(*this, g.num_nodes(), arena, "run_synchronous");
  return run_plan(g, programs, options, name(), pool);
}

std::span<NodeProgram* const> create_programs(const ProgramFactory& factory,
                                              std::size_t n,
                                              ProgramArena& arena,
                                              const char* engine) {
  factory.create_all(n, arena);
  const auto programs = arena.programs();
  if (programs.size() != n) {
    throw ExecutionError(std::string(engine) +
                         ": factory built the wrong number of programs");
  }
  if (std::find(programs.begin(), programs.end(), nullptr) !=
      programs.end()) {
    throw ExecutionError(std::string(engine) +
                         ": factory returned null program");
  }
  return programs;
}

std::vector<NodeProgram*> borrow_programs(
    const std::vector<std::unique_ptr<NodeProgram>>& programs) {
  std::vector<NodeProgram*> raw(programs.size());
  std::transform(programs.begin(), programs.end(), raw.begin(),
                 [](const auto& p) { return p.get(); });
  return raw;
}

}  // namespace eds::runtime
