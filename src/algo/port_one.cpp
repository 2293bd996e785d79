#include "algo/port_one.hpp"

#include "runtime/stage.hpp"

namespace eds::algo {

void PortOneProgram::start(port::Port degree) {
  selected_.assign(degree);  // the one allocation: a flag per port
  if (degree == 0) halted_ = true;  // isolated node: empty output
}

void PortOneProgram::send(runtime::Round, std::span<runtime::Message> out) {
  const port::Port d = degree();
  for (port::Port i = 1; i <= d; ++i) {
    out[i - 1] = runtime::msg(kTagHello, static_cast<std::int32_t>(i),
                              static_cast<std::int32_t>(d));
  }
}

void PortOneProgram::receive(runtime::Round,
                             std::span<const runtime::Message> in) {
  const auto selected = selected_.slots();
  for (port::Port i = 1; i <= selected.size(); ++i) {
    const auto remote = static_cast<port::Port>(in[i - 1].arg[0]);
    selected[i - 1] = static_cast<std::uint8_t>(i == 1 || remote == 1);
  }
  halted_ = true;
}

runtime::RunResult PortOneFactory::run(const port::PortGraph& g,
                                       const runtime::RunOptions& options,
                                       ThreadPool& pool) const {
  runtime::ProgramArena arena(g.num_nodes());
  return runtime::run_block(
      g, arena.emplace_block<PortOneProgram>(g.num_nodes(), arena.resource()),
      options, name(), pool);
}

}  // namespace eds::algo
