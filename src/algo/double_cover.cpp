#include "algo/double_cover.hpp"

#include "runtime/stage.hpp"
#include "util/error.hpp"

namespace eds::algo {

namespace {

/// The algorithm a missing handshake message names (expect_message).
constexpr const char* kWho = "double-cover";

/// The first eligible port >= `from`, or 0.
port::Port next_eligible(std::span<const PortSlot> ports, port::Port from) {
  for (port::Port p = from; p <= ports.size(); ++p) {
    if ((ports[p - 1].flags & kFlagEligible) != 0) return p;
  }
  return 0;
}

}  // namespace

port::Port flag_proposals(std::span<PortSlot> ports,
                          std::span<const runtime::Message> in) {
  port::Port count = 0;
  for (port::Port p = 1; p <= ports.size(); ++p) {
    auto& flags = ports[p - 1].flags;
    if (in[p - 1].tag == kTagPropose) {
      flags |= kFlagProposed;
      ++count;
    } else {
      flags &= ~kFlagProposed;
    }
  }
  return count;
}

port::Port answer_proposals(std::span<const PortSlot> ports, port::Port count,
                            bool accept, std::span<runtime::Message> out) {
  port::Port accepted = 0;
  for (port::Port p = 1; count > 0 && p <= ports.size(); ++p) {
    if ((ports[p - 1].flags & kFlagProposed) == 0) continue;
    --count;
    if (accept && accepted == 0) {
      out[p - 1] = runtime::msg(kTagAccept);
      accepted = p;
    } else {
      out[p - 1] = runtime::msg(kTagReject);
    }
  }
  return accepted;
}

void DoubleCoverEngine::init(std::span<const PortSlot> ports) {
  cursor_ = next_eligible(ports, 1);
  proposal_outstanding_ = false;
  accepted_out_ = 0;
  accepted_in_ = 0;
}

void DoubleCoverEngine::send_propose(std::span<runtime::Message> out) {
  proposal_outstanding_ = false;
  if (accepted_out_ != 0 || cursor_ == 0) return;
  out[cursor_ - 1] = runtime::msg(kTagPropose);
  proposal_outstanding_ = true;
}

void DoubleCoverEngine::send_respond(std::span<const PortSlot> ports,
                                     std::span<runtime::Message> out) {
  // Accept the first proposal, breaking ties with port numbers, if I have
  // never accepted one; reject the rest.
  const port::Port accepted =
      answer_proposals(ports, proposals_, accepted_in_ == 0, out);
  if (accepted != 0) accepted_in_ = accepted;
}

void DoubleCoverEngine::receive_respond(std::span<const PortSlot> ports,
                                        std::span<const runtime::Message> in,
                                        const char* who, runtime::Round round) {
  if (!proposal_outstanding_) return;
  const auto& reply = in[cursor_ - 1];
  expect_message(reply.tag == kTagAccept || reply.tag == kTagReject, who,
                 "proposal response", cursor_, round);
  if (reply.tag == kTagAccept) {
    accepted_out_ = cursor_;
  } else {
    cursor_ = next_eligible(ports, cursor_ + 1);
  }
  proposal_outstanding_ = false;
}

DoubleCoverProgram::DoubleCoverProgram(port::Port max_degree,
                                       std::pmr::memory_resource* memory)
    : max_degree_(max_degree), ports_(memory) {
  if (max_degree_ == 0) {
    throw InvalidArgument("DoubleCoverProgram: max degree must be positive");
  }
}

void DoubleCoverProgram::start(port::Port degree) {
  if (degree > max_degree_) {
    throw ExecutionError(
        "DoubleCoverProgram: node degree exceeds the family parameter");
  }
  ports_.assign(degree);
  for (PortSlot& slot : ports_.slots()) slot.flags = kFlagEligible;
  engine_.init(ports_.slots());
  if (degree == 0) halted_ = true;
}

void DoubleCoverProgram::send(runtime::Round round,
                              std::span<runtime::Message> out) {
  if (round % 2 == 1) {
    engine_.send_propose(out);
  } else {
    engine_.send_respond(ports_.slots(), out);
  }
}

void DoubleCoverProgram::receive(runtime::Round round,
                                 std::span<const runtime::Message> in) {
  if (round % 2 == 1) {
    engine_.receive_propose(ports_.slots(), in);
  } else {
    engine_.receive_respond(ports_.slots(), in, kWho, round);
  }
  if (round >= schedule_length(max_degree_)) halted_ = true;
}

void DoubleCoverProgram::output(runtime::OutputSink& out) const {
  for (const port::Port p : engine_.p_ports()) {
    if (p != 0) out.select(p);
  }
}

runtime::RunResult DoubleCoverFactory::run(
    const port::PortGraph& g, const runtime::RunOptions& options,
    ThreadPool& pool) const {
  runtime::ProgramArena arena(g.num_nodes());
  return runtime::run_block(
      g,
      arena.emplace_block<DoubleCoverProgram>(g.num_nodes(), max_degree_,
                                              arena.resource()),
      options, name(), pool);
}

}  // namespace eds::algo
