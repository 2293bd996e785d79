#include "algo/double_cover.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace eds::algo {

void DoubleCoverEngine::init(port::Port degree,
                             std::vector<port::Port> eligible) {
  degree_ = degree;
  eligible_ = std::move(eligible);
  EDS_ENSURE(std::is_sorted(eligible_.begin(), eligible_.end()),
             "DoubleCoverEngine: eligible ports must be sorted");
  cursor_ = 0;
  proposal_outstanding_ = false;
  accepted_out_ = false;
  accepted_in_ = 0;
  p_ports_.clear();
}

void DoubleCoverEngine::send_propose(std::span<runtime::Message> out) {
  proposal_outstanding_ = false;
  if (accepted_out_ || cursor_ >= eligible_.size()) return;
  const port::Port target = eligible_[cursor_];
  out[target - 1] = runtime::msg(kTagPropose);
  proposal_outstanding_ = true;
}

void DoubleCoverEngine::receive_propose(
    std::span<const runtime::Message> in) {
  proposals_in_.clear();
  for (port::Port p = 1; p <= degree_; ++p) {
    if (in[p - 1].tag == kTagPropose) proposals_in_.push_back(p);
  }
}

void DoubleCoverEngine::send_respond(std::span<runtime::Message> out) {
  for (const port::Port p : proposals_in_) {
    out[p - 1] = runtime::msg(kTagReject);
  }
  if (accepted_in_ == 0 && !proposals_in_.empty()) {
    // Accept the first proposal, breaking ties with port numbers.
    const port::Port chosen = proposals_in_.front();  // ports are ascending
    out[chosen - 1] = runtime::msg(kTagAccept);
    accepted_in_ = chosen;
    p_ports_.insert(chosen);
  }
}

void DoubleCoverEngine::receive_respond(
    std::span<const runtime::Message> in) {
  if (!proposal_outstanding_) return;
  const port::Port target = eligible_[cursor_];
  const auto& reply = in[target - 1];
  EDS_ENSURE(reply.tag == kTagAccept || reply.tag == kTagReject,
             "DoubleCoverEngine: proposal received no response");
  if (reply.tag == kTagAccept) {
    accepted_out_ = true;
    p_ports_.insert(target);
  } else {
    ++cursor_;
  }
  proposal_outstanding_ = false;
}

DoubleCoverProgram::DoubleCoverProgram(port::Port max_degree)
    : max_degree_(max_degree) {
  if (max_degree_ == 0) {
    throw InvalidArgument("DoubleCoverProgram: max degree must be positive");
  }
}

void DoubleCoverProgram::start(port::Port degree) {
  if (degree > max_degree_) {
    throw ExecutionError(
        "DoubleCoverProgram: node degree exceeds the family parameter");
  }
  std::vector<port::Port> all(degree);
  for (port::Port i = 1; i <= degree; ++i) all[i - 1] = i;
  engine_.init(degree, std::move(all));
  if (degree == 0) halted_ = true;
}

void DoubleCoverProgram::send(runtime::Round round,
                              std::span<runtime::Message> out) {
  if (round % 2 == 1) {
    engine_.send_propose(out);
  } else {
    engine_.send_respond(out);
  }
}

void DoubleCoverProgram::receive(runtime::Round round,
                                 std::span<const runtime::Message> in) {
  if (round % 2 == 1) {
    engine_.receive_propose(in);
  } else {
    engine_.receive_respond(in);
  }
  if (round >= schedule_length(max_degree_)) halted_ = true;
}

void DoubleCoverProgram::output(runtime::OutputSink& out) const {
  for (const port::Port p : engine_.p_ports()) out.select(p);
}

}  // namespace eds::algo
