#include "algo/port_one.hpp"

namespace eds::algo {

void PortOneProgram::start(port::Port degree) {
  degree_ = degree;
  output_.reserve(degree_);  // the one allocation: at most every port
  if (degree_ == 0) halted_ = true;  // isolated node: empty output
}

void PortOneProgram::send(runtime::Round, std::span<runtime::Message> out) {
  for (port::Port i = 1; i <= degree_; ++i) {
    out[i - 1] = runtime::msg(kTagHello, static_cast<std::int32_t>(i),
                              static_cast<std::int32_t>(degree_));
  }
}

void PortOneProgram::receive(runtime::Round,
                             std::span<const runtime::Message> in) {
  for (port::Port i = 1; i <= degree_; ++i) {
    const auto remote = static_cast<port::Port>(in[i - 1].arg[0]);
    if (i == 1 || remote == 1) output_.push_back(i);
  }
  halted_ = true;
}

}  // namespace eds::algo
