#include "algo/common.hpp"

#include <limits>

#include "util/error.hpp"

namespace eds::algo {

void check_schedule(const char* who, std::uint64_t param,
                    std::uint64_t rounds) {
  constexpr Round kMax = std::numeric_limits<Round>::max();
  if (rounds > kMax) {
    throw InvalidArgument(std::string(who) + ' ' + std::to_string(param) +
                          " needs a schedule of " +
                          (rounds == UINT64_MAX ? "at least " : "") +
                          std::to_string(rounds) +
                          " rounds; a run counts at most " +
                          std::to_string(kMax));
  }
}

void throw_missing_message(const char* who, const char* what, Port port,
                           Round round) {
  throw ExecutionError(std::string(who) + ": round " + std::to_string(round) +
                       ": no " + what + " message on port " +
                       std::to_string(port));
}

Port distinguishable_port(std::span<const PortSlot> ports) {
  const auto degree = static_cast<Port>(ports.size());
  for (Port i = 1; i <= degree; ++i) {
    const Port r = ports[i - 1].remote_port;
    const bool shared =
        r != i && r >= 1 && r <= degree && ports[r - 1].remote_port == i;
    if (!shared) return i;
  }
  return 0;
}

void LabelView::record_hello(Port i, const Message& m, const char* who,
                             Round round) {
  expect_message(m.tag == kTagHello, who, "hello", i, round);
  PortSlot& slot = ports()[i - 1];
  slot.remote_port = static_cast<Port>(m.arg[0]);
  slot.remote_degree = static_cast<Port>(m.arg[1]);
}

void LabelView::record_claim(Port i, const Message& m) {
  if (m.tag == kTagDnClaim) ports()[i - 1].flags |= kFlagDnClaimed;
}

Port LabelView::mij_active_port(Port i, Port j) const {
  Port active = 0;
  // "v" side: my DN edge leaves through port i and arrives at remote port j.
  if (dn_port_ != 0 && dn_port_ == i && ports()[i - 1].remote_port == j) {
    active = i;
  }
  // "u" side: the edge on my port j comes from the claimant's port i.
  if (j <= degree() && dn_claimed(j) && ports()[j - 1].remote_port == i) {
    EDS_ENSURE(active == 0 || active == j,
               "M(i,j) is not a matching at this node (Lemma 2 violated)");
    active = j;
  }
  return active;
}

}  // namespace eds::algo
