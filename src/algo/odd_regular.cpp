#include "algo/odd_regular.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace eds::algo {

std::vector<std::pair<port::Port, port::Port>> pair_schedule(port::Port d,
                                                             PairOrder order) {
  std::vector<std::pair<port::Port, port::Port>> pairs;
  pairs.reserve(static_cast<std::size_t>(d) * d);
  for (port::Port i = 1; i <= d; ++i) {
    for (port::Port j = 1; j <= d; ++j) pairs.emplace_back(i, j);
  }
  switch (order) {
    case PairOrder::kLexicographic:
      break;
    case PairOrder::kDiagonal:
      std::sort(pairs.begin(), pairs.end(),
                [](const auto& a, const auto& b) {
                  return std::pair(a.first + a.second, a.first) <
                         std::pair(b.first + b.second, b.first);
                });
      break;
    case PairOrder::kReverse:
      std::reverse(pairs.begin(), pairs.end());
      break;
  }
  return pairs;
}

std::size_t pair_position(port::Port d, PairOrder order, port::Port i,
                          port::Port j) {
  const std::size_t lex = static_cast<std::size_t>(i - 1) * d + (j - 1);
  switch (order) {
    case PairOrder::kLexicographic:
      return lex;
    case PairOrder::kReverse:
      return static_cast<std::size_t>(d) * d - 1 - lex;
    case PairOrder::kDiagonal: {
      // Anti-diagonal t = i' + j' holds min(t − 1, 2d + 1 − t) pairs, in
      // increasing i'; count the diagonals before i + j, then the pairs of
      // i + j with a smaller i.
      const std::size_t sum = static_cast<std::size_t>(i) + j;
      const std::size_t dd = d;
      std::size_t before = 0;
      if (sum <= dd + 2) {
        before = (sum - 2) * (sum - 1) / 2;
      } else {
        const std::size_t tail = sum - dd - 2;  // diagonals past the middle
        before = dd * (dd + 1) / 2 + tail * (3 * dd + 1 - sum) / 2;
      }
      const std::size_t first_i = sum > dd + 1 ? sum - dd : 1;
      return before + (i - first_i);
    }
  }
  return lex;
}

OddRegularProgram::OddRegularProgram(port::Port d, PairOrder order)
    : d_(d), order_(order), schedule_(pair_schedule(d, order)) {
  if (d_ % 2 == 0) {
    throw InvalidArgument("OddRegularProgram: d must be odd");
  }
}

void OddRegularProgram::start(port::Port degree) {
  if (degree != d_) {
    throw ExecutionError(
        "OddRegularProgram: node degree differs from the family parameter d");
  }
  view_.degree = degree;
  view_.remote_port.assign(degree, 0);
  view_.remote_degree.assign(degree, 0);
  view_.dn_claimed.assign(degree, false);
}

OddRegularProgram::Step OddRegularProgram::step_for(
    runtime::Round round) const {
  const auto d = static_cast<runtime::Round>(d_);
  if (round <= 2) return {Step::Phase::kSetup, 0, 0};
  if (round <= 2 + d * d) {
    const auto& [i, j] = schedule_[round - 3];  // 0-based step index
    return {Step::Phase::kAdd, i, j};
  }
  if (round <= 2 + 2 * d * d) {
    const auto& [i, j] = schedule_[round - 3 - d * d];
    return {Step::Phase::kRemove, i, j};
  }
  return {Step::Phase::kDone, 0, 0};
}

runtime::Round OddRegularProgram::wake_hint(runtime::Round round) const {
  if (round < 2) return round + 1;  // the claims are not in yet
  const auto dd = static_cast<runtime::Round>(d_) * d_;
  // Step k of a phase is round 3 + k (add) or 3 + d² + k (remove); the
  // dispatch one round earlier sends into it.  Every add step comes
  // before every remove step, so the remove steps (those still in D)
  // matter only once no add step is left.
  const auto next_step = [&](runtime::Round base, bool in_d_only) {
    runtime::Round next = schedule_length(d_);
    const auto consider = [&](port::Port i, port::Port j, port::Port mine) {
      const auto sends = base + static_cast<runtime::Round>(
                                    pair_position(d_, order_, i, j));
      if (sends > round && sends < next &&
          (!in_d_only || d_ports_.count(mine) > 0)) {
        next = sends;
      }
    };
    if (view_.dn_port != 0) {
      consider(view_.dn_port, view_.remote_port[view_.dn_port - 1],
               view_.dn_port);
    }
    for (port::Port j = 1; j <= view_.degree; ++j) {
      if (view_.dn_claimed[j - 1]) consider(view_.remote_port[j - 1], j, j);
    }
    return next;
  };
  if (round < 2 + dd) {
    const runtime::Round add = next_step(2, false);
    if (add < 2 + dd) return add;
  }
  return next_step(2 + dd, true);
}

void OddRegularProgram::send(runtime::Round round,
                             std::span<runtime::Message> out) {
  const auto step = step_for(round);
  active_port_ = 0;
  if (round == 1) {
    for (port::Port i = 1; i <= view_.degree; ++i) {
      out[i - 1] = runtime::msg(kTagHello, static_cast<std::int32_t>(i),
                                static_cast<std::int32_t>(view_.degree));
    }
    return;
  }
  if (round == 2) {
    // By Lemma 1 every odd-degree node has a distinguishable neighbour.
    EDS_ENSURE(view_.dn_port != 0,
               "odd-degree node without distinguishable neighbour");
    out[view_.dn_port - 1] = runtime::msg(kTagDnClaim);
    return;
  }

  if (step.phase == Step::Phase::kAdd) {
    active_port_ = view_.mij_active_port(step.i, step.j);
    if (active_port_ != 0) {
      out[active_port_ - 1] = runtime::msg(kTagStatus, covered_ ? 1 : 0);
    }
    return;
  }

  if (step.phase == Step::Phase::kRemove) {
    const auto candidate = view_.mij_active_port(step.i, step.j);
    if (candidate != 0 && d_ports_.count(candidate) > 0) {
      active_port_ = candidate;
      // Covered by D \ {e} iff I have another incident D edge.
      const bool covered_without = d_ports_.size() >= 2;
      out[active_port_ - 1] = runtime::msg(kTagStatus, covered_without ? 1 : 0);
    }
    return;
  }
}

void OddRegularProgram::receive(runtime::Round round,
                                std::span<const runtime::Message> in) {
  const auto step = step_for(round);
  if (round == 1) {
    for (port::Port i = 1; i <= view_.degree; ++i) {
      view_.record_hello(i, in[i - 1]);
    }
    view_.compute_dn();
    return;
  }
  if (round == 2) {
    for (port::Port i = 1; i <= view_.degree; ++i) {
      view_.record_claim(i, in[i - 1]);
    }
    return;
  }

  if (step.phase == Step::Phase::kAdd && active_port_ != 0) {
    const auto& their = in[active_port_ - 1];
    EDS_ENSURE(their.tag == kTagStatus,
               "phase I: expected a status message from the partner");
    const bool their_covered = their.arg[0] != 0;
    // "If both endpoints of e are already covered by D, we ignore e,
    //  otherwise we add e to D."
    if (!(covered_ && their_covered)) {
      d_ports_.insert(active_port_);
      covered_ = true;
    }
  }

  if (step.phase == Step::Phase::kRemove && active_port_ != 0) {
    const auto& their = in[active_port_ - 1];
    EDS_ENSURE(their.tag == kTagStatus,
               "phase II: expected a status message from the partner");
    const bool mine = d_ports_.size() >= 2;
    const bool theirs = their.arg[0] != 0;
    // "If both endpoints of e are covered by D \ {e}, remove e from D."
    if (mine && theirs) {
      d_ports_.erase(active_port_);
    }
  }

  if (round >= schedule_length(d_)) halted_ = true;
}

void OddRegularProgram::output(runtime::OutputSink& out) const {
  for (const port::Port p : d_ports_) out.select(p);
}

}  // namespace eds::algo
