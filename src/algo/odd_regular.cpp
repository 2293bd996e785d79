#include "algo/odd_regular.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/stage.hpp"
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

std::pair<port::Port, port::Port> pair_at(port::Port d, PairOrder order,
                                          std::size_t k) {
  const std::size_t dd = d;
  const auto lex = [dd](std::size_t index) {
    return std::pair(static_cast<port::Port>(index / dd + 1),
                     static_cast<port::Port>(index % dd + 1));
  };
  switch (order) {
    case PairOrder::kLexicographic:
      return lex(k);
    case PairOrder::kReverse:
      return lex(dd * dd - 1 - k);
    case PairOrder::kDiagonal: {
      // (i, j) -> (d + 1 − i, d + 1 − j) reverses the order, so the pairs
      // past the middle anti-diagonal mirror those before it.
      if (k >= dd * (dd + 1) / 2) {
        const auto [i, j] = pair_at(d, order, dd * dd - 1 - k);
        return {d + 1 - i, d + 1 - j};
      }
      // Up to the middle, anti-diagonal i + j = s + 1 holds the s pairs
      // from index s(s − 1)/2 on, in increasing i.
      auto s = static_cast<std::size_t>(
          (std::sqrt(8.0 * static_cast<double>(k) + 1.0) + 1.0) / 2.0);
      while (s * (s - 1) / 2 > k) --s;
      while (s * (s + 1) / 2 <= k) ++s;
      const auto i = static_cast<port::Port>(k - s * (s - 1) / 2 + 1);
      return {i, static_cast<port::Port>(s + 1 - i)};
    }
  }
  return lex(k);
}

OddRegularProgram::OddRegularProgram(port::Port d, PairOrder order,
                                     std::pmr::memory_resource* memory)
    : d_(d), order_(order), view_(memory) {
  if (d_ % 2 == 0) {
    throw InvalidArgument("OddRegularProgram: d must be odd");
  }
  check_schedule("OddRegularProgram: d", d_, schedule_length(d_));
}

void OddRegularProgram::start(port::Port degree) {
  if (degree != d_) {
    throw ExecutionError(
        "OddRegularProgram: node degree differs from the family parameter d");
  }
  view_.start(degree);
}

OddRegularProgram::Step OddRegularProgram::step_for(
    runtime::Round round) const {
  const auto d = static_cast<runtime::Round>(d_);
  if (round <= 2) return {Step::Phase::kSetup, 0, 0};
  if (round <= 2 + d * d) {
    const auto [i, j] = pair_at(d_, order_, round - 3);  // 0-based step
    return {Step::Phase::kAdd, i, j};
  }
  if (round <= 2 + 2 * d * d) {
    const auto [i, j] = pair_at(d_, order_, round - 3 - d * d);
    return {Step::Phase::kRemove, i, j};
  }
  return {Step::Phase::kDone, 0, 0};
}

runtime::Round OddRegularProgram::next_wake(runtime::Round round) const {
  if (round < 2) return round + 1;  // the claims are not in yet
  const auto dd = static_cast<runtime::Round>(d_) * d_;
  // Step k of a phase is round 3 + k (add) or 3 + d² + k (remove); the
  // dispatch one round earlier sends into it.  Every add step comes
  // before every remove step, so the remove steps (those still in D)
  // matter only once no add step is left.
  const auto next_step = [&](runtime::Round base, bool in_d_only) {
    runtime::Round next = halt_round();
    const auto consider = [&](port::Port i, port::Port j, port::Port mine) {
      const auto sends = base + static_cast<runtime::Round>(
                                    pair_position(d_, order_, i, j));
      if (sends > round && sends < next && (!in_d_only || in_d(mine))) {
        next = sends;
      }
    };
    const auto ports = view_.ports();
    if (const port::Port dn = view_.dn_port(); dn != 0) {
      consider(dn, ports[dn - 1].remote_port, dn);
    }
    for (port::Port j = 1; j <= ports.size(); ++j) {
      if ((ports[j - 1].flags & kFlagDnClaimed) != 0) {
        consider(ports[j - 1].remote_port, j, j);
      }
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
    for (port::Port i = 1; i <= view_.degree(); ++i) {
      out[i - 1] = runtime::msg(kTagHello, static_cast<std::int32_t>(i),
                                static_cast<std::int32_t>(view_.degree()));
    }
    return;
  }
  if (round == 2) {
    // By Lemma 1 every odd-degree node has a distinguishable neighbour.
    EDS_ENSURE(view_.dn_port() != 0,
               "odd-degree node without distinguishable neighbour");
    out[view_.dn_port() - 1] = runtime::msg(kTagDnClaim);
    return;
  }

  if (step.phase == Step::Phase::kAdd) {
    active_port_ = view_.mij_active_port(step.i, step.j);
    if (active_port_ != 0) {
      out[active_port_ - 1] = runtime::msg(kTagStatus, d_count_ > 0 ? 1 : 0);
    }
    return;
  }

  if (step.phase == Step::Phase::kRemove) {
    const auto candidate = view_.mij_active_port(step.i, step.j);
    if (candidate != 0 && in_d(candidate)) {
      active_port_ = candidate;
      // Covered by D \ {e} iff I have another incident D edge.
      const bool covered_without = d_count_ >= 2;
      out[active_port_ - 1] = runtime::msg(kTagStatus, covered_without ? 1 : 0);
    }
    return;
  }
}

void OddRegularProgram::receive(runtime::Round round,
                                std::span<const runtime::Message> in) {
  const auto dd = static_cast<runtime::Round>(d_) * d_;
  if (round == 1) {
    for (port::Port i = 1; i <= view_.degree(); ++i) {
      view_.record_hello(i, in[i - 1]);
    }
    view_.compute_dn();
  } else if (round == 2) {
    for (port::Port i = 1; i <= view_.degree(); ++i) {
      view_.record_claim(i, in[i - 1]);
    }
  } else if (active_port_ != 0 && round <= 2 + dd) {
    const auto& their = in[active_port_ - 1];
    EDS_ENSURE(their.tag == kTagStatus,
               "phase I: expected a status message from the partner");
    const bool their_covered = their.arg[0] != 0;
    // "If both endpoints of e are already covered by D, we ignore e,
    //  otherwise we add e to D."  An edge whose endpoints claimed each
    // other comes up in two steps, so it may be added twice.
    auto& flags = view_.ports()[active_port_ - 1].flags;
    if (!(d_count_ > 0 && their_covered) && (flags & kFlagInD) == 0) {
      flags |= kFlagInD;
      ++d_count_;
      wake_ = 0;  // a wake-up past phase I was chosen without this edge
    }
  } else if (active_port_ != 0) {
    const auto& their = in[active_port_ - 1];
    EDS_ENSURE(their.tag == kTagStatus,
               "phase II: expected a status message from the partner");
    const bool mine = d_count_ >= 2;
    const bool theirs = their.arg[0] != 0;
    // "If both endpoints of e are covered by D \ {e}, remove e from D."
    if (mine && theirs) {
      view_.ports()[active_port_ - 1].flags &= ~kFlagInD;
      --d_count_;
      wake_ = 0;  // a later step of this edge is no wake-up any more
    }
  }

  // The halt round is my last wake-up, so a dispatch before wake_ neither
  // halts nor moves it.
  if (round < wake_) return;
  if (round < halt_round()) {
    wake_ = next_wake(round);
  } else {
    halted_ = true;
  }
}

void OddRegularProgram::output(runtime::OutputSink& out) const {
  for (port::Port p = 1; p <= view_.degree(); ++p) {
    if (in_d(p)) out.select(p);
  }
}

runtime::RunResult OddRegularFactory::run(
    const port::PortGraph& g, const runtime::RunOptions& options,
    ThreadPool& pool) const {
  runtime::ProgramArena arena(g.num_nodes());
  return runtime::run_block(
      g,
      arena.emplace_block<OddRegularProgram>(g.num_nodes(), d_, order_,
                                             arena.resource()),
      options, name(), pool);
}

}  // namespace eds::algo
