#include "idmodel/forest_matching.hpp"

#include <algorithm>
#include <bit>

#include "runtime/outputs.hpp"
#include "util/error.hpp"

namespace eds::idmodel {

namespace {

using port::Port;
using runtime::Message;
using runtime::Round;

enum Tag : std::int32_t {
  kTagId = 1,
  kTagClass = 2,
  kTagColor = 3,
  kTagPropose = 4,
  kTagAccept = 5,
  kTagReject = 6,
};

constexpr Round kSlotRounds = 16;  // 8 colours x (propose + respond)

/// One node of the pseudoforest maximal-matching algorithm.
class ForestMatchingProgram final : public runtime::NodeProgram {
 public:
  ForestMatchingProgram(std::uint32_t id, std::uint32_t id_bits,
                        Port max_degree)
      : id_(id), id_bits_(id_bits), delta_(max_degree) {
    if (id_bits_ < 1 || id_bits_ > 31) {
      throw InvalidArgument("ForestMatchingProgram: id_bits must be 1..31");
    }
    if (id_ >> id_bits_ != 0) {
      throw InvalidArgument("ForestMatchingProgram: id exceeds the id space");
    }
  }

  void start(Port degree) override {
    if (degree > delta_) {
      throw ExecutionError(
          "ForestMatchingProgram: node degree exceeds the family parameter");
    }
    degree_ = degree;
    remote_id_.assign(degree_, 0);
    child_class_.assign(degree_, 0);
    cv_iters_ = cv_iterations(id_bits_);
    if (degree_ == 0) halted_ = true;
  }

  void send(Round round, std::span<Message> out) override;
  void receive(Round round, std::span<const Message> in) override;

  [[nodiscard]] bool halted() const override { return halted_; }
  void output(runtime::OutputSink& out) const override {
    if (matched_port_ != 0) out.select(matched_port_);
  }

 private:
  struct Step {
    enum class Kind { kId, kClass, kColour, kPropose, kRespond };
    Kind kind = Kind::kId;
    Port klass = 0;    // 1-based class index for per-class steps
    std::int32_t colour_slot = 0;  // 0..7 within the matching slots
  };
  [[nodiscard]] Step step_for(Round round) const {
    if (round == 1) return {Step::Kind::kId, 0, 0};
    if (round == 2) return {Step::Kind::kClass, 0, 0};
    const Round block_len = cv_iters_ + kSlotRounds;
    const Round r = round - 3;  // 0-based within the class blocks
    const auto klass = static_cast<Port>(r / block_len + 1);
    const Round within = r % block_len;
    if (within < cv_iters_) return {Step::Kind::kColour, klass, 0};
    const Round slot = within - cv_iters_;
    return {slot % 2 == 0 ? Step::Kind::kPropose : Step::Kind::kRespond,
            klass, static_cast<std::int32_t>(slot / 2)};
  }

  /// My parent port in class c (the c-th outgoing port), or 0.
  [[nodiscard]] Port parent_port(Port klass) const {
    return klass <= out_ports_.size() ? out_ports_[klass - 1] : 0;
  }

  void begin_class(Port klass) {
    current_class_ = klass;
    colour_ = static_cast<std::int32_t>(id_);
  }

  std::uint32_t id_;
  std::uint32_t id_bits_;
  Port delta_;
  Port degree_ = 0;
  Round cv_iters_ = 0;

  std::vector<std::uint32_t> remote_id_;
  std::vector<Port> out_ports_;        // my outgoing ports, ascending
  std::vector<Port> child_class_;      // incoming port -> class (0 = none)

  Port current_class_ = 0;
  std::int32_t colour_ = 0;
  Port matched_port_ = 0;
  bool proposed_ = false;
  std::vector<Port> proposals_in_;
  bool halted_ = false;
};

void ForestMatchingProgram::send(Round round, std::span<Message> out) {
  const auto step = step_for(round);
  switch (step.kind) {
    case Step::Kind::kId:
      for (Port p = 1; p <= degree_; ++p) {
        out[p - 1] = runtime::msg(kTagId, static_cast<std::int32_t>(id_));
      }
      return;

    case Step::Kind::kClass:
      for (std::size_t c = 0; c < out_ports_.size(); ++c) {
        out[out_ports_[c] - 1] =
            runtime::msg(kTagClass, static_cast<std::int32_t>(c + 1));
      }
      return;

    case Step::Kind::kColour:
      if (step.klass != current_class_) begin_class(step.klass);
      for (Port p = 1; p <= degree_; ++p) {
        out[p - 1] = runtime::msg(kTagColor, colour_);
      }
      return;

    case Step::Kind::kPropose: {
      // With a tiny id space cv_iterations can be 0: ids are then already
      // valid colours and the colour rounds are skipped entirely.
      if (step.klass != current_class_) begin_class(step.klass);
      EDS_ENSURE(colour_ >= 0 && colour_ < 8,
                 "colour reduction did not reach < 8 colours");
      proposed_ = false;
      const auto parent = parent_port(step.klass);
      if (parent != 0 && matched_port_ == 0 && colour_ == step.colour_slot) {
        out[parent - 1] = runtime::msg(kTagPropose);
        proposed_ = true;
      }
      return;
    }

    case Step::Kind::kRespond: {
      for (const Port p : proposals_in_) {
        out[p - 1] = runtime::msg(kTagReject);
      }
      if (matched_port_ == 0 && !proposals_in_.empty()) {
        const Port chosen = proposals_in_.front();  // ascending: min port
        out[chosen - 1] = runtime::msg(kTagAccept);
        matched_port_ = chosen;
      }
      return;
    }
  }
}

void ForestMatchingProgram::receive(Round round,
                                    std::span<const Message> in) {
  const auto step = step_for(round);
  switch (step.kind) {
    case Step::Kind::kId:
      for (Port p = 1; p <= degree_; ++p) {
        EDS_ENSURE(in[p - 1].tag == kTagId, "expected an id broadcast");
        remote_id_[p - 1] = static_cast<std::uint32_t>(in[p - 1].arg[0]);
        EDS_ENSURE(remote_id_[p - 1] != id_, "ids must be unique");
      }
      for (Port p = 1; p <= degree_; ++p) {
        if (remote_id_[p - 1] > id_) out_ports_.push_back(p);
      }
      EDS_ENSURE(out_ports_.size() <= delta_, "out-degree exceeds delta");
      break;

    case Step::Kind::kClass:
      for (Port p = 1; p <= degree_; ++p) {
        if (in[p - 1].tag == kTagClass) {
          child_class_[p - 1] = static_cast<Port>(in[p - 1].arg[0]);
        }
      }
      break;

    case Step::Kind::kColour: {
      // Cole–Vishkin step against my class parent; roots reduce against the
      // complement of their own colour (bit 0 always differs).
      const auto parent = parent_port(step.klass);
      const std::int32_t parent_colour =
          parent == 0 ? ~colour_ : in[parent - 1].arg[0];
      EDS_ENSURE(parent == 0 || in[parent - 1].tag == kTagColor,
                 "expected a colour broadcast from the parent");
      const std::uint32_t diff = static_cast<std::uint32_t>(colour_) ^
                                 static_cast<std::uint32_t>(parent_colour);
      EDS_ENSURE(diff != 0, "proper colouring lost during Cole-Vishkin");
      const int i = std::countr_zero(diff);
      const std::int32_t bit = (colour_ >> i) & 1;
      colour_ = static_cast<std::int32_t>(2 * i + bit);
      break;
    }

    case Step::Kind::kPropose:
      proposals_in_.clear();
      for (Port p = 1; p <= degree_; ++p) {
        if (in[p - 1].tag == kTagPropose) {
          // Only class-`klass` children propose to me in this block.
          EDS_ENSURE(child_class_[p - 1] == step.klass,
                     "proposal from outside the current class");
          proposals_in_.push_back(p);
        }
      }
      break;

    case Step::Kind::kRespond:
      if (proposed_) {
        const auto parent = parent_port(step.klass);
        const auto& reply = in[parent - 1];
        EDS_ENSURE(reply.tag == kTagAccept || reply.tag == kTagReject,
                   "proposal received no response");
        if (reply.tag == kTagAccept) matched_port_ = parent;
        proposed_ = false;
      }
      break;
  }

  if (round >= forest_matching_schedule(delta_, id_bits_)) halted_ = true;
}

}  // namespace

Round cv_iterations(std::uint32_t id_bits) {
  // Colour-count recurrence: b-bit colours become (2b - 1)-valued, i.e.
  // bits(2b - 1) bits; iterate until at most 3 bits (colours < 8).
  Round iters = 0;
  std::uint32_t bits = std::max(id_bits, 1u);
  while (bits > 3) {
    const std::uint32_t max_colour = 2 * bits - 1;
    bits = std::bit_width(max_colour);
    ++iters;
    EDS_ENSURE(iters < 64, "cv_iterations failed to converge");
  }
  return iters;
}

Round forest_matching_schedule(Port max_degree, std::uint32_t id_bits) {
  return 2 + max_degree * (cv_iterations(id_bits) + kSlotRounds);
}

IdMatchingOutcome run_forest_matching(const port::PortedGraph& pg,
                                      const std::vector<std::uint32_t>& ids,
                                      std::uint32_t id_bits,
                                      port::Port max_degree) {
  const auto& g = pg.graph();
  if (ids.size() != g.num_nodes()) {
    throw InvalidArgument("run_forest_matching: one id per node required");
  }
  std::vector<std::unique_ptr<runtime::NodeProgram>> programs;
  programs.reserve(ids.size());
  for (const auto id : ids) {
    programs.push_back(
        std::make_unique<ForestMatchingProgram>(id, id_bits, max_degree));
  }
  const auto result = runtime::run_synchronous_programs(
      pg.ports(), std::move(programs), {}, "id-forest-matching");
  IdMatchingOutcome outcome{runtime::validated_edge_set(pg, result),
                            result.stats};
  return outcome;
}

IdMatchingOutcome run_forest_matching(const port::PortedGraph& pg) {
  const auto n = pg.graph().num_nodes();
  std::vector<std::uint32_t> ids(n);
  for (std::size_t v = 0; v < n; ++v) ids[v] = static_cast<std::uint32_t>(v);
  const auto bits = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::bit_width(n == 0 ? 1 : n - 1)));
  const auto delta = static_cast<port::Port>(
      std::max<std::size_t>(pg.graph().max_degree(), 1));
  return run_forest_matching(pg, ids, bits, delta);
}

}  // namespace eds::idmodel
