// A set of edges of a fixed SimpleGraph, keyed by edge id.
//
// EdgeSet is the common currency for solutions: algorithm outputs, matchings,
// edge covers and edge dominating sets are all EdgeSets over the same graph.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/simple_graph.hpp"

namespace eds::graph {

/// A subset of the edges of a graph with m edges, with O(1) membership and
/// O(m / 64) iteration: one bit per edge id, packed 64 to a word (edge e is
/// bit e % 64 of word e / 64).  Bits at or beyond the universe size are
/// always zero, so equal sets have equal words.  Cheap to copy for
/// laptop-scale graphs.
class EdgeSet {
 public:
  EdgeSet() = default;

  /// Empty set over a universe of `num_edges` edge ids.
  explicit EdgeSet(std::size_t num_edges)
      : words_(word_count(num_edges), 0), universe_(num_edges) {}

  /// Set containing exactly `edges` over a universe of `num_edges` ids.
  EdgeSet(std::size_t num_edges, const std::vector<EdgeId>& edges);

  /// The set whose members are the one bits of `words` (edge e is bit
  /// e % 64 of words[e / 64]).  Throws InvalidArgument unless there are
  /// exactly ceil(num_edges / 64) words and every bit at or beyond
  /// `num_edges` is zero.
  [[nodiscard]] static EdgeSet from_words(std::size_t num_edges,
                                          std::vector<std::uint64_t> words);

  /// Number of words of a universe of `num_edges` edge ids.
  [[nodiscard]] static constexpr std::size_t word_count(
      std::size_t num_edges) noexcept {
    return (num_edges + 63) / 64;
  }

  [[nodiscard]] std::size_t universe_size() const noexcept {
    return universe_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Membership; throws std::out_of_range for an id outside the universe.
  [[nodiscard]] bool contains(EdgeId e) const {
    check_range(e);
    return ((words_[e / 64] >> (e % 64)) & 1U) != 0;
  }

  /// Inserts `e`; returns true if it was not already present.  Throws
  /// std::out_of_range for an id outside the universe.
  bool insert(EdgeId e);

  /// Removes `e`; returns true if it was present.  Throws std::out_of_range
  /// for an id outside the universe.
  bool erase(EdgeId e);

  /// The packed membership words (see the class comment).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Calls fn(e) for every member edge id e, in increasing order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<EdgeId>(w * 64 + std::countr_zero(bits)));
      }
    }
  }

  /// All member edge ids in increasing order.
  [[nodiscard]] std::vector<EdgeId> to_vector() const;

  /// Set union / intersection / difference (universes must match).
  [[nodiscard]] EdgeSet set_union(const EdgeSet& rhs) const;
  [[nodiscard]] EdgeSet set_intersection(const EdgeSet& rhs) const;
  [[nodiscard]] EdgeSet set_difference(const EdgeSet& rhs) const;

  [[nodiscard]] bool operator==(const EdgeSet& rhs) const = default;

 private:
  void check_range(EdgeId e) const {
    if (e >= universe_) throw_out_of_range(e);
  }
  [[noreturn]] void throw_out_of_range(EdgeId e) const;
  void check_same_universe(const EdgeSet& rhs) const;
  /// Recounts count_ from the words.
  void recount() noexcept;

  std::vector<std::uint64_t> words_;
  std::size_t universe_ = 0;
  std::size_t count_ = 0;
};

/// Number of member edges incident to `v` in `g`.
[[nodiscard]] std::size_t degree_in_set(const SimpleGraph& g, const EdgeSet& s,
                                        NodeId v);

/// True when some member edge covers `v` (i.e. is incident to it).
[[nodiscard]] bool covers_node(const SimpleGraph& g, const EdgeSet& s,
                               NodeId v);

}  // namespace eds::graph
