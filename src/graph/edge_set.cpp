#include "graph/edge_set.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace eds::graph {

EdgeSet::EdgeSet(std::size_t num_edges, const std::vector<EdgeId>& edges)
    : EdgeSet(num_edges) {
  for (EdgeId e : edges) insert(e);
}

EdgeSet EdgeSet::from_words(std::size_t num_edges,
                            std::vector<std::uint64_t> words) {
  if (words.size() != word_count(num_edges)) {
    throw InvalidArgument("EdgeSet::from_words: word count does not match "
                          "the universe");
  }
  if (num_edges % 64 != 0 && (words.back() >> (num_edges % 64)) != 0) {
    throw InvalidArgument("EdgeSet::from_words: a bit beyond the universe "
                          "is set");
  }
  EdgeSet out;
  out.words_ = std::move(words);
  out.universe_ = num_edges;
  out.recount();
  return out;
}

void EdgeSet::throw_out_of_range(EdgeId e) const {
  throw std::out_of_range("EdgeSet: edge id " + std::to_string(e) +
                          " is outside the universe of " +
                          std::to_string(universe_));
}

void EdgeSet::recount() noexcept {
  count_ = 0;
  for (const std::uint64_t word : words_) {
    count_ += static_cast<std::size_t>(std::popcount(word));
  }
}

bool EdgeSet::insert(EdgeId e) {
  check_range(e);
  const std::uint64_t bit = std::uint64_t{1} << (e % 64);
  std::uint64_t& word = words_[e / 64];
  if ((word & bit) != 0) return false;
  word |= bit;
  ++count_;
  return true;
}

bool EdgeSet::erase(EdgeId e) {
  check_range(e);
  const std::uint64_t bit = std::uint64_t{1} << (e % 64);
  std::uint64_t& word = words_[e / 64];
  if ((word & bit) == 0) return false;
  word &= ~bit;
  --count_;
  return true;
}

std::vector<EdgeId> EdgeSet::to_vector() const {
  std::vector<EdgeId> out;
  out.reserve(count_);
  for_each([&out](EdgeId e) { out.push_back(e); });
  return out;
}

void EdgeSet::check_same_universe(const EdgeSet& rhs) const {
  if (universe_size() != rhs.universe_size()) {
    throw InvalidArgument("EdgeSet: mismatched universes");
  }
}

EdgeSet EdgeSet::set_union(const EdgeSet& rhs) const {
  check_same_universe(rhs);
  EdgeSet out = *this;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] |= rhs.words_[w];
  }
  out.recount();
  return out;
}

EdgeSet EdgeSet::set_intersection(const EdgeSet& rhs) const {
  check_same_universe(rhs);
  EdgeSet out = *this;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] &= rhs.words_[w];
  }
  out.recount();
  return out;
}

EdgeSet EdgeSet::set_difference(const EdgeSet& rhs) const {
  check_same_universe(rhs);
  EdgeSet out = *this;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    out.words_[w] &= ~rhs.words_[w];
  }
  out.recount();
  return out;
}

std::size_t degree_in_set(const SimpleGraph& g, const EdgeSet& s, NodeId v) {
  std::size_t deg = 0;
  for (const auto& inc : g.incidences(v)) {
    if (s.contains(inc.edge)) ++deg;
  }
  return deg;
}

bool covers_node(const SimpleGraph& g, const EdgeSet& s, NodeId v) {
  for (const auto& inc : g.incidences(v)) {
    if (s.contains(inc.edge)) return true;
  }
  return false;
}

}  // namespace eds::graph
