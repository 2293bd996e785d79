// The one strict reader behind every text decoder.
//
// Edge lists (graph/io), port graphs (port/io), replay files and delay
// specs (runtime/fault) and the CLI's numbers all parse by the rules here
// (README, "Text formats"):
//  * a line is cut into tokens at spaces, tabs and '\r'; '#' starts a
//    comment that runs to the end of the line; a line without tokens is
//    skipped;
//  * a record is one line, and it holds exactly the tokens its kind takes;
//  * a number is all decimal digits (no sign, space or base prefix) and
//    fits its field's type and cap.
// Each decoder keeps its own error contract, so everything that throws is
// templated on the exception type.
#pragma once

#include <charconv>
#include <cstddef>
#include <istream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace eds {

/// The most nodes a graph read from text may declare (2^24).
inline constexpr std::size_t kMaxTextNodes = std::size_t{1} << 24;

/// The most ports (the sum of degrees; twice the edges of a simple graph)
/// a graph read from text may declare (2^26).
inline constexpr std::size_t kMaxTextPorts = std::size_t{1} << 26;

/// `text` as an unsigned integer of type T no larger than `max`, or an E
/// naming `what` (a field such as "--repeat" or "node count"): all digits,
/// no sign or space.
template <typename T, typename E>
[[nodiscard]] T parse_uint(std::string_view text, std::string_view what,
                           T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc() && value > max)) {
    throw E(std::string(what) + " " + std::string(text) +
            " is out of range (max " + std::to_string(max) + ")");
  }
  if (ec != std::errc() || stop != end) {
    throw E(std::string(what) + " needs a non-negative integer, got '" +
            std::string(text) + "'");
  }
  return value;
}

/// `text` as one decimal number in [0, 1] (NaN and infinities are not),
/// or an E naming `what`.
template <typename E>
[[nodiscard]] double parse_probability(std::string_view text,
                                       std::string_view what) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !(value >= 0.0 && value <= 1.0)) {
    throw E(std::string(what) + " needs a number in [0, 1], got '" +
            std::string(text) + "'");
  }
  return value;
}

/// The fields of `text` between `separator`s, empty ones included:
/// "a::b" has three.
[[nodiscard]] std::vector<std::string_view> split_fields(std::string_view text,
                                                         char separator);

/// Replaces `tokens` with the tokens of `line`, per the rules above.
void tokenize_line(std::string_view line,
                   std::vector<std::string_view>& tokens);

/// Reads an input one record at a time.  Errors are thrown as E, prefixed
/// with the decoder's name (a string literal) and the record's line number.
template <typename E>
class LineReader {
 public:
  LineReader(std::istream& in, std::string_view name) : in_(in), name_(name) {}

  /// Moves to the next line that holds a token; false at the end of the
  /// input.  The tokens stay valid until the next call.
  [[nodiscard]] bool next() {
    while (std::getline(in_, line_)) {
      ++line_number_;
      tokenize_line(line_, tokens_);
      if (!tokens_.empty()) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept { return tokens_.size(); }
  [[nodiscard]] std::string_view operator[](std::size_t k) const {
    return tokens_.at(k);
  }

  /// Throws unless the record holds exactly `count` tokens.
  void expect_size(std::size_t count, std::string_view record) const {
    if (tokens_.size() != count) {
      fail(std::string(record) + " has " + std::to_string(tokens_.size()) +
           " tokens, expected " + std::to_string(count));
    }
  }

  /// Token `k` as an unsigned integer of type T no larger than `max`.
  template <typename T>
  [[nodiscard]] T number(std::size_t k, std::string_view field,
                         T max = std::numeric_limits<T>::max()) const {
    try {
      return parse_uint<T, E>((*this)[k], field, max);
    } catch (const E& e) {
      fail(e.what());
    }
  }

  /// Token `k` as a probability.
  [[nodiscard]] double probability(std::size_t k,
                                   std::string_view field) const {
    try {
      return parse_probability<E>((*this)[k], field);
    } catch (const E& e) {
      fail(e.what());
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw E(std::string(name_) + ": line " + std::to_string(line_number_) +
            ": " + why);
  }

 private:
  std::istream& in_;
  std::string_view name_;
  std::string line_;
  std::vector<std::string_view> tokens_;
  std::size_t line_number_ = 0;
};

}  // namespace eds
