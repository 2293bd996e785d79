#include "util/text.hpp"

namespace eds {

std::vector<std::string_view> split_fields(std::string_view text,
                                           char separator) {
  std::vector<std::string_view> fields;
  for (std::size_t start = 0;;) {
    const std::size_t stop = text.find(separator, start);
    fields.push_back(text.substr(start, stop - start));
    if (stop == std::string_view::npos) return fields;
    start = stop + 1;
  }
}

void tokenize_line(std::string_view line,
                   std::vector<std::string_view>& tokens) {
  tokens.clear();
  line = line.substr(0, line.find('#'));
  constexpr std::string_view kSeparators = " \t\r";
  for (std::size_t start = line.find_first_not_of(kSeparators);
       start != std::string_view::npos;
       start = line.find_first_not_of(kSeparators, start)) {
    const std::size_t stop = line.find_first_of(kSeparators, start);
    tokens.push_back(line.substr(start, stop - start));
    start = stop;
  }
}

}  // namespace eds
