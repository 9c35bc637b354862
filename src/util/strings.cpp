#include "src/util/strings.h"

#include <cctype>
#include <cstdio>

namespace fa {
namespace {

char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

// Letters and digits of already-lowered text.
bool is_lower_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
}

}  // namespace

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out;
  to_lower_into(s, out);
  return out;
}

void to_lower_into(std::string_view s, std::string& out) {
  out.resize(s.size());
  // Through a local pointer: a char store via out[i] could alias out's own
  // members, which would keep the compiler from vectorizing the loop.
  char* dst = out.data();
  for (std::size_t i = 0; i < s.size(); ++i) dst[i] = ascii_lower(s[i]);
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::vector<std::string> tokenize_words(std::string_view text) {
  std::string lowered;
  std::vector<std::string_view> words;
  tokenize_words_into(text, lowered, words);
  return {words.begin(), words.end()};
}

void tokenize_words_into(std::string_view text, std::string& lowered,
                         std::vector<std::string_view>& words) {
  to_lower_into(text, lowered);
  words.clear();
  const std::string_view s = lowered;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && !is_lower_alnum(s[i])) ++i;
    const std::size_t begin = i;
    while (i < s.size() && is_lower_alnum(s[i])) ++i;
    if (i > begin) words.push_back(s.substr(begin, i - begin));
  }
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace fa
