// Small string helpers shared by the CSV layer, ticket-text processing and
// report formatting.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace fa {

std::vector<std::string> split(std::string_view s, char delim);
std::string join(const std::vector<std::string>& parts, std::string_view sep);
// ASCII lowercasing: maps A-Z and leaves every other byte as it is, which
// is what std::tolower does in the "C" locale the program runs in.
std::string to_lower(std::string_view s);
// Lowercases `s` into `out`, reusing out's capacity — for hot loops that
// would otherwise allocate a fresh string per item.
void to_lower_into(std::string_view s, std::string& out);
std::string trim(std::string_view s);
bool starts_with(std::string_view s, std::string_view prefix);

// Tokenize free text into lowercase alphanumeric words (ticket descriptions).
// A word is a maximal run of ASCII letters and digits; every other byte
// separates words.
std::vector<std::string> tokenize_words(std::string_view text);
// tokenize_words without a string per word: lowercases `text` into
// `lowered` and sets `words` to views of its words, both reusing their
// capacity. The views are valid until `lowered` changes.
void tokenize_words_into(std::string_view text, std::string& lowered,
                         std::vector<std::string_view>& words);

// Fixed-precision decimal rendering for report tables ("0.0062").
std::string format_double(double v, int precision);

}  // namespace fa
