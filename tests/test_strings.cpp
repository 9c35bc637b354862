#include "src/util/strings.h"

#include <gtest/gtest.h>

namespace fa {
namespace {

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitEmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ", "), "solo");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("Server UNREACHABLE"), "server unreachable");
  EXPECT_EQ(to_lower("abc123"), "abc123");
  // ASCII only, as in the "C" locale: bytes outside A-Z pass through.
  EXPECT_EQ(to_lower("@[`{ \xC3\x89T\xFF"), "@[`{ \xC3\x89t\xFF");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("nospace"), "nospace");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("hardware fix", "hard"));
  EXPECT_FALSE(starts_with("hw", "hardware"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(Strings, TokenizeWords) {
  const auto tokens = tokenize_words("Replaced faulty DISK, rebooted: host-3");
  const std::vector<std::string> expected = {"replaced", "faulty", "disk",
                                             "rebooted", "host", "3"};
  EXPECT_EQ(tokens, expected);
}

TEST(Strings, TokenizeEmptyAndPunctuationOnly) {
  EXPECT_TRUE(tokenize_words("").empty());
  EXPECT_TRUE(tokenize_words("--- !!! ...").empty());
  // Non-ASCII bytes separate words, as std::isalnum does in the "C" locale.
  EXPECT_EQ(tokenize_words("Caf\xC3\xA9 OK_9"),
            (std::vector<std::string>{"caf", "ok", "9"}));
}

TEST(Strings, TokenizeWordsIntoReusesBuffers) {
  std::string lowered;
  std::vector<std::string_view> words;
  tokenize_words_into("Disk FAILED, disk replaced", lowered, words);
  EXPECT_EQ(words, (std::vector<std::string_view>{"disk", "failed", "disk",
                                                  "replaced"}));
  tokenize_words_into("host-3", lowered, words);
  EXPECT_EQ(lowered, "host-3");
  EXPECT_EQ(words, (std::vector<std::string_view>{"host", "3"}));
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(0.00625, 4), "0.0063");
  EXPECT_EQ(format_double(3.0, 0), "3");
  EXPECT_EQ(format_double(-1.5, 2), "-1.50");
}

}  // namespace
}  // namespace fa
