#include "src/text/ticket_text.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/text/vocabulary.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace fa::text {
namespace {

bool contains_any(const std::string& text,
                  std::span<const std::string_view> pool) {
  for (std::string_view w : pool) {
    if (text.find(w) != std::string::npos) return true;
  }
  return false;
}

TEST(TicketText, CrashDescriptionAlwaysCarriesSymptom) {
  Rng rng(1);
  TextStyleOptions options;
  for (int i = 0; i < 50; ++i) {
    const auto t = generate_crash_text(trace::FailureClass::kHardware,
                                       options, rng);
    EXPECT_TRUE(contains_any(to_lower(t.description), crash_symptoms()))
        << t.description;
  }
}

TEST(TicketText, ClearTicketsCarryClassSignature) {
  Rng rng(2);
  TextStyleOptions options;
  options.confusion_probability = 0.0;
  for (trace::FailureClass c : trace::kClassifiedFailureClasses) {
    const auto t = generate_crash_text(c, options, rng);
    const std::string all = to_lower(t.description + " " + t.resolution);
    EXPECT_TRUE(contains_any(all, signature_words(c)))
        << to_string(c) << ": " << all;
  }
}

TEST(TicketText, OtherTicketsAvoidRealClassResolutions) {
  Rng rng(3);
  TextStyleOptions options;
  for (int i = 0; i < 50; ++i) {
    const auto t =
        generate_crash_text(trace::FailureClass::kOther, options, rng);
    // "other" resolutions come from the vague pool only.
    EXPECT_TRUE(contains_any(to_lower(t.resolution),
                             resolution_phrases(trace::FailureClass::kOther)))
        << t.resolution;
  }
}

TEST(TicketText, ConfusionInjectsForeignWords) {
  Rng rng(4);
  TextStyleOptions always;
  always.confusion_probability = 1.0;
  int foreign = 0;
  for (int i = 0; i < 50; ++i) {
    const auto t =
        generate_crash_text(trace::FailureClass::kPower, always, rng);
    const std::string all = to_lower(t.description + " " + t.resolution);
    for (trace::FailureClass c : trace::kClassifiedFailureClasses) {
      if (c == trace::FailureClass::kPower) continue;
      if (contains_any(all, signature_words(c))) {
        ++foreign;
        break;
      }
    }
  }
  EXPECT_GT(foreign, 40);  // nearly every ticket gets a confusing word
}

TEST(TicketText, BackgroundTextIsNonCrash) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto t = generate_background_text(rng);
    EXPECT_FALSE(contains_any(to_lower(t.description), crash_symptoms()))
        << t.description;
    EXPECT_FALSE(t.description.empty());
    EXPECT_FALSE(t.resolution.empty());
  }
}

TEST(TicketText, RejectsDegenerateOptions) {
  Rng rng(6);
  TextStyleOptions bad;
  bad.signature_words = 0;
  EXPECT_THROW(
      generate_crash_text(trace::FailureClass::kHardware, bad, rng),
      Error);
}

// The into-buffer generators render into strings that held longer text
// before (as reused ticket slots do): they must produce the strings the
// value-returning forms return, with the same draws.
TEST(TicketText, IntoBufferRenderingMatchesReturnedText) {
  const std::string stale(300, 'x');
  TextStyleOptions options;
  options.confusion_probability = 0.5;  // both confusion branches
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const trace::FailureClass cls =
        trace::kAllFailureClasses[seed % trace::kAllFailureClasses.size()];
    Rng a(seed), b(seed);
    const TicketText crash = generate_crash_text(cls, options, a);
    std::string description = stale, resolution = stale;
    generate_crash_text(cls, options, b, description, resolution);
    EXPECT_EQ(description, crash.description) << "seed " << seed;
    EXPECT_EQ(resolution, crash.resolution) << "seed " << seed;

    const TicketText background = generate_background_text(a);
    description = stale;
    resolution = stale;
    generate_background_text(b, description, resolution);
    EXPECT_EQ(description, background.description) << "seed " << seed;
    EXPECT_EQ(resolution, background.resolution) << "seed " << seed;

    // Same state afterwards, the cached normal half included.
    EXPECT_EQ(a.normal(), b.normal()) << "seed " << seed;
    EXPECT_EQ(a.normal(), b.normal()) << "seed " << seed;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "seed " << seed;
  }
}

TEST(Vocabulary, AllClassesHaveDistinctSignatureWords) {
  for (trace::FailureClass a : trace::kAllFailureClasses) {
    EXPECT_FALSE(signature_words(a).empty());
    EXPECT_FALSE(resolution_phrases(a).empty());
  }
  // Signature pools of different real classes must not overlap (the
  // deliberate cross-class noise comes from the confusion knob instead).
  for (trace::FailureClass a : trace::kClassifiedFailureClasses) {
    for (trace::FailureClass b : trace::kClassifiedFailureClasses) {
      if (a == b) continue;
      for (std::string_view w : signature_words(a)) {
        for (std::string_view w2 : signature_words(b)) {
          EXPECT_NE(w, w2) << "overlap between " << to_string(a) << " and "
                           << to_string(b);
        }
      }
    }
  }
}

}  // namespace
}  // namespace fa::text
