#include "src/text/ticket_text.h"

#include <span>
#include <string_view>

#include "src/text/vocabulary.h"
#include "src/util/error.h"

namespace fa::text {
namespace {

std::string_view pick(std::span<const std::string_view> pool, Rng& rng) {
  return pool[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

void append_word(std::string& s, std::string_view word) {
  if (!s.empty()) s += ' ';
  s += word;
}

trace::FailureClass random_real_class(Rng& rng) {
  const auto& classes = trace::kClassifiedFailureClasses;
  return classes[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(classes.size()) - 1))];
}

}  // namespace

void generate_crash_text(trace::FailureClass recorded,
                         const TextStyleOptions& options, Rng& rng,
                         std::string& description, std::string& resolution) {
  require(options.signature_words >= 1,
          "generate_crash_text: need at least one signature word");
  const auto sig_pool = signature_words(recorded);

  // Description: crash symptom plus hint words.
  description.assign(pick(crash_symptoms(), rng));
  for (int i = 0; i < (options.signature_words + 1) / 2; ++i) {
    append_word(description, pick(sig_pool, rng));
  }
  for (int i = 0; i < options.generic_words / 2; ++i) {
    append_word(description, pick(generic_words(), rng));
  }

  // Resolution: what the support group did.
  resolution.assign(pick(resolution_phrases(recorded), rng));
  for (int i = 0; i < options.signature_words / 2; ++i) {
    append_word(resolution, pick(sig_pool, rng));
  }
  for (int i = 0; i < (options.generic_words + 1) / 2; ++i) {
    append_word(resolution, pick(generic_words(), rng));
  }

  // Cross-class confusion: some tickets describe a secondary symptom chain
  // ("disk errors after the unexpected reboot") with as many foreign
  // signature words as native ones, making them genuinely ambiguous and
  // bounding classifier accuracy near the paper's 87%.
  if (recorded != trace::FailureClass::kOther &&
      rng.bernoulli(options.confusion_probability)) {
    trace::FailureClass confusing = random_real_class(rng);
    while (confusing == recorded) confusing = random_real_class(rng);
    const auto confusing_pool = signature_words(confusing);
    for (int i = 0; i < (options.signature_words + 1) / 2; ++i) {
      append_word(description, pick(confusing_pool, rng));
    }
    for (int i = 0; i < options.signature_words / 2; ++i) {
      append_word(resolution, pick(confusing_pool, rng));
    }
  }
}

TicketText generate_crash_text(trace::FailureClass recorded,
                               const TextStyleOptions& options, Rng& rng) {
  TicketText text;
  generate_crash_text(recorded, options, rng, text.description,
                      text.resolution);
  return text;
}

void generate_background_text(Rng& rng, std::string& description,
                              std::string& resolution) {
  description.assign(pick(background_phrases(), rng));
  for (int i = 0; i < 3; ++i) {
    append_word(description, pick(generic_words(), rng));
  }
  resolution.assign(pick(resolution_phrases(trace::FailureClass::kOther), rng));
  append_word(resolution, pick(generic_words(), rng));
}

TicketText generate_background_text(Rng& rng) {
  TicketText text;
  generate_background_text(rng, text.description, text.resolution);
  return text;
}

}  // namespace fa::text
