// Synthesizes the free-text description/resolution fields of tickets.
//
// The ticketing layer of the simulator decides whether a crash ticket is
// written clearly enough to be attributable (recorded class = root cause) or
// too vaguely (recorded class = kOther, like the 53% of the paper's tickets).
// This module renders text for the *recorded* class: kOther yields vague,
// generic text; real classes yield signature-word-rich text with a tunable
// amount of cross-class confusion, so that k-means classification tops out
// near the paper's 87% accuracy rather than at 100%.
#pragma once

#include <string>

#include "src/trace/types.h"
#include "src/util/rng.h"

namespace fa::text {

struct TicketText {
  std::string description;
  std::string resolution;
};

struct TextStyleOptions {
  // Signature words drawn into a clearly-written ticket.
  int signature_words = 4;
  // Generic filler words per ticket.
  int generic_words = 5;
  // Probability that a clear ticket also mentions words from an unrelated
  // class (e.g. a hardware ticket mentioning a reboot) — classifier noise.
  double confusion_probability = 0.35;
};

// Text for a crash ticket whose *recorded* class is `recorded`.
TicketText generate_crash_text(trace::FailureClass recorded,
                               const TextStyleOptions& options, Rng& rng);

// Text for a non-crash background ticket (capacity warnings, requests...).
TicketText generate_background_text(Rng& rng);

// The same texts rendered into caller-owned strings, replacing what they
// held: same strings, same draws. A caller rendering into reused ticket
// slots keeps the strings' capacity instead of allocating per ticket.
void generate_crash_text(trace::FailureClass recorded,
                         const TextStyleOptions& options, Rng& rng,
                         std::string& description, std::string& resolution);
void generate_background_text(Rng& rng, std::string& description,
                              std::string& resolution);

}  // namespace fa::text
