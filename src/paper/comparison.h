// Paper-vs-measured comparison formatting shared by the experiment
// reproductions: every experiment prints rows of (metric, paper value,
// measured value) plus a PASS/CHECK verdict on the qualitative "shape"
// criteria, and its verdicts are gated against its known deviations.
#pragma once

#include <string>
#include <vector>

namespace fa::paperref {

class Comparison {
 public:
  // `title` e.g. "Table V -- random vs recurrent failure probabilities".
  explicit Comparison(std::string title);

  void add(const std::string& metric, double paper, double measured,
           int precision = 4);
  void add_text(const std::string& metric, const std::string& paper,
                const std::string& measured);

  // Records a qualitative shape check ("PM rate > VM rate", ...).
  void check(const std::string& description, bool passed);

  // Renders the table, the checks, and the overall verdict.
  std::string render() const;
  bool all_checks_passed() const;
  int failed_checks() const;

  // The verdict gate: the failed checks must be exactly
  // `known_deviations` (check descriptions). Returns one line per
  // mismatch -- a CHECK that is not a known deviation, or a known
  // deviation that passes or is not checked at all; empty means the
  // verdicts are as expected.
  std::vector<std::string> deviation_mismatches(
      const std::vector<std::string>& known_deviations) const;

 private:
  struct Row {
    std::string metric;
    std::string paper;
    std::string measured;
  };
  struct Check {
    std::string description;
    bool passed;
  };
  std::string title_;
  std::vector<Row> rows_;
  std::vector<Check> checks_;
};

}  // namespace fa::paperref
