#include "src/paper/comparison.h"

#include <algorithm>

#include "src/util/strings.h"

namespace fa::paperref {

Comparison::Comparison(std::string title) : title_(std::move(title)) {}

void Comparison::add(const std::string& metric, double paper, double measured,
                     int precision) {
  rows_.push_back({metric, format_double(paper, precision),
                   format_double(measured, precision)});
}

void Comparison::add_text(const std::string& metric, const std::string& paper,
                          const std::string& measured) {
  rows_.push_back({metric, paper, measured});
}

void Comparison::check(const std::string& description, bool passed) {
  checks_.push_back({description, passed});
}

bool Comparison::all_checks_passed() const {
  return failed_checks() == 0;
}

int Comparison::failed_checks() const {
  int failed = 0;
  for (const Check& c : checks_) failed += !c.passed;
  return failed;
}

std::vector<std::string> Comparison::deviation_mismatches(
    const std::vector<std::string>& known_deviations) const {
  const auto is_known = [&](const std::string& description) {
    return std::find(known_deviations.begin(), known_deviations.end(),
                     description) != known_deviations.end();
  };
  std::vector<std::string> mismatches;
  for (const Check& c : checks_) {
    if (!c.passed && !is_known(c.description)) {
      mismatches.push_back("unexpected CHECK: " + c.description);
    } else if (c.passed && is_known(c.description)) {
      mismatches.push_back("known deviation now passes: " + c.description);
    }
  }
  for (const std::string& known : known_deviations) {
    const bool checked =
        std::any_of(checks_.begin(), checks_.end(),
                    [&](const Check& c) { return c.description == known; });
    if (!checked) {
      mismatches.push_back("known deviation is not checked: " + known);
    }
  }
  return mismatches;
}

std::string Comparison::render() const {
  std::string out = "== " + title_ + " ==\n";

  std::size_t w_metric = 6, w_paper = 5, w_measured = 8;
  for (const Row& r : rows_) {
    w_metric = std::max(w_metric, r.metric.size());
    w_paper = std::max(w_paper, r.paper.size());
    w_measured = std::max(w_measured, r.measured.size());
  }
  const auto pad = [](const std::string& s, std::size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  out += "  " + pad("metric", w_metric) + "  " + pad("paper", w_paper) +
         "  " + pad("measured", w_measured) + "\n";
  for (const Row& r : rows_) {
    out += "  " + pad(r.metric, w_metric) + "  " + pad(r.paper, w_paper) +
           "  " + pad(r.measured, w_measured) + "\n";
  }
  if (!checks_.empty()) {
    out += "  shape checks:\n";
    for (const Check& c : checks_) {
      out += std::string("    [") + (c.passed ? "PASS" : "CHECK") + "] " +
             c.description + "\n";
    }
    out += all_checks_passed()
               ? "  VERDICT: all shape criteria reproduced\n"
               : "  VERDICT: " + std::to_string(failed_checks()) +
                     " shape criteria deviate (see EXPERIMENTS.md)\n";
  }
  return out;
}

}  // namespace fa::paperref
