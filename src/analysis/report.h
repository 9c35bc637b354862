// Plain-text table rendering for the experiment reports printed by
// fa_repro and the examples.
#pragma once

#include <string>
#include <vector>

namespace fa::analysis {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  // Row length must match the header length.
  void add_row(std::vector<std::string> row);

  // Renders with column alignment and a header separator.
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace fa::analysis
