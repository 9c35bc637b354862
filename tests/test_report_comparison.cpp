#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/report.h"
#include "src/paper/comparison.h"
#include "src/paper/reference.h"
#include "src/util/error.h"

namespace fa {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  analysis::TextTable table({"name", "value"});
  table.add_row({"pm", "0.005"});
  table.add_row({"vm_long_label", "0.003"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("vm_long_label"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("|---"), std::string::npos);
  // All lines have equal width.
  std::size_t width = out.find('\n');
  for (std::size_t pos = 0; pos < out.size();) {
    const std::size_t next = out.find('\n', pos);
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
}

TEST(TextTable, RejectsMismatchedRow) {
  analysis::TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only_one"}), Error);
  EXPECT_THROW(analysis::TextTable({}), Error);
}

TEST(Comparison, RendersRowsAndChecks) {
  paperref::Comparison cmp("Fig. 2 -- weekly failure rates");
  cmp.add("PM all", 0.005, 0.0055, 4);
  cmp.add_text("fit family", "gamma", "gamma");
  cmp.check("PM rate exceeds VM rate", true);
  cmp.check("within 2x of paper", false);
  const std::string out = cmp.render();
  EXPECT_NE(out.find("Fig. 2"), std::string::npos);
  EXPECT_NE(out.find("0.0050"), std::string::npos);
  EXPECT_NE(out.find("[PASS]"), std::string::npos);
  EXPECT_NE(out.find("[CHECK]"), std::string::npos);
  EXPECT_FALSE(cmp.all_checks_passed());
  EXPECT_EQ(cmp.failed_checks(), 1);
}

TEST(Comparison, AllPassedVerdict) {
  paperref::Comparison cmp("t");
  cmp.check("a", true);
  EXPECT_TRUE(cmp.all_checks_passed());
  EXPECT_NE(cmp.render().find("all shape criteria reproduced"),
            std::string::npos);
}

TEST(Comparison, GatePassesWhenCheckFailsAsKnown) {
  paperref::Comparison cmp("t");
  cmp.check("holds", true);
  cmp.check("known deviation", false);
  EXPECT_TRUE(cmp.deviation_mismatches({"known deviation"}).empty());
}

TEST(Comparison, GateFailsOnUnexpectedCheck) {
  paperref::Comparison cmp("t");
  cmp.check("holds", true);
  cmp.check("regressed", false);
  EXPECT_EQ(cmp.deviation_mismatches({}),
            std::vector<std::string>{"unexpected CHECK: regressed"});
}

TEST(Comparison, GateFailsWhenKnownDeviationPasses) {
  paperref::Comparison cmp("t");
  cmp.check("fixed now", true);
  EXPECT_EQ(cmp.deviation_mismatches({"fixed now"}),
            std::vector<std::string>{"known deviation now passes: fixed now"});
}

TEST(Comparison, GateFailsOnKnownDeviationThatIsNotChecked) {
  paperref::Comparison cmp("t");
  cmp.check("holds", true);
  EXPECT_EQ(
      cmp.deviation_mismatches({"renamed check"}),
      std::vector<std::string>{"known deviation is not checked: renamed check"});
}

TEST(Reference, InternalConsistency) {
  // Table II totals match the stated population sizes.
  int pms = 0, vms = 0;
  for (const auto& sys : paperref::kTable2) {
    pms += sys.pms;
    vms += sys.vms;
  }
  EXPECT_EQ(pms, paperref::kTotalPms);
  EXPECT_EQ(vms, paperref::kTotalVms);
  // Crash shares sum to 1 per system.
  for (const auto& sys : paperref::kTable2) {
    EXPECT_NEAR(sys.crash_pm_share + sys.crash_vm_share, 1.0, 1e-9);
  }
  // Repair means exceed medians (long tails) in every class.
  for (const auto& mm : paperref::kTable4) {
    EXPECT_GT(mm.mean, mm.median);
  }
  // Recurrent >> random in Table V wherever defined.
  for (const auto& row : paperref::kTable5Pm) {
    if (row.random > 0) {
      EXPECT_GT(row.recurrent / row.random, 5.0);
    }
  }
}

}  // namespace
}  // namespace fa
