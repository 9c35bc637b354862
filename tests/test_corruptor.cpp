#include "src/inject/corruptor.h"

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/trace/csv_io.h"
#include "src/trace/sanitize.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace fa::inject {
namespace {

using trace::DefectClass;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// One clean on-disk export shared by every test in this binary (the
// injector never mutates its input directory).
class CorruptorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("fa_corruptor_" + std::to_string(::getpid()));
    clean_ = (root_ / "clean").string();
    if (!std::filesystem::exists(clean_)) {
      trace::save_database(fa::testing::small_simulated_db(), clean_);
    }
  }
  std::string clean_dir() const { return clean_; }
  std::string out_dir(const std::string& name) const {
    return (root_ / name).string();
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(
        std::filesystem::temp_directory_path() /
        ("fa_corruptor_" + std::to_string(::getpid())));
  }

 private:
  std::filesystem::path root_;
  std::string clean_;
};

TEST_F(CorruptorTest, ZeroRateCopiesExportVerbatim) {
  const auto report =
      corrupt_database(clean_dir(), out_dir("zero"), 1, DefectMix{});
  EXPECT_EQ(report.total(), 0u);
  for (const std::string& file :
       {trace::kMetaFile, trace::kServersFile, trace::kTicketsFile,
        trace::kWeeklyUsageFile, trace::kPowerEventsFile,
        trace::kSnapshotsFile}) {
    EXPECT_EQ(slurp(clean_dir() + "/" + file),
              slurp(out_dir("zero") + "/" + file))
        << file;
  }
}

TEST_F(CorruptorTest, RoundTripCountsMatchPerClass) {
  // The tentpole property: sanitize(corrupt(clean)) attributes exactly the
  // injected defects, class by class.
  const auto injected = corrupt_database(clean_dir(), out_dir("rt"), 17,
                                         DefectMix::uniform(0.03));
  EXPECT_GT(injected.total(), 0u);
  const auto sanitized = fa::testing::load_lenient(out_dir("rt"));
  for (DefectClass cls : trace::kAllDefectClasses) {
    EXPECT_EQ(sanitized.report.count(cls), injected.count(cls))
        << trace::to_string(cls);
  }
  EXPECT_EQ(sanitized.report.counts_csv(), injected.counts_csv());
  EXPECT_EQ(sanitized.report.cascade_drops, 0u);
}

TEST_F(CorruptorTest, SingleClassMixesRoundTrip) {
  // Each class injected alone also round-trips, pinning down the defect
  // attribution (no class is silently absorbed by an earlier check).
  for (DefectClass cls : trace::kAllDefectClasses) {
    DefectMix mix;
    mix.set_rate(cls, cls == DefectClass::kTruncatedSeries ? 0.2 : 0.05);
    const std::string out =
        out_dir("single_" + std::string(trace::to_string(cls)));
    const auto injected = corrupt_database(clean_dir(), out, 23, mix);
    EXPECT_GT(injected.total(), 0u) << trace::to_string(cls);
    EXPECT_EQ(injected.total(), injected.count(cls));
    const auto sanitized = fa::testing::load_lenient(out);
    EXPECT_EQ(sanitized.report.count(cls), injected.count(cls))
        << trace::to_string(cls);
    EXPECT_EQ(sanitized.report.total_defects(), injected.total())
        << trace::to_string(cls);
  }
}

TEST_F(CorruptorTest, ByteIdenticalAcrossRunsAndThreadCounts) {
  const auto mix = DefectMix::uniform(0.02);
  const auto saved = ThreadPool::default_thread_count();
  ThreadPool::set_default_thread_count(1);
  const auto r1 = corrupt_database(clean_dir(), out_dir("t1"), 5, mix);
  ThreadPool::set_default_thread_count(8);
  const auto r2 = corrupt_database(clean_dir(), out_dir("t8"), 5, mix);
  ThreadPool::set_default_thread_count(saved);
  EXPECT_EQ(r1.counts_csv(), r2.counts_csv());
  for (const std::string& file :
       {trace::kServersFile, trace::kTicketsFile, trace::kWeeklyUsageFile,
        trace::kPowerEventsFile, trace::kSnapshotsFile}) {
    EXPECT_EQ(slurp(out_dir("t1") + "/" + file),
              slurp(out_dir("t8") + "/" + file))
        << file;
  }
}

TEST_F(CorruptorTest, DifferentSeedsProduceDifferentCorruption) {
  const auto mix = DefectMix::uniform(0.02);
  corrupt_database(clean_dir(), out_dir("s1"), 1, mix);
  corrupt_database(clean_dir(), out_dir("s2"), 2, mix);
  EXPECT_NE(slurp(out_dir("s1") + "/" + trace::kTicketsFile),
            slurp(out_dir("s2") + "/" + trace::kTicketsFile));
}

TEST_F(CorruptorTest, RefusesInPlaceCorruption) {
  EXPECT_THROW(corrupt_database(clean_dir(), clean_dir(), 1,
                                DefectMix::uniform(0.01)),
               Error);
}

TEST_F(CorruptorTest, RejectsOversubscribedMix) {
  EXPECT_THROW(corrupt_database(clean_dir(), out_dir("over"), 1,
                                DefectMix::uniform(0.5)),
               Error);
}

TEST_F(CorruptorTest, StrictLoaderRejectsCorruptedExport) {
  corrupt_database(clean_dir(), out_dir("strict"), 3,
                   DefectMix::uniform(0.02));
  EXPECT_THROW(trace::load_database(out_dir("strict")), Error);
}

}  // namespace
}  // namespace fa::inject
