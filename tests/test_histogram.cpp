#include "src/stats/histogram.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/util/error.h"

namespace fa::stats {
namespace {

TEST(BinSpec, FromEdgesIndexing) {
  const auto spec = BinSpec::from_edges({0.0, 1.0, 4.0, 10.0});
  EXPECT_EQ(spec.bin_count(), 3u);
  EXPECT_EQ(spec.index_of(0.0), 0u);
  EXPECT_EQ(spec.index_of(0.99), 0u);
  EXPECT_EQ(spec.index_of(1.0), 1u);
  EXPECT_EQ(spec.index_of(9.999), 2u);
  EXPECT_FALSE(spec.index_of(10.0).has_value());
  EXPECT_FALSE(spec.index_of(-0.1).has_value());
}

TEST(BinSpec, NanIsOutOfRange) {
  const auto spec = BinSpec::linear(0.0, 60.0, 6);
  EXPECT_FALSE(spec.index_of(std::nan("")).has_value());
  EXPECT_FALSE(spec.index_of(-std::nan("")).has_value());
  Histogram h(spec);
  EXPECT_FALSE(h.add(std::nan("")));
  EXPECT_EQ(h.out_of_range(), 1u);
  EXPECT_EQ(h.total(), 0u);
}

TEST(BinSpec, ManyBinsIndexEveryEdgeAndInterior) {
  // The lookup has no size limit: 40 bins, every edge and midpoint.
  const auto spec = BinSpec::linear(0.0, 40.0, 40);
  for (std::size_t b = 0; b < spec.bin_count(); ++b) {
    EXPECT_EQ(spec.index_of(spec.lower_edge(b)), b);
    EXPECT_EQ(spec.index_of(spec.center(b)), b);
  }
  EXPECT_FALSE(spec.index_of(40.0).has_value());
  EXPECT_FALSE(spec.index_of(-1e-300).has_value());
}

TEST(BinSpec, RejectsMalformedEdges) {
  EXPECT_THROW(BinSpec::from_edges({1.0}), Error);
  EXPECT_THROW(BinSpec::from_edges({1.0, 1.0}), Error);
  EXPECT_THROW(BinSpec::from_edges({2.0, 1.0}), Error);
}

TEST(BinSpec, LinearConstruction) {
  const auto spec = BinSpec::linear(0.0, 100.0, 10);
  EXPECT_EQ(spec.bin_count(), 10u);
  EXPECT_DOUBLE_EQ(spec.lower_edge(0), 0.0);
  EXPECT_DOUBLE_EQ(spec.upper_edge(9), 100.0);
  EXPECT_EQ(spec.index_of(55.0), 5u);
  EXPECT_DOUBLE_EQ(spec.center(5), 55.0);
}

TEST(BinSpec, PowerOfTwoConstruction) {
  const auto spec = BinSpec::power_of_two(1.0, 5);
  EXPECT_EQ(spec.bin_count(), 5u);
  EXPECT_EQ(spec.index_of(1.0), 0u);
  EXPECT_EQ(spec.index_of(2.0), 1u);
  EXPECT_EQ(spec.index_of(31.9), 4u);
  EXPECT_FALSE(spec.index_of(32.0).has_value());
}

TEST(BinSpec, LabelsSingleIntegerAndRange) {
  const auto spec = BinSpec::from_edges({1.0, 2.0, 4.0, 8.5});
  EXPECT_EQ(spec.label(0), "1");          // [1, 2) holds the integer 1
  EXPECT_EQ(spec.label(1), "[2, 4)");
  EXPECT_EQ(spec.label(2), "[4.00, 8.50)");
}

TEST(Histogram, CountsAndOutOfRange) {
  Histogram h(BinSpec::from_edges({0.0, 10.0, 20.0}));
  EXPECT_TRUE(h.add(5.0));
  EXPECT_TRUE(h.add(15.0));
  EXPECT_TRUE(h.add(15.5));
  EXPECT_FALSE(h.add(25.0));
  EXPECT_FALSE(h.add(-1.0));
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.out_of_range(), 2u);
  EXPECT_DOUBLE_EQ(h.fraction(1), 2.0 / 3.0);
}

TEST(Histogram, AddAllAndEmptyFractionThrows) {
  Histogram h(BinSpec::linear(0.0, 1.0, 2));
  EXPECT_THROW(h.fraction(0), Error);
  const std::vector<double> xs = {0.1, 0.6, 0.7};
  h.add_all(xs);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 1.0 / 3.0);
}

}  // namespace
}  // namespace fa::stats
