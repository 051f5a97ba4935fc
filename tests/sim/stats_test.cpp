#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace vtopo::sim {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownMeanAndVariance) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic dataset: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, NegativeValues) {
  OnlineStats s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
}

TEST(Series, EmptySeries) {
  Series s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Series, SingleSample) {
  Series s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.percentile(0), 3.5);
  EXPECT_DOUBLE_EQ(s.percentile(100), 3.5);
  EXPECT_DOUBLE_EQ(s.median(), 3.5);
}

TEST(Series, PercentileInterpolates) {
  Series s;
  for (double v : {10.0, 20.0, 30.0, 40.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(Series, PercentileClampsOutOfRange) {
  Series s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.percentile(-10), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(200), 2.0);
}

TEST(Series, UnsortedInputHandled) {
  Series s;
  for (double v : {9.0, 1.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

}  // namespace
}  // namespace vtopo::sim
