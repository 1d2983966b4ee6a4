#include <gtest/gtest.h>

#include <vector>

#include "support/duration.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"

namespace {

using namespace jitise::support;

TEST(Duration, FormatMinSec) {
  EXPECT_EQ(format_min_sec(0), "0:00");
  EXPECT_EQ(format_min_sec(59), "0:59");
  EXPECT_EQ(format_min_sec(60), "1:00");
  EXPECT_EQ(format_min_sec(87 * 60 + 52), "87:52");  // 164.gzip sum column
  EXPECT_EQ(format_min_sec(-5), "0:00");
}

TEST(Duration, FormatDayHms) {
  EXPECT_EQ(format_day_hms(0), "0:00:00:00");
  // 164.gzip break-even from Table II: 206 days 22:15:50.
  const double secs = ((206.0 * 24 + 22) * 60 + 15) * 60 + 50;
  EXPECT_EQ(format_day_hms(secs), "206:22:15:50");
}

TEST(Duration, FormatHms) {
  EXPECT_EQ(format_hms(3600 + 59 * 60 + 55), "01:59:55");  // Table IV corner
}

TEST(Duration, ParseRoundTrip) {
  for (double s : {0.0, 59.0, 61.0, 3601.0, 90061.0, 17836550.0}) {
    EXPECT_DOUBLE_EQ(parse_day_hms(format_day_hms(s)), s) << s;
  }
  EXPECT_DOUBLE_EQ(parse_day_hms("1:30"), 90.0);
  EXPECT_DOUBLE_EQ(parse_day_hms("01:59:55"), 7195.0);
  EXPECT_THROW((void)parse_day_hms("xyz"), std::invalid_argument);
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Statistics, LatencySamplesSortedMatchesPerCallPercentile) {
  LatencySamples samples;
  for (double ms : {7.0, 1.0, 9.0, 3.0, 5.0}) samples.add(ms);
  const std::vector<double> sorted = samples.sorted();
  ASSERT_EQ(sorted.size(), 5u);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  // One sort feeding percentile_of_sorted must agree with the per-call
  // copy-and-sort path for every percentile the server reports.
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_of_sorted(sorted, p), samples.percentile(p))
        << p;
  }
  EXPECT_DOUBLE_EQ(mean_of(sorted), 5.0);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto k = rng.below(17);
    EXPECT_LT(k, 17u);
  }
}

TEST(Rng, GaussianMoments) {
  Xoshiro256 rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stdev(), 1.0, 0.05);
}

TEST(Rng, Fnv1aStable) {
  Fnv1a h1, h2;
  h1.update("hello", 5);
  h2.update("hel", 3);
  h2.update("lo", 2);
  EXPECT_EQ(h1.digest(), h2.digest());
  Fnv1a h3;
  h3.update("hellp", 5);
  EXPECT_NE(h1.digest(), h3.digest());
}

TEST(Stats, RunningStats) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stdev(), 2.138, 1e-3);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, Means) {
  const double xs[] = {1.0, 2.0, 4.0};
  EXPECT_NEAR(mean_of(xs), 7.0 / 3.0, 1e-12);
  EXPECT_NEAR(geomean_of(xs), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Table, Renders) {
  TextTable t({"App", "Speedup"});
  t.add_row({"fft", "2.40"});
  t.add_row({"whetstone", "15.43"});
  const std::string out = t.render();
  EXPECT_NE(out.find("App"), std::string::npos);
  EXPECT_NE(out.find("whetstone"), std::string::npos);
  // All lines share the same width.
  std::size_t first_nl = out.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  const std::size_t width = first_nl;
  for (std::size_t pos = 0; pos < out.size();) {
    const std::size_t nl = out.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    EXPECT_EQ(nl - pos, width);
    pos = nl + 1;
  }
}

TEST(Table, Strf) {
  EXPECT_EQ(strf("%5.2f", 3.14159), " 3.14");
  EXPECT_EQ(strf("%d/%d", 3, 4), "3/4");
}

}  // namespace
