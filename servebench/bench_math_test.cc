// Tests of the serving benchmark's own arithmetic (bench_math.h).

#include "bench_math.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace servebench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
}

TEST(PercentileTest, FailuresSortPastEveryLatency) {
  std::vector<double> v(990, 1.0);
  v.resize(1000, std::numeric_limits<double>::infinity());
  EXPECT_EQ(Percentile(v, 0.99), 1.0);  // exactly 1% failed
  v[0] = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isinf(Percentile(v, 0.99)));  // one more fails p99
}

TEST(PercentileTest, SampleCountRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
  EXPECT_FALSE(PercentileSupported(0, 0.5));
  EXPECT_EQ(SampleStatement("p99", 1234, 0.99), "p99 of 1234 samples (12 beyond)");
  EXPECT_EQ(SampleStatement("p99", 500, 0.99),
            "p99 of 500 samples (5 beyond, UNSUPPORTED)");
}

TEST(PercentileTest, WindowedMedianOfPercentiles) {
  // Five windows of 1000 whose p99s are 1, 2, 50 (a burst), 4 and 5.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 1000; ++i) v.push_back(w == 2 && i >= 900 ? 50.0 : 1.0 + w);
  }
  size_t windows = 0;
  EXPECT_EQ(WindowedPercentile(v, 0.99, 5, &windows), 4.0);
  EXPECT_EQ(windows, 5u);
  EXPECT_EQ(Percentile(v, 0.99), 50.0);  // the plain p99 is the burst
  // Fewer samples: fewer windows, each still supporting p99 (windows
  // of 1250: p99s 2 and 3, median by nearest rank 2).
  v.resize(2500);
  EXPECT_EQ(WindowedPercentile(v, 0.99, 5, &windows), 2.0);
  EXPECT_EQ(windows, 2u);
  v.resize(999);
  EXPECT_TRUE(std::isnan(WindowedPercentile(v, 0.99, 5, &windows)));
  EXPECT_EQ(windows, 0u);
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(42, 1000.0, 2.0);
  const std::vector<double> b = PoissonSchedule(42, 1000.0, 2.0);
  const std::vector<double> c = PoissonSchedule(43, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Roughly rate x duration arrivals, increasing, inside the phase.
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 200.0);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_LT(a.back(), 2.0);
}

TEST(ScheduleTest, RateScalesTheSameGaps) {
  // Doubling the rate halves every due time of the same seed.
  const std::vector<double> slow = PoissonSchedule(7, 500.0, 4.0);
  const std::vector<double> fast = PoissonSchedule(7, 1000.0, 2.0);
  ASSERT_EQ(slow.size(), fast.size());
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_NEAR(slow[i], 2.0 * fast[i], 1e-12);
  }
}

StepStats GoodStep() {
  StepStats s;
  s.rate = 1000.0;
  s.samples = 2000;
  s.p99_ms = 5.0;
  s.lag_p99_ms = 0.1;
  s.backlog_at_end = 3;
  return s;
}

TEST(JudgeStepTest, Verdicts) {
  const StepLimits limits{10.0, 1.0};
  EXPECT_EQ(JudgeStep(GoodStep(), limits), Verdict::kPass);
  StepStats s = GoodStep();
  s.samples = 999;
  EXPECT_EQ(JudgeStep(s, limits), Verdict::kTooFewSamples);
  s = GoodStep();
  s.p99_ms = 10.5;
  EXPECT_EQ(JudgeStep(s, limits), Verdict::kOverLimit);
  s.p99_ms = std::numeric_limits<double>::infinity();
  EXPECT_EQ(JudgeStep(s, limits), Verdict::kOverLimit);
  s = GoodStep();
  s.backlog_at_end = 100;  // > 2 x 1000/s x 10 ms + 32
  EXPECT_EQ(JudgeStep(s, limits), Verdict::kBacklog);
}

TEST(JudgeStepTest, LateGeneratorDoesNotCount) {
  StepStats s = GoodStep();
  s.lag_p99_ms = 1.5;  // fast replies, but the generator ran late
  EXPECT_EQ(JudgeStep(s, StepLimits{10.0, 1.0}), Verdict::kGeneratorLate);
}

// p99 sojourn time of an M/M/1 queue (exponential with rate mu - lambda).
double MM1P99Ms(double lambda, double mu) {
  if (lambda >= mu) return std::numeric_limits<double>::infinity();
  return 1000.0 * std::log(100.0) / (mu - lambda);
}

TEST(RateSearchTest, FindsTheAnalyticLimitOfAnMM1Queue) {
  const double mu = 10000.0, limit_ms = 2.0;
  const double known = mu - 1000.0 * std::log(100.0) / limit_ms;  // ~7697
  RateSearch search(1000.0, 2.0, 0.02);
  for (int i = 0; i < 30; ++i) {
    const double rate = search.NextRate();
    search.Report(rate, MM1P99Ms(rate, mu) <= limit_ms);
  }
  // At the floor the staircase straddles the limit, a stair either side.
  EXPECT_NEAR(search.estimate(), known, 0.02 * known);
  EXPECT_GT(search.floor_steps(), 15u);
}

// Lindley recursion over a simulated M/M/1 queue: the search driven by
// measured (not analytic) p99s lands near the analytic answer.
double SimulatedP99Ms(double lambda, double mu, uint64_t seed) {
  uint64_t state = seed;
  auto exp_draw = [&state](double rate) {
    state = Mix64(state);
    const double u = (static_cast<double>(state >> 11) + 1.0) * 0x1.0p-53;
    return -std::log(u) / rate;
  };
  std::vector<double> sojourn;
  double wait = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double service = exp_draw(mu);
    sojourn.push_back((wait + service) * 1000.0);
    wait = std::max(0.0, wait + service - exp_draw(lambda));
  }
  return Percentile(sojourn, 0.99);
}

TEST(RateSearchTest, SimulatedSingleServerQueue) {
  const double mu = 10000.0, limit_ms = 2.0;
  const double known = mu - 1000.0 * std::log(100.0) / limit_ms;
  RateSearch search(2000.0, 2.0, 0.04);
  for (int i = 0; i < 14; ++i) {
    const double rate = search.NextRate();
    StepStats s;
    s.rate = rate;
    s.samples = 100000;
    s.p99_ms = SimulatedP99Ms(rate, mu, 99 + i);
    search.Report(rate, JudgeStep(s, StepLimits{limit_ms, 1.0}) == Verdict::kPass);
  }
  EXPECT_GT(search.floor_steps(), 0u);
  EXPECT_NEAR(search.estimate(), known, 0.06 * known);
}

TEST(RateSearchTest, ReversalsHalveTheStep) {
  RateSearch search(1000.0, 4.0, 0.1);
  search.Report(1000.0, true);
  EXPECT_NEAR(search.NextRate(), 4000.0, 1e-9);
  search.Report(4000.0, false);  // reversal: step 4x -> 2x
  EXPECT_NEAR(search.NextRate(), 2000.0, 1e-9);
  EXPECT_NEAR(search.estimate(), 2000.0, 1e-9);  // bracket midpoint
  search.Report(2000.0, true);  // reversal: 2x -> sqrt(2)x
  EXPECT_NEAR(search.NextRate(), 2000.0 * std::sqrt(2.0), 1e-6);
  EXPECT_EQ(search.floor_steps(), 0u);
}

TEST(RateSearchTest, DescendsWhenTheStartFails) {
  RateSearch search(1000.0, 2.0, 0.5);
  search.Report(1000.0, false);
  EXPECT_NEAR(search.NextRate(), 500.0, 1e-9);
  EXPECT_EQ(search.estimate(), 0.0);
  search.Report(500.0, true);  // reversal: step 2x -> 1.5x floor
  EXPECT_EQ(search.floor_steps(), 1u);
  EXPECT_NEAR(search.NextRate(), 750.0, 1e-9);
  EXPECT_NEAR(search.estimate(), 500.0, 1e-9);
}

TEST(SelfTimeTest, HandBuiltTree) {
  // root [0,100): children [10,30) and [20,50) overlap -> 40 covered,
  // plus [90,120) clipped to [90,100) -> 10. Self = 100 - 50.
  // child [20,50) has a grandchild [25,35): its self is 30 - 10.
  std::vector<Span> spans = {
      {1, 0, -1, 0.0, 100.0},
      {1, 1, 0, 10.0, 30.0},
      {1, 2, 0, 20.0, 50.0},
      {1, 3, 0, 90.0, 120.0},
      {1, 4, 2, 25.0, 35.0},
  };
  const std::vector<double> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_DOUBLE_EQ(self[0], 50.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 20.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 10.0);
}

}  // namespace
}  // namespace servebench
