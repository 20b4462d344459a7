#ifndef LBSQ_SERVEBENCH_BENCH_MATH_H_
#define LBSQ_SERVEBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

// The serving benchmark's own arithmetic, kept free of lbsq types so
// bench_math_test.cc can pin it down in isolation: the percentile rule,
// the open-loop arrival schedule, the rate-step verdict, the sustained-
// rate search and span self time.

namespace servebench {

// -- Percentiles -------------------------------------------------------------

// Nearest-rank percentile: the smallest value with at least p of the
// samples at or below it. Infinity stands for a failed or refused
// request, so it sorts past every real latency. Empty input gives NaN.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p * static_cast<double>(n))), 1, n);
  return n - rank;
}

// A percentile is reported only when at least ten samples lie beyond it
// (so p99 needs at least 1000 samples).
inline constexpr size_t kMinSamplesBeyond = 10;
inline bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

// "p99 of 1234 samples (12 beyond)", or the same with "UNSUPPORTED".
inline std::string SampleStatement(const char* label, size_t n, double p) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s of %zu samples (%zu beyond%s)", label,
                n, SamplesBeyond(n, p),
                PercentileSupported(n, p) ? "" : ", UNSUPPORTED");
  return buf;
}

// Median of per-window percentiles: `values` (in arrival order) are cut
// into at most `max_windows` consecutive windows of equal count, each
// large enough for the percentile to be supported; the p-th percentile
// of each window is taken and the median (nearest rank) of those is
// returned. One burst then moves one window, not the reported figure.
// *windows receives the number of windows used (0: too few samples,
// result NaN); `per_window`, when given, each window's percentile.
inline double WindowedPercentile(const std::vector<double>& values, double p,
                                 size_t max_windows, size_t* windows,
                                 std::vector<double>* per_window_out = nullptr) {
  size_t w = std::min(max_windows, values.size());
  while (w > 0 && !PercentileSupported(values.size() / w, p)) --w;
  *windows = w;
  if (w == 0) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> per_window;
  const size_t per = values.size() / w;
  for (size_t i = 0; i < w; ++i) {
    const auto begin = values.begin() + static_cast<ptrdiff_t>(i * per);
    const auto end = i + 1 == w ? values.end()
                                : begin + static_cast<ptrdiff_t>(per);
    per_window.push_back(Percentile(std::vector<double>(begin, end), p));
  }
  if (per_window_out != nullptr) *per_window_out = per_window;
  return Percentile(per_window, 0.5);
}

// -- Arrival schedule ----------------------------------------------------------

// SplitMix64: the benchmark's only random source, so a schedule is a
// pure function of its seed on every platform.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Poisson arrivals at `rate` per second over [0, duration): the due time
// of each arrival, in seconds from the phase start. The gaps are unit
// exponentials drawn from `seed` and scaled by 1/rate, so two calls with
// the same seed and rate give the same schedule.
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                           double duration) {
  std::vector<double> due;
  if (rate <= 0.0 || duration <= 0.0) return due;
  due.reserve(static_cast<size_t>(rate * duration * 1.1) + 16);
  uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    state = Mix64(state);
    // Uniform in (0, 1]: never log(0).
    const double u =
        (static_cast<double>(state >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

// -- Rate steps ------------------------------------------------------------

// What one open-loop step at a fixed offered rate measured.
struct StepStats {
  double rate = 0.0;          // offered rate, requests per second
  size_t samples = 0;         // timed query replies (failures included)
  double p99_ms = 0.0;        // latency from due time (failures = +inf)
  double lag_p99_ms = 0.0;    // send time minus due time
  size_t backlog_at_end = 0;  // requests outstanding when sending ended
};

struct StepLimits {
  double p99_limit_ms = 0.0;
  double lag_bound_ms = 0.0;
};

enum class Verdict { kPass, kTooFewSamples, kOverLimit, kGeneratorLate,
                     kBacklog };

inline const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "pass";
    case Verdict::kTooFewSamples: return "too-few-samples";
    case Verdict::kOverLimit: return "p99-over-limit";
    case Verdict::kGeneratorLate: return "generator-late";
    case Verdict::kBacklog: return "backlog";
  }
  return "?";
}

// A step counts toward the sustained rate only if p99 is supported by
// the sample count and under the limit, the generator kept to its
// schedule (lag p99 within its bound), and the backlog when sending
// stopped is no more than a queue meeting the limit holds by Little's
// law (twice rate x limit, plus slack for a handful of in-flight
// requests).
inline Verdict JudgeStep(const StepStats& s, const StepLimits& limits) {
  if (!PercentileSupported(s.samples, 0.99)) return Verdict::kTooFewSamples;
  if (s.lag_p99_ms > limits.lag_bound_ms) return Verdict::kGeneratorLate;
  if (!(s.p99_ms <= limits.p99_limit_ms)) return Verdict::kOverLimit;
  const double little = 2.0 * s.rate * limits.p99_limit_ms / 1000.0 + 32.0;
  if (static_cast<double>(s.backlog_at_end) > little) return Verdict::kBacklog;
  return Verdict::kPass;
}

// -- Sustained-rate search ---------------------------------------------------

// Estimates the highest offered rate whose steps pass, with an adaptive
// up-down staircase: it climbs by `growth` from `start` while steps pass
// (or descends while they fail), and every reversal of direction halves
// the step in log space, down to a floor of 1 + `stair`. Once at the
// floor it keeps stepping up after a pass and down after a failure, so
// it oscillates around the rate at which a step passes half the time.
// The estimate is the geometric mean of the rates visited at the floor,
// so a step spoiled by a host stall moves the figure by a fraction of a
// stair instead of ending the search.
class RateSearch {
 public:
  RateSearch(double start, double growth, double stair)
      : log_step_(std::log(growth)), log_floor_(std::log1p(stair)),
        next_(start) {}

  double NextRate() const { return next_; }

  void Report(double rate, bool pass) {
    if (pass) {
      best_pass_ = std::max(best_pass_, rate);
    } else {
      lowest_fail_ = std::min(lowest_fail_, rate);
    }
    if (steps_ > 0 && pass != last_pass_) {
      log_step_ = std::max(log_floor_, log_step_ / 2.0);
    }
    if (log_step_ <= log_floor_ && steps_ > 0 && pass != last_pass_) {
      at_floor_ = true;
    }
    if (at_floor_) {
      log_sum_ += std::log(rate);
      ++floor_steps_;
    }
    last_pass_ = pass;
    next_ = rate * std::exp(pass ? log_step_ : -log_step_);
    ++steps_;
  }

  // Geometric mean of the rates visited at the floor step; before the
  // floor, the midpoint of the best pass and the lowest failure above
  // it, or the best pass when nothing has failed (0 when none passed).
  double estimate() const {
    if (floor_steps_ > 0) {
      return std::exp(log_sum_ / static_cast<double>(floor_steps_));
    }
    if (best_pass_ > 0.0 && std::isfinite(lowest_fail_) &&
        lowest_fail_ > best_pass_) {
      return std::sqrt(best_pass_ * lowest_fail_);
    }
    return best_pass_;
  }
  size_t steps() const { return steps_; }
  size_t floor_steps() const { return floor_steps_; }

 private:
  double log_step_;
  double log_floor_;
  double next_;
  bool last_pass_ = true;
  bool at_floor_ = false;
  double best_pass_ = 0.0;
  double lowest_fail_ = std::numeric_limits<double>::infinity();
  double log_sum_ = 0.0;
  size_t floor_steps_ = 0;
  size_t steps_ = 0;
};

// -- Spans -----------------------------------------------------------------

// One timed interval of a request's path. `parent` indexes the span
// that caused it in the same vector (-1 for a root).
struct Span {
  uint64_t request = 0;
  uint16_t name = 0;
  int32_t parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;

  double duration_us() const { return end_us - start_us; }
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children (children clipped to the parent,
// overlapping children counted once).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const double a = std::max(s.start_us, p.start_us);
    const double b = std::min(s.end_us, p.end_us);
    if (b > a) children[static_cast<size_t>(s.parent)].push_back({a, b});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0, cur_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    self[i] = spans[i].duration_us() - covered;
  }
  return self;
}

}  // namespace servebench

#endif  // LBSQ_SERVEBENCH_BENCH_MATH_H_
