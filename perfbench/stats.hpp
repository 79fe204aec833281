// Pure statistics helpers of the end-to-end benchmark. Everything here is
// a function of its arguments only, so stats_test.cpp can pin the
// arithmetic the reported metrics rest on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median; the mean of the two middle values for an even count.
inline double Median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("Median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest nearest-rank percentile that still has at least
/// `kMinBeyond` samples above it. With fewer than 2 * kMinBeyond + 1
/// samples that percentile would sit at or below the median; the median
/// stands in and `percentile` says so (50), so a reader never mistakes it
/// for a tail.
struct Tail {
  static constexpr std::size_t kMinBeyond = 10;
  double value = 0.0;
  double percentile = 0.0;  ///< nearest-rank percentile of `value`, 0-100
  std::size_t beyond = 0;   ///< samples ranked above `value`
  std::size_t samples = 0;
};

inline Tail TailOf(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("TailOf no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  Tail t;
  t.samples = n;
  if (n < 2 * Tail::kMinBeyond + 1) {
    t.value = Median(v);
    t.percentile = 50.0;
    t.beyond = n / 2;
    return t;
  }
  const std::size_t k = n - 1 - Tail::kMinBeyond;  // 0-based rank
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  t.beyond = n - 1 - k;
  return t;
}

/// Geometric mean of strictly positive values.
inline double Geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("Geomean of no values");
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) throw std::invalid_argument("Geomean needs values > 0");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Backlog test on one open-loop phase. `latency_us` holds each
/// request's latency (queue delay + service) in arrival order. The ratio
/// is the mean over the last decile of requests divided by the mean over
/// the middle decile: a queue that keeps growing makes late requests wait
/// longer than mid-phase ones, while a stable queue reads about 1. Using
/// latency rather than bare queue delay keeps the ratio defined when the
/// queue is empty (it then reads exactly 1 for a constant service time).
inline double BacklogRatio(const std::vector<double>& latency_us) {
  const std::size_t n = latency_us.size();
  if (n < 10) throw std::invalid_argument("BacklogRatio needs >= 10 requests");
  auto mean = [&](std::size_t from, std::size_t to) {
    double s = 0.0;
    for (std::size_t i = from; i < to; ++i) s += latency_us[i];
    return s / static_cast<double>(to - from);
  };
  const double mid = mean(n * 45 / 100, n * 55 / 100);
  const double last = mean(n * 9 / 10, n);
  if (!(mid > 0.0)) throw std::invalid_argument("BacklogRatio: zero latency");
  return last / mid;
}

/// Ratio above which a phase counts as building a backlog. A queue that
/// grows linearly from the start of a phase reads about 0.95 / 0.5 = 1.9;
/// a stable one stayed within 0.75..1.3 on the serving ladder.
inline constexpr double kBacklogGrowing = 1.5;

/// One rung of the fixed offered-rate ladder.
struct LadderRung {
  double rate_rps = 0.0;
  double p99_us = 0.0;
  double backlog_ratio = 1.0;
  bool all_ok = true;  ///< every request of the rung completed
};

/// Highest ladder rate whose p99 meets `p99_limit_us` with every request
/// completed and no growing backlog; 0 when no rung qualifies.
inline double LadderMaxRps(const std::vector<LadderRung>& ladder,
                           double p99_limit_us) {
  double best = 0.0;
  for (const LadderRung& r : ladder) {
    if (r.all_ok && r.p99_us <= p99_limit_us &&
        r.backlog_ratio <= kBacklogGrowing) {
      best = std::max(best, r.rate_rps);
    }
  }
  return best;
}

/// A closed interval on one clock, in microseconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the part of `parent` that the union of `children` covers
/// (children are clipped to the parent; overlaps count once).
inline double CoveredUs(const Interval& parent,
                        std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double reach = parent.start;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    const double from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return covered;
}

/// A span's self time: its duration minus what its children cover.
inline double SelfUs(const Interval& parent,
                     const std::vector<Interval>& children) {
  return (parent.end - parent.start) - CoveredUs(parent, children);
}

}  // namespace perfbench
