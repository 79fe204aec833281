#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "harness.hpp"
#include "obs/span.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(Median({}), std::invalid_argument);
}

TEST(Tail, LeavesExactlyTenSamplesBeyond) {
  const Tail t = TailOf(OneTo(100));
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);

  const Tail t21 = TailOf(OneTo(21));
  EXPECT_DOUBLE_EQ(t21.value, 11.0);
  EXPECT_EQ(t21.beyond, 10u);
  EXPECT_NEAR(t21.percentile, 100.0 * 11 / 21, 1e-12);

  const Tail t250 = TailOf(OneTo(250));
  EXPECT_DOUBLE_EQ(t250.value, 240.0);
  EXPECT_DOUBLE_EQ(t250.percentile, 96.0);
}

TEST(Tail, FallsBackToTheMedianBelowTwentyOneSamples) {
  const Tail t = TailOf(OneTo(5));
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.samples, 5u);
  const Tail t20 = TailOf(OneTo(20));
  EXPECT_DOUBLE_EQ(t20.value, 10.5);
  EXPECT_DOUBLE_EQ(t20.percentile, 50.0);
}

TEST(Geomean, MatchesClosedFormAndRejectsNonPositive) {
  EXPECT_NEAR(Geomean({1, 100}), 10.0, 1e-12);
  EXPECT_NEAR(Geomean({2, 8, 4}), 4.0, 1e-12);
  EXPECT_THROW(Geomean({1, 0}), std::invalid_argument);
  EXPECT_THROW(Geomean({}), std::invalid_argument);
}

TEST(Backlog, StableQueueReadsOneGrowingQueueReadsHigh) {
  EXPECT_DOUBLE_EQ(BacklogRatio(std::vector<double>(100, 220.0)), 1.0);
  std::vector<double> growing;
  for (int i = 0; i < 100; ++i) growing.push_back(220.0 + 50.0 * i);
  // middle decile 45..54 -> mean 220+50*49.5; last decile 90..99 -> +94.5
  EXPECT_NEAR(BacklogRatio(growing), (220.0 + 50 * 94.5) / (220.0 + 50 * 49.5),
              1e-12);
  EXPECT_GT(BacklogRatio(growing), kBacklogGrowing);
  std::vector<double> jitter;
  for (int i = 0; i < 100; ++i) jitter.push_back(i % 2 ? 300.0 : 200.0);
  EXPECT_LT(BacklogRatio(jitter), kBacklogGrowing);
  std::vector<double> ramp(100, 220.0);
  for (int i = 90; i < 100; ++i) ramp[static_cast<std::size_t>(i)] = 1000.0;
  EXPECT_GT(BacklogRatio(ramp), kBacklogGrowing);
  EXPECT_THROW(BacklogRatio({1, 2, 3}), std::invalid_argument);
}

TEST(Ladder, PicksHighestRungMeetingLimitWithoutBacklog) {
  const std::vector<LadderRung> ladder = {
      {1000, 300, 1.0, true},  {2000, 500, 1.0, true},
      {3000, 1500, 1.1, true}, {4000, 1900, 2.5, true},  // backlog grows
      {5000, 9000, 6.0, true},
  };
  EXPECT_DOUBLE_EQ(LadderMaxRps(ladder, 2000), 3000);
  EXPECT_DOUBLE_EQ(LadderMaxRps(ladder, 1000), 2000);
  EXPECT_DOUBLE_EQ(LadderMaxRps(ladder, 100), 0);
  std::vector<LadderRung> failed = ladder;
  failed[2].all_ok = false;
  EXPECT_DOUBLE_EQ(LadderMaxRps(failed, 2000), 2000);
}

TEST(SelfTime, ChildrenClippedAndOverlapsCountedOnce) {
  const Interval parent{0, 100};
  EXPECT_DOUBLE_EQ(SelfUs(parent, {}), 100);
  EXPECT_DOUBLE_EQ(SelfUs(parent, {{10, 20}, {30, 60}}), 60);
  EXPECT_DOUBLE_EQ(SelfUs(parent, {{10, 40}, {30, 60}}), 50);  // overlap
  EXPECT_DOUBLE_EQ(SelfUs(parent, {{-10, 10}, {90, 120}}), 80);  // clipped
  EXPECT_DOUBLE_EQ(SelfUs(parent, {{10, 50}, {20, 30}}), 60);  // nested
  EXPECT_DOUBLE_EQ(SelfUs(parent, {{50, 50}}), 100);  // instant
}

TEST(TraceImport, TracerDepthsNestUnderTheParentSpan) {
  clflow::obs::Tracer tracer;
  {
    clflow::obs::ScopedSpan a(&tracer, "a");
    { clflow::obs::ScopedSpan a1(&tracer, "a1"); }
  }
  { clflow::obs::ScopedSpan b(&tracer, "b"); }
  Trace trace;
  const int root = trace.Open("Compile");
  trace.Close(root);
  trace.Import(tracer, root, tracer.NowUs(), NowUs());
  ASSERT_EQ(trace.spans().size(), 4u);
  EXPECT_EQ(trace.spans()[1].name, "a");
  EXPECT_EQ(trace.spans()[1].parent, root);
  EXPECT_EQ(trace.spans()[2].name, "a1");
  EXPECT_EQ(trace.spans()[2].parent, 1);
  EXPECT_EQ(trace.spans()[3].name, "b");
  EXPECT_EQ(trace.spans()[3].parent, root);
  EXPECT_EQ(trace.Children(root), (std::vector<int>{1, 3}));

  // Skipping already-imported records.
  Trace again;
  const int r2 = again.Open("GeneratedSource");
  again.Close(r2);
  again.Import(tracer, r2, tracer.NowUs(), NowUs(), 2);
  ASSERT_EQ(again.spans().size(), 2u);
  EXPECT_EQ(again.spans()[1].name, "b");
}

}  // namespace
}  // namespace perfbench
