// Tests of the plan-search benchmark's own arithmetic: the tail-percentile
// rule, span self times, and the plan checker.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "check.h"
#include "spans.h"

namespace planbench {
namespace {

using predtop::parallel::PipelinePlan;
using predtop::parallel::PipelineStageChoice;

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 0.90);  // capped
  EXPECT_DOUBLE_EQ(TailPercentile(100), 0.90);
  EXPECT_DOUBLE_EQ(TailPercentile(99), 0.89);
  EXPECT_DOUBLE_EQ(TailPercentile(40), 0.75);
  EXPECT_DOUBLE_EQ(TailPercentile(20), 0.50);
  EXPECT_DOUBLE_EQ(TailPercentile(5), 0.50);
  EXPECT_DOUBLE_EQ(TailPercentile(0), 0.50);
  // At every size the chosen quantile leaves at least ten samples above it.
  for (std::size_t n = 20; n <= 500; ++n) {
    const double q = TailPercentile(n);
    const double pos = q * static_cast<double>(n - 1);
    const auto above = n - 1 - static_cast<std::size_t>(std::floor(pos));
    EXPECT_GE(above, 10u) << "n=" << n;
  }
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

SpanEvent Ev(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end,
             const char* name = "x") {
  SpanEvent e;
  e.name = name;
  e.id = id;
  e.parent = parent;
  e.start_ns = start;
  e.end_ns = end;
  return e;
}

TEST(SelfTime, SubtractsNestedChildren) {
  // root [0,100) > a [10,40) > b [20,30); root > c [50,60).
  const std::vector<SpanEvent> events{Ev(1, 0, 0, 100), Ev(2, 1, 10, 40), Ev(3, 2, 20, 30),
                                      Ev(4, 1, 50, 60)};
  const auto self = SelfTimesNs(events);
  EXPECT_EQ(self.at(1), 100 - 30 - 10);
  EXPECT_EQ(self.at(2), 30 - 10);
  EXPECT_EQ(self.at(3), 10);
  EXPECT_EQ(self.at(4), 10);
}

TEST(SelfTime, CountsOverlappingParallelChildrenOnce) {
  // Three children on other threads: [10,50) and [30,70) overlap, [60,80)
  // overlaps the second; one child runs past the parent's end and is clipped.
  const std::vector<SpanEvent> events{Ev(1, 0, 0, 100), Ev(2, 1, 10, 50), Ev(3, 1, 30, 70),
                                      Ev(4, 1, 60, 80), Ev(5, 1, 90, 130)};
  const auto self = SelfTimesNs(events);
  // Covered: [10,80) + [90,100) = 80.
  EXPECT_EQ(self.at(1), 20);
  EXPECT_EQ(self.at(5), 40);  // its own duration; it has no children
}

TEST(SelfTime, SumsByName) {
  const std::vector<SpanEvent> events{Ev(1, 0, 0, 100, "search"), Ev(2, 1, 0, 30, "graph"),
                                      Ev(3, 1, 40, 50, "graph"), Ev(4, 0, 200, 210, "graph")};
  const auto by_name = SelfTimeByNameNs(events);
  EXPECT_EQ(by_name.at("search"), 60);
  EXPECT_EQ(by_name.at("graph"), 50);
}

TEST(Spans, RecordNestingAndWriteChromeTrace) {
  SpanRecorder::Enable(true);
  SpanRecorder::SetRequest(7);
  {
    const Span outer("search");
    const Span inner("graph.encode");
  }
  { const Span ignored_when_disabled("x"); }
  SpanRecorder::Enable(false);
  { const Span ignored("y"); }
  const auto events = SpanRecorder::Collect();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "search");
  EXPECT_EQ(events[1].parent, events[0].id);
  EXPECT_EQ(events[2].parent, 0u);
  EXPECT_EQ(events[0].request, 7u);
  std::ostringstream out;
  WriteChromeTrace(events, out);
  EXPECT_NE(out.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.str().find("\"name\":\"graph.encode\",\"cat\":\"graph\""), std::string::npos);
}

PipelinePlan SamplePlan() {
  PipelinePlan plan;
  plan.num_microbatches = 8;
  PipelineStageChoice a;
  a.slice = {0, 12};
  a.mesh = {1, 2};
  a.latency_s = 0.010;
  PipelineStageChoice b;
  b.slice = {12, 24};
  b.mesh = {1, 2};
  b.latency_s = 0.012;
  plan.stages = {a, b};
  plan.iteration_latency_s = 0.106;
  return plan;
}

TEST(PlanCheck, AcceptsEqualPlans) {
  EXPECT_EQ(CheckPlanMatches(SamplePlan(), SamplePlan()), "");
  EXPECT_EQ(CheckPlanBitEqual(SamplePlan(), SamplePlan()), "");
  PipelinePlan close = SamplePlan();
  close.iteration_latency_s *= 1.0 + 1e-5;
  EXPECT_EQ(CheckPlanMatches(close, SamplePlan()), "");
  EXPECT_NE(CheckPlanBitEqual(close, SamplePlan()), "");
}

TEST(PlanCheck, RejectsChangedMesh) {
  PipelinePlan mutated = SamplePlan();
  mutated.stages[1].mesh = {2, 2};
  EXPECT_NE(CheckPlanMatches(mutated, SamplePlan()), "");
  EXPECT_NE(CheckPlanBitEqual(mutated, SamplePlan()), "");
}

TEST(PlanCheck, RejectsLatencyOffByOnePerMille) {
  PipelinePlan mutated = SamplePlan();
  mutated.iteration_latency_s *= 1.0 + 1e-3;
  EXPECT_NE(CheckPlanMatches(mutated, SamplePlan()), "");
}

TEST(PlanCheck, RejectsInvalidDegradedOrReshapedPlans) {
  PipelinePlan invalid = SamplePlan();
  invalid.iteration_latency_s = std::numeric_limits<double>::infinity();
  EXPECT_NE(CheckPlanMatches(invalid, SamplePlan()), "");
  PipelinePlan degraded = SamplePlan();
  degraded.stages[0].degraded = true;
  EXPECT_NE(CheckPlanMatches(degraded, SamplePlan()), "");
  PipelinePlan moved = SamplePlan();
  moved.stages[0].slice = {0, 11};
  moved.stages[1].slice = {11, 24};
  EXPECT_NE(CheckPlanMatches(moved, SamplePlan()), "");
  PipelinePlan fewer = SamplePlan();
  fewer.stages.pop_back();
  EXPECT_NE(CheckPlanMatches(fewer, SamplePlan()), "");
}

}  // namespace
}  // namespace planbench
