#include "rt/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"

namespace rtg::rt {
namespace {

Task make(Time c, Time p, Time d, Time cs = 0) {
  Task t;
  t.c = c;
  t.p = p;
  t.d = d;
  t.critical_section = cs;
  return t;
}

TEST(LiuLayland, KnownValues) {
  EXPECT_DOUBLE_EQ(liu_layland_bound(0), 1.0);
  EXPECT_DOUBLE_EQ(liu_layland_bound(1), 1.0);
  EXPECT_NEAR(liu_layland_bound(2), 2.0 * (std::sqrt(2.0) - 1.0), 1e-12);
  EXPECT_NEAR(liu_layland_bound(1000), std::log(2.0), 1e-3);
}

TEST(RmUtilizationTest, AcceptsUnderBoundRejectsAbove) {
  // U = 0.5 <= 0.828 for n=2.
  EXPECT_TRUE(rm_utilization_test(TaskSet({make(1, 4, 4), make(1, 4, 4)})));
  // U = 1.0 > bound for n=2.
  EXPECT_FALSE(rm_utilization_test(TaskSet({make(2, 4, 4), make(2, 4, 4)})));
}

TEST(PriorityOrder, RateAndDeadlineMonotonic) {
  TaskSet ts({make(1, 10, 4), make(1, 5, 9)});
  EXPECT_EQ(priority_order(ts, PriorityOrder::kRateMonotonic),
            (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(priority_order(ts, PriorityOrder::kDeadlineMonotonic),
            (std::vector<std::size_t>{0, 1}));
}

TEST(ResponseTimes, ClassicTwoTaskExample) {
  // hp: c=1, p=4; lp: c=2, p=6 -> R_lp = 2 + ceil(R/4)*1 -> 3.
  TaskSet ts({make(1, 4, 4), make(2, 6, 6)});
  const auto rts = response_times(ts, PriorityOrder::kRateMonotonic);
  ASSERT_TRUE(rts[0].has_value());
  ASSERT_TRUE(rts[1].has_value());
  EXPECT_EQ(*rts[0], 1);
  EXPECT_EQ(*rts[1], 3);
}

TEST(ResponseTimes, UnschedulableTaskReportsNullopt) {
  TaskSet ts({make(3, 4, 4), make(3, 6, 6)});  // U > 1
  const auto rts = response_times(ts, PriorityOrder::kRateMonotonic);
  EXPECT_TRUE(rts[0].has_value());
  EXPECT_FALSE(rts[1].has_value());
}

TEST(ResponseTimes, BlockingFromLowerPriorityCriticalSection) {
  // High-priority task blocked by the low-priority 2-slot monitor call.
  TaskSet ts({make(1, 10, 10), make(4, 20, 20, 2)});
  const auto rts = response_times(ts, PriorityOrder::kRateMonotonic);
  ASSERT_TRUE(rts[0].has_value());
  EXPECT_EQ(*rts[0], 3);  // 1 + blocking 2
}

TEST(ResponseTimes, RequiresConstrainedDeadlines) {
  TaskSet ts({make(1, 4, 10)});
  EXPECT_THROW((void)response_times(ts, PriorityOrder::kRateMonotonic),
               std::invalid_argument);
}

TEST(FixedPrioritySchedulable, BoundaryCase) {
  // RM-schedulable beyond the LL bound (harmonic periods, U = 1).
  TaskSet ts({make(1, 2, 2), make(2, 4, 4)});
  EXPECT_TRUE(fixed_priority_schedulable(ts, PriorityOrder::kRateMonotonic));
  EXPECT_FALSE(rm_utilization_test(ts));  // utilization test is only sufficient
}

TEST(DemandBound, StepsAtDeadlines) {
  TaskSet ts({make(2, 5, 4)});
  EXPECT_EQ(demand_bound(ts, 3), 0);
  EXPECT_EQ(demand_bound(ts, 4), 2);
  EXPECT_EQ(demand_bound(ts, 8), 2);
  EXPECT_EQ(demand_bound(ts, 9), 4);
}

TEST(EdfSchedulable, ImplicitDeadlineFullUtilization) {
  TaskSet ts({make(1, 2, 2), make(2, 4, 4)});  // U = 1
  EXPECT_TRUE(edf_schedulable(ts));
}

TEST(EdfSchedulable, OverUtilizationRejected) {
  TaskSet ts({make(3, 4, 4), make(2, 4, 4)});
  EXPECT_FALSE(edf_schedulable(ts));
}

TEST(EdfSchedulable, ConstrainedDeadlineDemandViolation) {
  // Two tasks each needing 2 slots by t=2: h(2) = 4 > 2.
  TaskSet ts({make(2, 10, 2), make(2, 10, 2)});
  EXPECT_FALSE(edf_schedulable(ts));
}

TEST(EdfSchedulable, ConstrainedDeadlineFeasible) {
  TaskSet ts({make(1, 4, 2), make(1, 4, 3)});
  EXPECT_TRUE(edf_schedulable(ts));
}

TEST(EdfSchedulable, EmptySetTriviallySchedulable) {
  EXPECT_TRUE(edf_schedulable(TaskSet{}));
}

TEST(EdfSchedulable, RejectsUnconstrainedDeadlines) {
  TaskSet ts({make(1, 2, 5)});
  EXPECT_THROW((void)edf_schedulable(ts), std::invalid_argument);
}

TEST(EdfUtilizationTest, SimpleThreshold) {
  EXPECT_TRUE(edf_utilization_test(TaskSet({make(1, 2, 2), make(1, 2, 2)})));
  EXPECT_FALSE(edf_utilization_test(TaskSet({make(3, 4, 4), make(2, 4, 4)})));
}

TEST(EdfVsRm, EdfStrictlyMoreCapable) {
  // U = 1 non-harmonic: EDF yes, RM no.
  TaskSet ts({make(2, 4, 4), make(3, 6, 6)});
  EXPECT_TRUE(edf_schedulable(ts));
  EXPECT_FALSE(fixed_priority_schedulable(ts, PriorityOrder::kRateMonotonic));
}

// ---------------------------------------------------------------------------
// Property: edf_schedulable checks only deadlines inside the synchronous
// busy period; its verdict must equal the full-hyperperiod demand test.

// The full-hyperperiod reference: h(t) <= t at every absolute deadline
// up to the hyperperiod, after the same utilization gate.
bool edf_full_hyperperiod(const TaskSet& ts) {
  if (ts.utilization() > 1.0 + 1e-12) return false;
  const Time horizon = ts.hyperperiod();
  for (const Task& task : ts.tasks()) {
    for (Time t = task.d; t <= horizon; t += task.p) {
      if (demand_bound(ts, t) > t) return false;
    }
  }
  return true;
}

// First t in [1, H] with h(t) > t, or 0 when there is none.
Time first_violation(const TaskSet& ts) {
  for (Time t = 1; t <= ts.hyperperiod(); ++t) {
    if (demand_bound(ts, t) > t) return t;
  }
  return 0;
}

// Least fixed point of L = Σ ceil(L / p_i) c_i, capped at the hyperperiod.
Time busy_period(const TaskSet& ts) {
  Time busy = 0;
  for (const Task& task : ts.tasks()) busy += task.c;
  while (busy < ts.hyperperiod()) {
    Time next = 0;
    for (const Task& task : ts.tasks()) next += ((busy + task.p - 1) / task.p) * task.c;
    if (next == busy) break;
    busy = next;
  }
  return std::min(busy, ts.hyperperiod());
}

// Periods divide 720, so every hyperperiod is at most 720.
constexpr Time kPeriods[] = {2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 30, 36, 40, 45, 48};
constexpr Time kFrames[] = {12, 24, 36, 48, 60, 72, 120, 144, 240, 360, 720};

// Three families, by seed: (0) free random sets with d <= p, under and
// over U = 1; (1) U = 1 exactly: tasks with periods dividing a frame P
// plus one period-P task taking the rest of the frame, deadlines d <= p;
// (2) the same U = 1 frame with implicit small tasks and a frame task
// whose deadline falls 0..3 slots short of P, so h first exceeds t at a
// deadline late in the busy period.
TaskSet random_task_set(std::uint64_t seed) {
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  TaskSet ts;
  const auto deadline = [&rng](Time c, Time p) { return rng.uniform(c, p); };
  if (seed % 3 == 0) {
    const auto n = rng.uniform(1, 6);
    for (std::int64_t i = 0; i < n; ++i) {
      const Time p = kPeriods[rng.uniform(0, std::ssize(kPeriods) - 1)];
      const Time c = rng.uniform(1, std::clamp<Time>(2 * p / n, 1, p));
      ts.add(make(c, p, deadline(c, p)));
    }
    return ts;
  }
  const Time frame = kFrames[rng.uniform(0, std::ssize(kFrames) - 1)];
  const bool tight_tail = seed % 3 == 2;
  Time used = 0;  // slots per frame
  const auto n = rng.uniform(1, 5);
  for (std::int64_t i = 0; i < n; ++i) {
    const Time p = kPeriods[rng.uniform(0, std::ssize(kPeriods) - 1)];
    if (frame % p != 0 || p * 4 > frame) continue;
    const Time c = rng.uniform(1, std::max<Time>(1, p / 3));
    if (used + c * (frame / p) >= frame) break;
    used += c * (frame / p);
    ts.add(make(c, p, tight_tail ? p : deadline(c, p)));
  }
  const Time c = frame - used;
  const Time d = tight_tail ? std::max(c, frame - rng.uniform(0, 3)) : deadline(c, frame);
  ts.add(make(c, frame, d));
  return ts;
}

TEST(EdfSchedulable, BusyPeriodTestEqualsFullHyperperiodTest) {
  std::size_t schedulable = 0, unschedulable = 0, full_utilization = 0, late_first = 0;
  for (std::uint64_t seed = 0; seed < 2400; ++seed) {
    const TaskSet ts = random_task_set(seed);
    ASSERT_TRUE(ts.constrained_deadlines());
    const bool expected = edf_full_hyperperiod(ts);
    ASSERT_EQ(edf_schedulable(ts), expected) << "seed " << seed;
    // The reference itself against brute force over every t <= H.
    ASSERT_EQ(expected, ts.utilization() <= 1.0 + 1e-12 && first_violation(ts) == 0)
        << "seed " << seed;
    Time frame_slots = 0;  // Σ c_i H / p_i, exact U = 1 iff it equals H
    for (const Task& task : ts.tasks()) frame_slots += task.c * (ts.hyperperiod() / task.p);
    if (frame_slots == ts.hyperperiod()) ++full_utilization;
    if (expected) {
      ++schedulable;
    } else {
      ++unschedulable;
      const Time first = first_violation(ts);
      if (first > 0 && 2 * first > busy_period(ts)) ++late_first;
    }
  }
  // The sample must cover both verdicts, exact U = 1 and violations in
  // the second half of the busy period, or the equality above is weak.
  EXPECT_GT(schedulable, 400u);
  EXPECT_GT(unschedulable, 400u);
  EXPECT_GT(full_utilization, 800u);
  EXPECT_GT(late_first, 100u);
}

TEST(EdfSchedulable, LateViolationInsideTheBusyPeriod) {
  // h(2..6) = 1..3, then h(98) = 49 + 50 = 99 > 98: the first violation
  // sits two slots before the end of the busy period L = 100.
  EXPECT_FALSE(edf_schedulable(TaskSet({make(1, 2, 2), make(50, 100, 98)})));
  EXPECT_TRUE(edf_schedulable(TaskSet({make(1, 2, 2), make(50, 100, 100)})));
}

}  // namespace
}  // namespace rtg::rt
