// Edge cases for corners the module suites leave thin: op-level
// (non-preemptive) EDF interleaving, coalescing
// across constraint kinds, executive horizon arithmetic, and schedule
// containers under stress.
#include <gtest/gtest.h>

#include "core/heuristic.hpp"
#include "core/runtime.hpp"

namespace rtg::core {
namespace {

TEST(HeuristicEdge, NonPreemptiveOpsInterleaveAcrossConstraints) {
  // Without pipelining, ops are atomic but constraints still interleave
  // at op boundaries: two weight-2 elements, loose deadlines.
  CommGraph comm;
  comm.add_element("x", 2, false);
  comm.add_element("y", 2, false);
  GraphModel model(std::move(comm));
  for (ElementId e = 0; e < 2; ++e) {
    TaskGraph tg;
    tg.add_op(e);
    model.add_constraint(TimingConstraint{"c" + std::to_string(e), std::move(tg), 4,
                                          8, ConstraintKind::kAsynchronous});
  }
  HeuristicOptions options;
  options.pipeline = false;
  const HeuristicResult r = latency_schedule(model, options);
  ASSERT_TRUE(r.success) << r.failure_reason;
  // Each execution occupies 2 contiguous slots in the schedule.
  for (const ScheduledOp& op : r.schedule->ops()) {
    EXPECT_EQ(op.duration, 2);
  }
  EXPECT_TRUE(r.report.feasible);
}

TEST(HeuristicEdge, CoalescePeriodicWithAsyncBecomesAsync) {
  // X periodic (p=24, d=24) and Z async (d=20) share fs: the merged
  // constraint must be asynchronous with deadline min(24, 20).
  CommGraph comm;
  const auto fx = comm.add_element("fx", 1);
  const auto fz = comm.add_element("fz", 1);
  const auto fs = comm.add_element("fs", 2);
  comm.add_channel(fx, fs);
  comm.add_channel(fz, fs);
  GraphModel model(std::move(comm));
  {
    TaskGraph tg;
    const auto a = tg.add_op(fx);
    const auto b = tg.add_op(fs);
    tg.add_dep(a, b);
    model.add_constraint(
        TimingConstraint{"X", std::move(tg), 24, 24, ConstraintKind::kPeriodic});
  }
  {
    TaskGraph tg;
    const auto a = tg.add_op(fz);
    const auto b = tg.add_op(fs);
    tg.add_dep(a, b);
    model.add_constraint(
        TimingConstraint{"Z", std::move(tg), 30, 20, ConstraintKind::kAsynchronous});
  }
  const GraphModel merged = coalesce_model(model);
  if (merged.constraint_count() == 1) {
    EXPECT_EQ(merged.constraint(0).kind, ConstraintKind::kAsynchronous);
    EXPECT_EQ(merged.constraint(0).deadline, 20);
    // A schedule for the merged model must satisfy the original.
    HeuristicOptions opts;
    opts.coalesce = true;
    const HeuristicResult r = latency_schedule(model, opts);
    ASSERT_TRUE(r.success) << r.failure_reason;
    const GraphModel original_pipelined = pipeline_model(model).model;
    EXPECT_TRUE(verify_schedule(*r.schedule, original_pipelined).feasible);
  } else {
    // Merging wasn't profitable: both engines must still schedule it.
    EXPECT_TRUE(latency_schedule(model).success);
  }
}

TEST(RuntimeEdge, HorizonNotMultipleOfScheduleLength) {
  CommGraph comm;
  comm.add_element("a", 1);
  GraphModel model(std::move(comm));
  TaskGraph tg;
  tg.add_op(0);
  model.add_constraint(
      TimingConstraint{"P", std::move(tg), 3, 3, ConstraintKind::kPeriodic});
  StaticSchedule sched;
  sched.push_execution(0, 1);
  sched.push_idle(2);
  // Horizon 10 = 3 full periods + 1 slot: invocations at 0, 3, 6 have
  // windows inside; t=9's deadline (12) exceeds the horizon.
  const ExecutiveResult r = run_executive(sched, model, {{}}, 10);
  EXPECT_EQ(r.invocations.size(), 3u);
  EXPECT_TRUE(r.all_met);
  // ceil(10/3) = 4 repetitions of a 1-op schedule.
  EXPECT_EQ(r.dispatches, 4u);
}

TEST(RuntimeEdge, ZeroHorizonRecordsNothing) {
  CommGraph comm;
  comm.add_element("a", 1);
  GraphModel model(std::move(comm));
  TaskGraph tg;
  tg.add_op(0);
  model.add_constraint(
      TimingConstraint{"P", std::move(tg), 3, 3, ConstraintKind::kPeriodic});
  StaticSchedule sched;
  sched.push_execution(0, 1);
  const ExecutiveResult r = run_executive(sched, model, {{}}, 0);
  EXPECT_TRUE(r.invocations.empty());
  EXPECT_TRUE(r.all_met);
}

TEST(ScheduleEdge, ManyEntriesStressAccounting) {
  StaticSchedule s;
  Time expect_len = 0, expect_busy = 0;
  for (int i = 0; i < 2000; ++i) {
    if (i % 3 == 0) {
      s.push_idle(1 + i % 2);
      expect_len += 1 + i % 2;
    } else {
      s.push_execution(static_cast<ElementId>(i % 5), 1 + i % 3);
      expect_len += 1 + i % 3;
      expect_busy += 1 + i % 3;
    }
  }
  EXPECT_EQ(s.length(), expect_len);
  EXPECT_EQ(s.busy(), expect_busy);
  EXPECT_EQ(s.ops().size(), s.ops_of(0).size() + s.ops_of(1).size() +
                                s.ops_of(2).size() + s.ops_of(3).size() +
                                s.ops_of(4).size());
}

}  // namespace
}  // namespace rtg::core
