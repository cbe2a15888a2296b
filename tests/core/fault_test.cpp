#include "core/fault.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/fault_injection.hpp"
#include "core/latency.hpp"
#include "rt/scheduler.hpp"

namespace rtg::core {
namespace {

TaskGraph single(ElementId e) {
  TaskGraph tg;
  tg.add_op(e);
  return tg;
}

// The omission model: every execution dropped with probability `rate`.
FaultPlan omissions(double rate, std::uint64_t seed) {
  return FaultPlan{seed, {FaultSpec{FaultKind::kDrop, 0, kOpenEnd, rate}}};
}

GraphModel one_async(Time d) {
  CommGraph comm;
  comm.add_element("a", 1);
  GraphModel model(std::move(comm));
  model.add_constraint(
      TimingConstraint{"A", single(0), 4, d, ConstraintKind::kAsynchronous});
  return model;
}

TEST(FaultTolerantLatency, ReplicaOneMatchesLatency) {
  StaticSchedule s;
  s.push_execution(0, 1);
  s.push_idle(1);
  EXPECT_EQ(fault_tolerant_latency(s, single(0), 1), schedule_latency(s, single(0)));
}

TEST(FaultTolerantLatency, TwoDisjointExecutionsNeedTwoOccurrences) {
  StaticSchedule s;  // "a ." -> a at 0, 2, 4, ...
  s.push_execution(0, 1);
  s.push_idle(1);
  // One execution per 2 slots: 2 disjoint ones from t=1 finish at 5.
  EXPECT_EQ(fault_tolerant_latency(s, single(0), 2), 4);
  EXPECT_EQ(fault_tolerant_latency(s, single(0), 3), 6);
}

TEST(FaultTolerantLatency, ZeroReplicasIsZero) {
  StaticSchedule s;
  s.push_execution(0, 1);
  EXPECT_EQ(fault_tolerant_latency(s, single(0), 0), 0);
}

TEST(FaultTolerantLatency, InfiniteWhenElementMissing) {
  StaticSchedule s;
  s.push_execution(0, 1);
  EXPECT_EQ(fault_tolerant_latency(s, single(1), 2), std::nullopt);
}

TEST(FaultTolerantLatency, ChainReplicasAreDisjoint) {
  // "a b" cyclic: two disjoint a->b executions from t=0 use cycles 1
  // and 2, finishing at 4.
  StaticSchedule s;
  s.push_execution(0, 1);
  s.push_execution(1, 1);
  TaskGraph chain;
  const OpId oa = chain.add_op(0);
  const OpId ob = chain.add_op(1);
  chain.add_dep(oa, ob);
  const auto ft = fault_tolerant_latency(s, chain, 2);
  ASSERT_TRUE(ft.has_value());
  EXPECT_EQ(*ft, 5);  // worst window start just after a@0
}

TEST(HardenModel, DividesDeadlines) {
  const GraphModel model = one_async(9);
  const GraphModel hardened = harden_model(model, 2);
  EXPECT_EQ(hardened.constraint(0).deadline, 3);
  EXPECT_FALSE(hardened.constraint(0).periodic());
}

TEST(HardenModel, RejectsTooSmallDeadline) {
  const GraphModel model = one_async(2);
  EXPECT_THROW((void)harden_model(model, 2), std::invalid_argument);
}

TEST(HardenAndSchedule, KZeroEquivalentToPlain) {
  const GraphModel model = one_async(8);
  const HardenedResult r = harden_and_schedule(model, 0);
  ASSERT_TRUE(r.success) << r.failure_reason;
  ASSERT_EQ(r.ft_latency.size(), 1u);
  EXPECT_LE(*r.ft_latency[0], 8);
}

TEST(HardenAndSchedule, ProvidesKPlusOneExecutions) {
  const GraphModel model = one_async(12);
  for (std::size_t k : {1u, 2u}) {
    const HardenedResult r = harden_and_schedule(model, k);
    ASSERT_TRUE(r.success) << "k=" << k << ": " << r.failure_reason;
    const auto ft = fault_tolerant_latency(
        *r.schedule, r.scheduled_model.constraint(0).task_graph, k + 1);
    ASSERT_TRUE(ft.has_value());
    EXPECT_LE(*ft, 12);
  }
}

TEST(HardenAndSchedule, UtilizationGrowsWithK) {
  const GraphModel model = one_async(12);
  const HardenedResult k0 = harden_and_schedule(model, 0);
  const HardenedResult k2 = harden_and_schedule(model, 2);
  ASSERT_TRUE(k0.success && k2.success);
  EXPECT_GT(k2.utilization, k0.utilization);
}

TEST(HardenAndSchedule, FailsWhenNoBudget) {
  // Deadline 2, k=2 -> hardened deadline would be 0: impossible.
  const GraphModel model = one_async(2);
  const HardenedResult r = harden_and_schedule(model, 2);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.failure_reason.find("deadline too small"), std::string::npos);
}

TEST(OmissionPlan, ZeroFailureRateServesEverything) {
  const GraphModel model = one_async(8);
  const HardenedResult r = harden_and_schedule(model, 0);
  ASSERT_TRUE(r.success);
  const auto arrivals = rt::max_rate_arrivals(4, 400);
  const FaultRunResult fr = run_executive_with_faults(
      *r.schedule, r.scheduled_model, {arrivals}, 420, omissions(0.0, 1));
  EXPECT_EQ(fr.counters.faulted_ops(), 0u);
  EXPECT_DOUBLE_EQ(fr.survival_rate(), 1.0);
  EXPECT_GT(fr.executive.invocations.size(), 50u);
}

TEST(OmissionPlan, HardenedScheduleSurvivesBetter) {
  const GraphModel model = one_async(12);
  const HardenedResult plain = harden_and_schedule(model, 0);
  const HardenedResult hard = harden_and_schedule(model, 2);
  ASSERT_TRUE(plain.success && hard.success);

  const auto arrivals = rt::max_rate_arrivals(4, 2000);
  const FaultPlan plan = omissions(0.3, 99);
  // Verify against the ORIGINAL 12-slot deadlines (the hardened models
  // carry the divided deadlines; the element ids coincide because the
  // single element is unit weight and needs no pipelining).
  const FaultRunResult p =
      run_executive_with_faults(*plain.schedule, model, {arrivals}, 2100, plan);
  const FaultRunResult h =
      run_executive_with_faults(*hard.schedule, model, {arrivals}, 2100, plan);
  EXPECT_GT(p.counters.dropped, 0u);
  EXPECT_GT(h.survival_rate(), p.survival_rate());
  EXPECT_GT(h.survival_rate(), 0.95);
}

TEST(InjectOverruns, ZeroProbabilityIsIdentity) {
  const GraphModel model = one_async(8);
  const HardenedResult r = harden_and_schedule(model, 0);
  ASSERT_TRUE(r.success);
  const std::vector<ScheduledOp> ops = unroll_ops(*r.schedule, 5);
  OverrunModel om;
  om.probability = 0.0;
  std::size_t count = 123;
  const std::vector<ScheduledOp> out = inject_overruns(ops, om, &count);
  EXPECT_EQ(count, 0u);
  ASSERT_EQ(out.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(out[i].start, ops[i].start);
    EXPECT_EQ(out[i].finish(), ops[i].finish());
  }
}

TEST(InjectOverruns, CertainOverrunSlidesSuccessors) {
  // Two back-to-back unit ops: with p=1 and magnitude 2 the first op
  // becomes [0,2) and pushes the second to [2,4).
  std::vector<ScheduledOp> ops;
  ops.push_back(ScheduledOp{0, 0, 1});
  ops.push_back(ScheduledOp{0, 1, 1});
  OverrunModel om;
  om.probability = 1.0;
  om.magnitude = 2.0;
  std::size_t count = 0;
  const std::vector<ScheduledOp> out = inject_overruns(ops, om, &count);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(out[0].start, 0);
  EXPECT_EQ(out[0].finish(), 2);
  EXPECT_EQ(out[1].start, 2);
  EXPECT_EQ(out[1].finish(), 4);
}

TEST(InjectOverruns, MagnitudeBelowOneNeverShrinksOps) {
  std::vector<ScheduledOp> ops;
  ops.push_back(ScheduledOp{0, 0, 2});
  OverrunModel om;
  om.probability = 1.0;
  om.magnitude = 0.25;  // clamped to 1.0: an overrun never shortens work
  const std::vector<ScheduledOp> out = inject_overruns(ops, om);
  EXPECT_EQ(out[0].duration, 2);
}

TEST(InjectOverruns, ElementLocalRatesOverrideDefaults) {
  std::vector<ScheduledOp> ops;
  ops.push_back(ScheduledOp{0, 0, 1});
  ops.push_back(ScheduledOp{1, 1, 1});
  OverrunModel om;
  om.probability = 0.0;
  om.magnitude = 3.0;
  om.element_probability = {0.0, 1.0};  // only element 1 overruns
  std::size_t count = 0;
  const std::vector<ScheduledOp> out = inject_overruns(ops, om, &count);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(out[0].finish(), 1);  // element 0 untouched
  EXPECT_EQ(out[1].duration, 3);
}

TEST(InjectOverruns, DeterministicUnderSeed) {
  const GraphModel model = one_async(8);
  const HardenedResult r = harden_and_schedule(model, 0);
  ASSERT_TRUE(r.success);
  const std::vector<ScheduledOp> ops = unroll_ops(*r.schedule, 50);
  OverrunModel om;
  om.probability = 0.4;
  om.seed = 7;
  std::size_t c1 = 0, c2 = 0;
  const auto a = inject_overruns(ops, om, &c1);
  const auto b = inject_overruns(ops, om, &c2);
  EXPECT_EQ(c1, c2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].finish(), b[i].finish());
  }
  om.seed = 8;
  std::size_t c3 = 0;
  (void)inject_overruns(ops, om, &c3);
  EXPECT_GT(c1, 0u);  // p=0.4 over ~50 ops: some overruns expected
}

TEST(RunWithOverruns, CleanRunServesEverything) {
  const GraphModel model = one_async(8);
  const HardenedResult r = harden_and_schedule(model, 0);
  ASSERT_TRUE(r.success);
  const auto arrivals = rt::max_rate_arrivals(4, 400);
  OverrunModel om;
  om.probability = 0.0;
  const OverrunRunResult out =
      run_with_overruns(*r.schedule, r.scheduled_model, {arrivals}, 420, om);
  EXPECT_EQ(out.overrun_ops, 0u);
  EXPECT_EQ(out.max_slide, 0);
  EXPECT_DOUBLE_EQ(out.survival_rate(), 1.0);
  EXPECT_GT(out.invocations, 50u);
}

TEST(RunWithOverruns, HeavyOverrunsCauseMisses) {
  // Deadline equal to the service period leaves no slack: every
  // overrun slides the serving execution past some deadline.
  const GraphModel model = one_async(4);
  const HardenedResult r = harden_and_schedule(model, 0);
  ASSERT_TRUE(r.success);
  const auto arrivals = rt::max_rate_arrivals(4, 1000);
  OverrunModel om;
  om.probability = 0.5;
  om.magnitude = 3.0;
  om.seed = 3;
  const OverrunRunResult out =
      run_with_overruns(*r.schedule, r.scheduled_model, {arrivals}, 1100, om);
  EXPECT_GT(out.overrun_ops, 0u);
  EXPECT_GT(out.max_slide, 0);
  EXPECT_LT(out.survival_rate(), 1.0);
}

TEST(RunWithOverruns, RejectsMalformedArrivalsAndNegativeHorizon) {
  // The shared executive prelude rejects what run_executive rejects: an
  // unsorted stream with a negative instant, and negative horizons.
  const GraphModel model = one_async(8);
  const HardenedResult r = harden_and_schedule(model, 0);
  ASSERT_TRUE(r.success);
  OverrunModel om;
  om.probability = 0.5;
  EXPECT_THROW((void)run_with_overruns(*r.schedule, r.scheduled_model,
                                       {{10, 2, 3, -5}}, 100, om),
               std::invalid_argument);
  const auto arrivals = rt::max_rate_arrivals(4, 100);
  EXPECT_THROW(
      (void)run_with_overruns(*r.schedule, r.scheduled_model, {arrivals}, -1, om),
      std::invalid_argument);
  EXPECT_THROW(
      (void)run_with_overruns(*r.schedule, r.scheduled_model, {arrivals}, -1000, om),
      std::invalid_argument);
}

TEST(OmissionPlan, TotalLossKillsEverything) {
  const GraphModel model = one_async(8);
  const HardenedResult r = harden_and_schedule(model, 0);
  ASSERT_TRUE(r.success);
  const auto arrivals = rt::max_rate_arrivals(4, 200);
  const FaultRunResult fr = run_executive_with_faults(
      *r.schedule, r.scheduled_model, {arrivals}, 220, omissions(1.0, 1));
  EXPECT_EQ(fr.satisfied_count(), 0u);
}

}  // namespace
}  // namespace rtg::core
