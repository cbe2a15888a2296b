#include "core/fault_injection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "core/degradation.hpp"
#include "core/fault.hpp"
#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "gen/generator.hpp"
#include "monitor/streaming_monitor.hpp"
#include "rt/cyclic_executive.hpp"
#include "rt/recovery.hpp"
#include "rt/scheduler.hpp"

namespace rtg::core {
namespace {

TaskGraph single(ElementId e) {
  TaskGraph tg;
  tg.add_op(e);
  return tg;
}

TaskGraph chain2(ElementId a, ElementId b) {
  TaskGraph tg;
  const OpId u = tg.add_op(a);
  const OpId v = tg.add_op(b);
  tg.add_dep(u, v);
  return tg;
}

// Two elements, one periodic chain X: (a -> b, p 8, d 8) and one
// sporadic Z: (a, sep 6, d 6). Schedule "a b . a . . . ." (period 8)
// is feasible for both.
GraphModel two_constraint_model() {
  CommGraph comm;
  comm.add_element("a", 1);
  comm.add_element("b", 1);
  comm.add_channel(0, 1);
  GraphModel model(std::move(comm));
  model.add_constraint(TimingConstraint{"X", chain2(0, 1), 8, 8});
  model.add_constraint(
      TimingConstraint{"Z", single(0), 6, 6, ConstraintKind::kAsynchronous});
  return model;
}

StaticSchedule two_constraint_schedule() {
  StaticSchedule s;
  s.push_execution(0, 1);
  s.push_execution(1, 1);
  s.push_idle(1);
  s.push_execution(0, 1);
  s.push_idle(4);
  return s;
}

ConstraintArrivals arrivals_z(Time horizon) {
  ConstraintArrivals arrivals(2);
  arrivals[1] = rt::max_rate_arrivals(6, horizon);
  return arrivals;
}

// --- Baseline equivalence ----------------------------------------------

// Every invocation field, so the blind executives can be compared.
void expect_same_invocations(const std::vector<InvocationRecord>& a,
                             const std::vector<InvocationRecord>& b,
                             const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].constraint, b[i].constraint) << what << " #" << i;
    EXPECT_EQ(a[i].invoked, b[i].invoked) << what << " #" << i;
    EXPECT_EQ(a[i].abs_deadline, b[i].abs_deadline) << what << " #" << i;
    EXPECT_EQ(a[i].completed, b[i].completed) << what << " #" << i;
    EXPECT_EQ(a[i].satisfied, b[i].satisfied) << what << " #" << i;
  }
}

TEST(FaultInjection, EmptyPlanReproducesRunExecutive) {
  // Clean runs of every blind entry point over the same table agree
  // invocation for invocation and slot for slot: run_executive, an
  // empty fault plan, zero-probability overruns, and the self-healing
  // executive with no faults and a single schedule. Swept over the
  // standing scenario corpus plus the hand-built two-constraint model.
  struct Case {
    std::string name;
    GraphModel model;
    StaticSchedule sched;
  };
  std::vector<Case> cases;
  cases.push_back({"two-constraint", two_constraint_model(), two_constraint_schedule()});
  for (std::uint64_t index = 0; index < 24; ++index) {
    const gen::Scenario scenario = gen::generate(gen::corpus_options(index));
    const HeuristicResult h = latency_schedule(scenario.model);
    if (!h.success) continue;
    cases.push_back({scenario.name, h.scheduled_model, *h.schedule});
  }
  ASSERT_GT(cases.size(), 12u);

  const Time horizon = 240;
  for (const Case& c : cases) {
    ConstraintArrivals arrivals(c.model.constraint_count());
    for (std::size_t i = 0; i < c.model.constraint_count(); ++i) {
      const TimingConstraint& tc = c.model.constraint(i);
      if (!tc.periodic()) arrivals[i] = rt::max_rate_arrivals(tc.period, horizon);
    }

    sim::ExecutionTrace plain_trace;
    sim::TraceAppender plain_sink(plain_trace);
    const ExecutiveResult plain =
        run_executive(c.sched, c.model, arrivals, horizon, &plain_sink);

    sim::ExecutionTrace faulted_trace;
    sim::TraceAppender faulted_sink(faulted_trace);
    const FaultRunResult faulted = run_executive_with_faults(
        c.sched, c.model, arrivals, horizon, FaultPlan{}, &faulted_sink);
    EXPECT_EQ(plain_trace, faulted_trace) << c.name;
    EXPECT_EQ(faulted.executive.all_met, plain.all_met) << c.name;
    EXPECT_EQ(faulted.executive.dispatches, plain.dispatches) << c.name;
    EXPECT_EQ(faulted.counters.faulted_ops(), 0u) << c.name;
    expect_same_invocations(plain.invocations, faulted.executive.invocations,
                            c.name + " with an empty plan");

    // run_with_overruns reports tallies, not records: its slot trace
    // pins the timeline and the tallies pin the scoring.
    sim::ExecutionTrace overrun_trace;
    sim::TraceAppender overrun_sink(overrun_trace);
    const OverrunRunResult overrun = run_with_overruns(
        c.sched, c.model, arrivals, horizon, OverrunModel{}, &overrun_sink);
    EXPECT_EQ(plain_trace, overrun_trace) << c.name;
    EXPECT_EQ(overrun.invocations, plain.invocations.size()) << c.name;
    EXPECT_EQ(overrun.satisfied, faulted.satisfied_count()) << c.name;

    rt::FailoverOptions fo;
    fo.max_offsets = std::numeric_limits<std::size_t>::max();
    const rt::FailoverTable table = rt::compute_failover_table(c.model, {c.sched}, fo);
    const rt::SelfHealingResult healed =
        rt::run_self_healing(c.model, table, arrivals, horizon, {});
    EXPECT_EQ(plain_trace, healed.trace) << c.name;
    EXPECT_EQ(healed.executive.all_met, plain.all_met) << c.name;
    EXPECT_EQ(healed.executive.dispatches, plain.dispatches) << c.name;
    expect_same_invocations(plain.invocations, healed.executive.invocations,
                            c.name + " self-healing");
  }
}

TEST(FaultInjection, DispatchesCountEntriesStartedBeforeHorizon) {
  // A 3-op, length-8 table cut mid-period: 7 full periods give 21
  // dispatches, then the ops at 56 and 57 fall inside horizon 58 and
  // only the one at 56 inside horizon 57. Every blind executive counts
  // those, not whole table periods (3 * ceil(horizon / 8) = 24).
  const GraphModel model = two_constraint_model();
  const StaticSchedule sched = two_constraint_schedule();
  rt::FailoverOptions fo;
  fo.max_offsets = std::numeric_limits<std::size_t>::max();
  const rt::FailoverTable table = rt::compute_failover_table(model, {sched}, fo);
  for (const auto& [horizon, want] :
       {std::pair<Time, std::size_t>{57, 22}, std::pair<Time, std::size_t>{58, 23}}) {
    const ConstraintArrivals arrivals = arrivals_z(horizon);
    const ExecutiveResult plain = run_executive(sched, model, arrivals, horizon);
    const FaultRunResult faulted =
        run_executive_with_faults(sched, model, arrivals, horizon, FaultPlan{});
    const rt::SelfHealingResult healed =
        rt::run_self_healing(model, table, arrivals, horizon, {});
    EXPECT_EQ(plain.dispatches, want) << "horizon " << horizon;
    EXPECT_EQ(faulted.executive.dispatches, want) << "horizon " << horizon;
    EXPECT_EQ(healed.executive.dispatches, want) << "horizon " << horizon;
  }
}

// --- Determinism -------------------------------------------------------

TEST(FaultInjection, OracleIsDeterministicAndOrderIndependent) {
  FaultPlan plan;
  plan.seed = 7;
  plan.faults.push_back(FaultSpec{FaultKind::kSlotLoss, 0, 500, 0.3});
  plan.faults.push_back(FaultSpec{FaultKind::kDrop, 0, 500, 0.4, 0});
  const FaultInjector a(plan);
  const FaultInjector b(plan);

  // Same answers querying forward and backward.
  for (Time t = 0; t < 200; ++t) {
    EXPECT_EQ(a.slot_lost(t), b.slot_lost(199 - (199 - t)));
    EXPECT_EQ(a.fate(0, t, 1), b.fate(0, t, 1));
  }
  std::vector<bool> fwd;
  std::vector<bool> bwd;
  for (Time t = 0; t < 200; ++t) fwd.push_back(a.slot_lost(t));
  for (Time t = 199; t >= 0; --t) bwd.push_back(b.slot_lost(t));
  std::reverse(bwd.begin(), bwd.end());
  EXPECT_EQ(fwd, bwd);

  // Different seeds give different draws somewhere.
  FaultPlan other = plan;
  other.seed = 8;
  const FaultInjector c(other);
  bool differs = false;
  for (Time t = 0; t < 200 && !differs; ++t) {
    differs = a.slot_lost(t) != c.slot_lost(t);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjection, IdenticalSeedsGiveBitIdenticalRuns) {
  const GraphModel model = two_constraint_model();
  const StaticSchedule sched = two_constraint_schedule();
  const ConstraintArrivals arrivals = arrivals_z(128);
  FaultPlan plan;
  plan.seed = 42;
  plan.faults.push_back(FaultSpec{FaultKind::kDrop, 10, 60, 0.5, kAnyElement});
  plan.faults.push_back(
      FaultSpec{FaultKind::kClockDrift, 0, kOpenEnd, 1.0, kAnyElement, kAnyConstraint, 17});
  plan.faults.push_back(
      FaultSpec{FaultKind::kArrivalJitter, 0, kOpenEnd, 1.0, kAnyElement, 1, 3});

  sim::ExecutionTrace t1;
  sim::TraceAppender s1(t1);
  const FaultRunResult r1 = run_executive_with_faults(sched, model, arrivals, 128, plan, &s1);
  sim::ExecutionTrace t2;
  sim::TraceAppender s2(t2);
  const FaultRunResult r2 = run_executive_with_faults(sched, model, arrivals, 128, plan, &s2);

  EXPECT_EQ(t1, t2);
  EXPECT_EQ(r1.counters, r2.counters);
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_EQ(r1.effective_arrivals, r2.effective_arrivals);
  EXPECT_EQ(r1.satisfied_count(), r2.satisfied_count());
}

// --- Plan validation and parsing ---------------------------------------

TEST(FaultInjection, ValidateRejectsMalformedSpecs) {
  const GraphModel model = two_constraint_model();
  FaultPlan plan;
  plan.faults.push_back(FaultSpec{FaultKind::kSlotLoss, 10, 5, 0.5});  // window reversed
  plan.faults.push_back(FaultSpec{FaultKind::kDrop, 0, 10, 1.5, 0});   // rate > 1
  plan.faults.push_back(
      FaultSpec{FaultKind::kElementFail, 0, kOpenEnd, 1.0, 99});  // unknown element
  plan.faults.push_back(FaultSpec{FaultKind::kArrivalJitter, 0, kOpenEnd, 1.0,
                                  kAnyElement, 0, 3});  // jitter on periodic
  plan.faults.push_back(FaultSpec{FaultKind::kClockDrift, 0, kOpenEnd, 1.0,
                                  kAnyElement, kAnyConstraint, 0});  // every < 1
  const std::vector<std::string> issues = validate_fault_plan(plan, model);
  EXPECT_GE(issues.size(), 5u);
}

TEST(FaultInjection, ParsesTextPlans) {
  const GraphModel model = two_constraint_model();
  const FaultPlanParse parse = parse_fault_plan(
      "# a composed plan\n"
      "seed 42\n"
      "slotloss rate 0.02 from 100 to 500\n"
      "fail a at 200 repair 40\n"
      "corrupt b rate 0.1\n"
      "drop * rate 0.05 from 0 to 1000\n"
      "jitter Z max 5\n"
      "drift every 97\n",
      model);
  ASSERT_TRUE(parse.ok()) << (parse.errors.empty() ? "" : parse.errors.front());
  const FaultPlan& plan = *parse.plan;
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.faults.size(), 6u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kSlotLoss);
  EXPECT_DOUBLE_EQ(plan.faults[0].rate, 0.02);
  EXPECT_EQ(plan.faults[0].begin, 100);
  EXPECT_EQ(plan.faults[0].end, 500);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kElementFail);
  EXPECT_EQ(plan.faults[1].element, 0u);
  EXPECT_EQ(plan.faults[1].begin, 200);
  EXPECT_EQ(plan.faults[1].magnitude, 40);
  EXPECT_EQ(plan.faults[3].element, kAnyElement);
  EXPECT_EQ(plan.faults[4].kind, FaultKind::kArrivalJitter);
  EXPECT_EQ(plan.faults[4].constraint, 1u);
  EXPECT_EQ(plan.faults[4].magnitude, 5);
  EXPECT_EQ(plan.faults[5].kind, FaultKind::kClockDrift);
  EXPECT_EQ(plan.faults[5].magnitude, 97);
}

TEST(FaultInjection, ParserReportsErrorsWithLineNumbers) {
  const GraphModel model = two_constraint_model();
  const FaultPlanParse parse = parse_fault_plan(
      "seed nope\n"
      "slotloss rate 2.0\n"
      "fail ghost at 5 repair 1\n"
      "jitter X max 3\n"
      "frobnicate everything\n"
      "drop a rate\n",
      model);
  EXPECT_FALSE(parse.ok());
  EXPECT_GE(parse.errors.size(), 5u);
  // Syntactic errors carry "line N:"; semantically invalid but
  // parseable directives surface through validation as "plan:".
  for (const std::string& e : parse.errors) {
    EXPECT_TRUE(e.rfind("line ", 0) == 0 || e.rfind("plan: ", 0) == 0) << e;
  }
}

// --- Fate semantics ----------------------------------------------------

TEST(FaultInjection, ElementFailureWindowKillsOverlappingExecutions) {
  FaultPlan plan;
  plan.faults.push_back(
      FaultSpec{FaultKind::kElementFail, 20, kOpenEnd, 1.0, 0, kAnyConstraint, 10});
  const FaultInjector inj(plan);
  EXPECT_FALSE(inj.element_down(0, 19));
  EXPECT_TRUE(inj.element_down(0, 20));
  EXPECT_TRUE(inj.element_down(0, 29));
  EXPECT_FALSE(inj.element_down(0, 30));
  EXPECT_FALSE(inj.element_down(1, 25));
  // Overlap at either edge is fatal; adjacency is not.
  EXPECT_EQ(inj.fate(0, 18, 2), ExecutionFate::kOk);
  EXPECT_EQ(inj.fate(0, 18, 3), ExecutionFate::kElementDown);
  EXPECT_EQ(inj.fate(0, 29, 2), ExecutionFate::kElementDown);
  EXPECT_EQ(inj.fate(0, 30, 2), ExecutionFate::kOk);
}

TEST(FaultInjection, DropAndCorruptRespectWindowAndElement) {
  FaultPlan plan;
  plan.faults.push_back(FaultSpec{FaultKind::kDrop, 10, 20, 1.0, 0});
  plan.faults.push_back(FaultSpec{FaultKind::kCorrupt, 30, 40, 1.0, 1});
  const FaultInjector inj(plan);
  EXPECT_EQ(inj.fate(0, 12, 1), ExecutionFate::kDropped);
  EXPECT_EQ(inj.fate(0, 9, 1), ExecutionFate::kOk);
  EXPECT_EQ(inj.fate(0, 20, 1), ExecutionFate::kOk);
  EXPECT_EQ(inj.fate(1, 12, 1), ExecutionFate::kOk);
  EXPECT_EQ(inj.fate(1, 32, 2), ExecutionFate::kCorrupted);
  // Detection: corruption at completion, drops at dispatch.
  const FaultEvent drop{ExecutionFate::kDropped, 0, 12, 1};
  const FaultEvent corrupt{ExecutionFate::kCorrupted, 1, 32, 2};
  EXPECT_EQ(drop.detect_time(), 12);
  EXPECT_EQ(corrupt.detect_time(), 34);
}

TEST(FaultInjection, DriftAccruesAtConfiguredCadence) {
  FaultPlan plan;
  plan.faults.push_back(FaultSpec{FaultKind::kClockDrift, 100, 200, 1.0, kAnyElement,
                                  kAnyConstraint, 25});
  const FaultInjector inj(plan);
  EXPECT_EQ(inj.drift_before(100), 0);
  EXPECT_EQ(inj.drift_before(124), 0);
  EXPECT_EQ(inj.drift_before(125), 1);
  EXPECT_EQ(inj.drift_before(175), 3);
  EXPECT_EQ(inj.drift_before(1000), inj.drift_before(200));
}

TEST(FaultInjection, ApplyShiftsStartsAndSplitsValid) {
  FaultPlan plan;
  plan.faults.push_back(FaultSpec{FaultKind::kDrop, 0, 4, 1.0, 0});
  plan.faults.push_back(FaultSpec{FaultKind::kClockDrift, 0, kOpenEnd, 1.0, kAnyElement,
                                  kAnyConstraint, 5});
  const FaultInjector inj(plan);
  const std::vector<ScheduledOp> nominal = {{0, 0, 2}, {1, 4, 2}, {0, 8, 2}};
  const FaultedTimeline out = inj.apply(nominal, 40);
  ASSERT_EQ(out.ops.size(), 3u);
  // Drift every 5: op at 4 slides to 4, then... ticks at 5,10,...;
  // drift_before(0)=0, drift_before(4)=0, drift_before(8)=1.
  EXPECT_EQ(out.ops[0].start, 0);
  EXPECT_EQ(out.ops[1].start, 4);
  EXPECT_EQ(out.ops[2].start, 9);
  EXPECT_EQ(out.fate[0], ExecutionFate::kDropped);
  EXPECT_EQ(out.fate[1], ExecutionFate::kOk);
  EXPECT_EQ(out.fate[2], ExecutionFate::kOk);
  ASSERT_EQ(out.valid.size(), 2u);
  EXPECT_EQ(out.valid[0].elem, 1u);
  EXPECT_EQ(out.counters.dropped, 1u);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].fate, ExecutionFate::kDropped);
}

TEST(FaultInjection, JitteredArrivalsStayLegal) {
  const GraphModel model = two_constraint_model();
  FaultPlan plan;
  plan.faults.push_back(
      FaultSpec{FaultKind::kArrivalJitter, 0, kOpenEnd, 1.0, kAnyElement, 1, 9});
  const FaultInjector inj(plan);
  const ConstraintArrivals shifted = inj.apply_arrivals(model, arrivals_z(600));
  EXPECT_TRUE(validate_arrivals(model, shifted).ok());
  // Some arrival actually moved.
  const ConstraintArrivals nominal = arrivals_z(600);
  EXPECT_NE(shifted[1], nominal[1]);
}

// --- Integration points ------------------------------------------------

TEST(FaultInjection, VisibleTraceMatchesMonitorGroundTruth) {
  const GraphModel model = two_constraint_model();
  const StaticSchedule sched = two_constraint_schedule();
  const ConstraintArrivals arrivals = arrivals_z(256);
  FaultPlan plan;
  plan.seed = 3;
  plan.faults.push_back(FaultSpec{FaultKind::kDrop, 30, 120, 0.6, kAnyElement});
  plan.faults.push_back(FaultSpec{FaultKind::kCorrupt, 120, 200, 0.5, 1});

  monitor::StreamingMonitor mon(model);
  sim::ExecutionTrace trace;
  sim::TraceAppender appender(trace);
  sim::FanOutSink fan({&mon, &appender});
  const FaultRunResult run =
      run_executive_with_faults(sched, model, arrivals, 256, plan, &fan);
  EXPECT_GT(run.counters.faulted_ops(), 0u);

  // The monitor's verdict over the visible trace equals the offline
  // reference of the same trace: invalidated executions render as idle,
  // so online observers see exactly the surviving ground truth.
  EXPECT_TRUE(monitor::verdicts_match(mon.report(), monitor::reference_check(trace, model)));
}

TEST(FaultInjection, RunWithOverrunsAcceptsAPlan) {
  const GraphModel model = two_constraint_model();
  const StaticSchedule sched = two_constraint_schedule();
  const ConstraintArrivals arrivals = arrivals_z(200);
  FaultPlan plan;
  plan.faults.push_back(FaultSpec{FaultKind::kDrop, 0, 100, 1.0, 0});
  const OverrunRunResult faulted =
      run_with_overruns(sched, model, arrivals, 200, OverrunModel{}, nullptr, &plan);
  EXPECT_GT(faulted.fault_counters.dropped, 0u);
  const OverrunRunResult clean =
      run_with_overruns(sched, model, arrivals, 200, OverrunModel{}, nullptr, nullptr);
  EXPECT_EQ(clean.fault_counters.faulted_ops(), 0u);
  EXPECT_LT(faulted.satisfied, clean.satisfied);
}

TEST(FaultInjection, AdaptiveExecutiveRecordsFaultEvents) {
  const GraphModel model = two_constraint_model();
  const ModeLadder ladder = build_mode_ladder(model);
  ASSERT_TRUE(ladder.success);
  AdaptiveOptions options;
  options.faults.seed = 5;
  options.faults.faults.push_back(FaultSpec{FaultKind::kDrop, 0, 150, 0.7, kAnyElement});
  const AdaptiveResult run =
      run_adaptive_executive(ladder, arrivals_z(300), 300, options);
  EXPECT_GT(run.fault_counters.dropped, 0u);
  EXPECT_EQ(run.fault_counters.dropped + run.fault_counters.corrupted +
                run.fault_counters.slot_lost + run.fault_counters.element_down,
            run.fault_events.size());
  // Determinism: the same options reproduce the same run.
  const AdaptiveResult again =
      run_adaptive_executive(ladder, arrivals_z(300), 300, options);
  EXPECT_EQ(run.fault_counters, again.fault_counters);
  EXPECT_EQ(run.dispatches, again.dispatches);
}

TEST(FaultInjection, SlotFilterFaultsCyclicExecutiveTraces) {
  rt::TaskSet ts;
  ts.add(rt::Task{"t0", 1, 4, 4});
  ts.add(rt::Task{"t1", 1, 8, 8});
  const auto exec = rt::build_cyclic_executive(ts);
  ASSERT_TRUE(exec.has_value());

  CommGraph comm;
  comm.add_element("t0", 1);
  comm.add_element("t1", 1);

  FaultPlan plan;
  plan.faults.push_back(FaultSpec{FaultKind::kDrop, 0, kOpenEnd, 1.0, 0});
  const FaultInjector inj(plan);
  FaultCounters counters;

  sim::ExecutionTrace faulted;
  sim::TraceAppender sink(faulted);
  exec->emit(sink, inj.make_slot_filter(comm, &counters));
  // Every execution of element 0 was dropped; element 1 survives.
  EXPECT_GT(counters.dropped, 0u);
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    EXPECT_NE(faulted[i], 0) << "slot " << i;
  }
  const sim::ExecutionTrace nominal = exec->to_trace();
  bool saw_t1 = false;
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    if (nominal[i] == 1) {
      EXPECT_EQ(faulted[i], 1);
      saw_t1 = true;
    }
  }
  EXPECT_TRUE(saw_t1);
}

// --- Platform faults (ISSUE 10) ----------------------------------------

PlatformNames two_proc_names() {
  PlatformNames names;
  names.processors = {"p0", "p1"};
  names.links = {"bus"};
  return names;
}

TEST(FaultInjection, ParsesPlatformFaultPlans) {
  const GraphModel model = two_constraint_model();
  const FaultPlanParse parse = parse_fault_plan(
      "seed 9\n"
      "procfail p1 at 200 repair 50\n"
      "linkfail bus at 100 repair 30\n"
      "linkdegrade bus factor 2 from 0 to 500\n",
      model, two_proc_names());
  ASSERT_TRUE(parse.ok()) << (parse.errors.empty() ? "" : parse.errors[0]);
  ASSERT_EQ(parse.plan->faults.size(), 3u);
  EXPECT_EQ(parse.plan->faults[0].kind, FaultKind::kProcessorFail);
  EXPECT_EQ(parse.plan->faults[0].resource, 1u);
  EXPECT_EQ(parse.plan->faults[0].begin, 200);
  EXPECT_EQ(parse.plan->faults[0].magnitude, 50);
  EXPECT_EQ(parse.plan->faults[1].kind, FaultKind::kLinkFail);
  EXPECT_EQ(parse.plan->faults[1].resource, 0u);
  EXPECT_EQ(parse.plan->faults[2].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(parse.plan->faults[2].magnitude, 2);
  EXPECT_TRUE(is_platform_fault(parse.plan->faults[0].kind));
  EXPECT_FALSE(is_platform_fault(FaultKind::kElementFail));
}

TEST(FaultInjection, PlatformDirectivesNeedAPlatformInScope) {
  const GraphModel model = two_constraint_model();
  // No PlatformNames overload: the platform grammar must error, not
  // silently bind.
  const FaultPlanParse bare =
      parse_fault_plan("procfail p0 at 10 repair 5\n", model);
  ASSERT_FALSE(bare.ok());
  EXPECT_NE(bare.errors[0].find("no platform in scope"), std::string::npos);

  const FaultPlanParse unknown = parse_fault_plan(
      "procfail p7 at 10 repair 5\n", model, two_proc_names());
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.errors[0].find("unknown processor 'p7'"), std::string::npos);

  const FaultPlanParse badlink = parse_fault_plan(
      "linkfail wire at 10 repair 5\n", model, two_proc_names());
  ASSERT_FALSE(badlink.ok());
  EXPECT_NE(badlink.errors[0].find("unknown link 'wire'"), std::string::npos);
}

TEST(FaultInjection, PlatformDirectivesEnforceTheirClauses) {
  const GraphModel model = two_constraint_model();
  // procfail needs at + repair; linkdegrade needs factor.
  EXPECT_FALSE(parse_fault_plan("procfail p0 at 10\n", model, two_proc_names()).ok());
  EXPECT_FALSE(
      parse_fault_plan("linkdegrade bus from 0 to 10\n", model, two_proc_names()).ok());
  // Validation rejects wildcard resources and zero magnitudes.
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kProcessorFail;
  spec.begin = 5;
  spec.magnitude = 5;
  plan.faults.push_back(spec);  // resource left at kAnyResource
  EXPECT_FALSE(validate_fault_plan(plan, model, two_proc_names()).empty());
  plan.faults[0].resource = 0;
  EXPECT_TRUE(validate_fault_plan(plan, model, two_proc_names()).empty());
  plan.faults[0].magnitude = 0;
  EXPECT_FALSE(validate_fault_plan(plan, model, two_proc_names()).empty());
}

TEST(FaultInjection, PlatformWindowsAndEventTimes) {
  const GraphModel model = two_constraint_model();
  const FaultPlanParse parse = parse_fault_plan(
      "procfail p1 at 200 repair 50\n"
      "linkfail bus at 100 repair 30\n"
      "linkdegrade bus factor 3 from 40 to 60\n"
      "linkdegrade bus factor 2 from 50 to 70\n",
      model, two_proc_names());
  ASSERT_TRUE(parse.ok());
  const FaultInjector inj(*parse.plan);
  EXPECT_TRUE(inj.has_platform_faults());

  // Windows are half-open [at, at + repair).
  EXPECT_FALSE(inj.processor_down(1, 199));
  EXPECT_TRUE(inj.processor_down(1, 200));
  EXPECT_TRUE(inj.processor_down(1, 249));
  EXPECT_FALSE(inj.processor_down(1, 250));
  EXPECT_FALSE(inj.processor_down(0, 200));
  EXPECT_TRUE(inj.link_down(0, 100));
  EXPECT_FALSE(inj.link_down(0, 130));

  // Overlapping degrades multiply.
  EXPECT_EQ(inj.link_degrade(0, 39), 1);
  EXPECT_EQ(inj.link_degrade(0, 45), 3);
  EXPECT_EQ(inj.link_degrade(0, 55), 6);
  EXPECT_EQ(inj.link_degrade(0, 65), 2);
  EXPECT_EQ(inj.link_degrade(0, 70), 1);

  const std::vector<Time> events = inj.platform_event_times(1000);
  const std::vector<Time> expected = {40, 50, 60, 70, 100, 130, 200, 250};
  EXPECT_EQ(events, expected);
  // Clipped to (0, horizon).
  const std::vector<Time> clipped = inj.platform_event_times(120);
  const std::vector<Time> expected_clipped = {40, 50, 60, 70, 100};
  EXPECT_EQ(clipped, expected_clipped);

  // The oracle is stateless: a second injector over the same plan
  // agrees everywhere.
  const FaultInjector again(*parse.plan);
  for (Time t = 0; t < 300; ++t) {
    ASSERT_EQ(inj.processor_down(1, t), again.processor_down(1, t)) << t;
    ASSERT_EQ(inj.link_degrade(0, t), again.link_degrade(0, t)) << t;
  }
  EXPECT_EQ(again.platform_event_times(1000), events);
}

}  // namespace
}  // namespace rtg::core
