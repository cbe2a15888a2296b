// paper_claims_test — the paper's assertions, one test each, in the
// order they appear in the text. This file doubles as an executable
// summary of what the reproduction establishes; each test cites the
// sentence it checks.
#include <gtest/gtest.h>

#include "core/feasibility.hpp"
#include "core/heuristic.hpp"
#include "core/model.hpp"
#include "core/npc.hpp"
#include "core/pipeline.hpp"
#include "core/runtime.hpp"
#include "core/synthesis.hpp"
#include "map/deploy.hpp"
#include "rt/analysis.hpp"
#include "rt/scheduler.hpp"

namespace rtg {
namespace {

using core::ConstraintKind;
using core::GraphModel;
using core::TaskGraph;
using core::TimingConstraint;
using Time = sim::Time;

// "a task graph C is an acyclic digraph which is compatible with the
// communication graph G" — compatibility is a checked invariant.
TEST(PaperClaims, TaskGraphsMustBeCompatibleWithG) {
  core::CommGraph comm;
  comm.add_element("u", 1);
  comm.add_element("v", 1);
  // No channel u -> v.
  GraphModel model(std::move(comm));
  TaskGraph tg;
  const auto a = tg.add_op(0);
  const auto b = tg.add_op(1);
  tg.add_dep(a, b);
  EXPECT_THROW(model.add_constraint(
                   TimingConstraint{"bad", tg, 4, 4, ConstraintKind::kPeriodic}),
               std::invalid_argument);
}

// "If a timing constraint (C,p,d) is invoked at time t, then the task
// graph C must be executed in the interval [t, t+d]." — the executive
// verifies exactly this window per invocation.
TEST(PaperClaims, InvocationWindowSemantics) {
  core::CommGraph comm;
  comm.add_element("f", 1);
  GraphModel model(std::move(comm));
  TaskGraph tg;
  tg.add_op(0);
  model.add_constraint(
      TimingConstraint{"A", std::move(tg), 5, 3, ConstraintKind::kAsynchronous});
  core::StaticSchedule sched;  // f at slots 0, 4, 8, ...
  sched.push_execution(0, 1);
  sched.push_idle(3);
  // Invocation at t=1: window [1,4] holds f@[4,5)? No — f starts at 4,
  // finishes 5 > 4: MISS. Invocation at t=3: f@[4,5) inside [3,6]: OK.
  const auto r1 = core::run_executive(sched, model, {{1}}, 20);
  EXPECT_FALSE(r1.all_met);
  const auto r2 = core::run_executive(sched, model, {{3}}, 20);
  EXPECT_TRUE(r2.all_met);
}

// "A straightforward way ... is to map each periodic/asynchronous
// timing constraint into a ... process where the body consists of a
// straight-line program which is any topological sort of the
// operations" — process synthesis produces exactly that.
TEST(PaperClaims, ProcessBodiesAreTopologicalSorts) {
  const GraphModel model = core::make_control_system();
  const core::ProcessSynthesis procs = core::synthesize_processes(model);
  for (std::size_t i = 0; i < procs.processes.size(); ++i) {
    const auto& body = procs.processes[i].body;
    const TaskGraph& tg = model.constraint(i).task_graph;
    // Every skeleton edge must point forward in the body order.
    for (const graph::Edge& e : tg.skeleton().edges()) {
      const auto pos = [&](core::ElementId elem) {
        return std::find(body.begin(), body.end(), elem) - body.begin();
      };
      EXPECT_LT(pos(tg.label(e.from)), pos(tg.label(e.to)));
    }
  }
}

// "we create a monitor for each functional element that occurs in two
// or more timing constraints."
TEST(PaperClaims, MonitorsForSharedElementsOnly) {
  const GraphModel model = core::make_control_system();
  const core::ProcessSynthesis procs = core::synthesize_processes(model);
  // fs shared by X, Y, Z; fk by X, Y; fx, fy, fz private.
  EXPECT_EQ(procs.monitors.size(), 2u);
}

// "if p_x is equal to p_y ... there is no reason why f_S should be
// executed twice per period. In the process model there are two
// distinct calls to f_S and so the redundant work cannot be avoided."
TEST(PaperClaims, SharedWorkAvoidedByLatencyScheduling) {
  core::ControlSystemParams params;
  params.py = params.dy = 20;  // p_x == p_y
  const GraphModel model = core::make_control_system(params);

  const core::ProcessSynthesis procs = core::synthesize_processes(model);
  // Process model: fs (w=2) runs once in X's body and once in Y's per 20.
  Time fs_work_process = 0;
  for (const auto& p : procs.processes) {
    if (p.kind != ConstraintKind::kPeriodic) continue;
    fs_work_process += (procs.hyperperiod / p.period) *
                       static_cast<Time>(std::count(p.body.begin(), p.body.end(),
                                                    *model.comm().find("fs"))) *
                       2;
  }
  EXPECT_EQ(fs_work_process, 2 * 2 * (procs.hyperperiod / 20));

  // Coalesced X+Y executes fs once per 20 slots instead of twice; Z's
  // sporadic server adds its own fs polls either way, so compare the
  // fs rate with and without coalescing.
  auto fs_rate = [](const core::HeuristicResult& r) {
    const auto fs0 = r.scheduled_model.comm().find("fs/0");
    EXPECT_TRUE(fs0.has_value());
    return static_cast<double>(r.schedule->ops_of(*fs0).size()) /
           static_cast<double>(r.schedule->length());
  };
  const core::HeuristicResult plain = core::latency_schedule(model);
  core::HeuristicOptions opts;
  opts.coalesce = true;
  const core::HeuristicResult merged = core::latency_schedule(model, opts);
  ASSERT_TRUE(plain.success && merged.success);
  // Exactly one fs execution per 20 slots is saved: 1/20 of the rate.
  EXPECT_NEAR(fs_rate(plain) - fs_rate(merged), 1.0 / 20.0, 1e-9);
}

// Theorem 1: "feasible static schedules can always be computed in
// finite time."
TEST(PaperClaims, Theorem1Decidability) {
  core::CommGraph comm;
  comm.add_element("a", 1, false);
  comm.add_element("b", 1, false);
  GraphModel feasible(comm);
  for (core::ElementId e = 0; e < 2; ++e) {
    TaskGraph tg;
    tg.add_op(e);
    feasible.add_constraint(TimingConstraint{
        "c" + std::to_string(e), std::move(tg), 1, 3, ConstraintKind::kAsynchronous});
  }
  EXPECT_EQ(core::exact_feasible(feasible).status, core::FeasibilityStatus::kFeasible);

  GraphModel infeasible(comm);
  for (core::ElementId e = 0; e < 2; ++e) {
    TaskGraph tg;
    tg.add_op(e);
    infeasible.add_constraint(TimingConstraint{
        "c" + std::to_string(e), std::move(tg), 1, 1, ConstraintKind::kAsynchronous});
  }
  EXPECT_EQ(core::exact_feasible(infeasible).status,
            core::FeasibilityStatus::kInfeasible);
}

// Theorem 2's flavour: solvable 3-PARTITION encodings are feasible,
// overloaded ones are not (the combinatorial core of the reduction).
TEST(PaperClaims, Theorem2GadgetBehaviour) {
  core::ThreePartitionInstance inst;
  inst.bins = 1;
  inst.capacity = 4;
  inst.items = {2, 1, 1};
  EXPECT_EQ(core::exact_feasible(core::three_partition_model(inst)).status,
            core::FeasibilityStatus::kFeasible);
  EXPECT_EQ(core::exact_feasible(core::three_partition_model(core::make_overloaded(inst)))
                .status,
            core::FeasibilityStatus::kInfeasible);
}

// Theorem 3: "a feasible static schedule always exists" under the
// hypotheses — and our constructive scheduler finds it.
TEST(PaperClaims, Theorem3Constructive) {
  const GraphModel model = core::make_control_system();
  ASSERT_TRUE(model.satisfies_theorem3());
  const core::HeuristicResult h = core::latency_schedule(model);
  EXPECT_TRUE(h.success);
  EXPECT_TRUE(h.report.feasible);
}

// "all the data dependencies are made explicit and hence software
// pipelining can be easily automated."
TEST(PaperClaims, SoftwarePipeliningAutomated) {
  const GraphModel model = core::make_control_system();
  const core::PipelinedModel p = core::pipeline_model(model);
  // fs (w=2) decomposed; dependencies rewired automatically; all
  // task graphs still valid.
  EXPECT_TRUE(p.model.comm().find("fs/0").has_value());
  for (const TimingConstraint& c : p.model.constraints()) {
    EXPECT_TRUE(c.task_graph.validate(p.model.comm()).empty());
  }
}

// "the run-time scheduler is very efficient once a feasible static
// schedule has been found off-line" — dispatch count is independent of
// pending invocations.
TEST(PaperClaims, RuntimeDispatchIndependentOfLoad) {
  const GraphModel model = core::make_control_system();
  const core::HeuristicResult h = core::latency_schedule(model);
  ASSERT_TRUE(h.success);
  core::ConstraintArrivals none(3);
  core::ConstraintArrivals many(3);
  many[2] = rt::max_rate_arrivals(50, 2000);
  const auto quiet = core::run_executive(*h.schedule, h.scheduled_model, none, 2100);
  const auto busy = core::run_executive(*h.schedule, h.scheduled_model, many, 2100);
  EXPECT_EQ(quiet.dispatches, busy.dispatches);
  EXPECT_TRUE(busy.all_met);
}

// "the synthesis problem can be decomposed into a set of single
// processor synthesis problems and a similar-looking problem for
// scheduling the communication network."
TEST(PaperClaims, MultiprocessorDecomposition) {
  core::ControlSystemParams params;
  params.px = params.dx = 40;
  params.py = params.dy = 80;
  params.pz = 120;
  params.dz = 60;
  map::Platform bus = map::Platform::bus(2);
  bus.fixed_message_size = 1;  // one TDMA slot per message
  map::DeployOptions options;
  options.mapper = "comm";
  const map::Deployment d =
      map::deploy(core::make_control_system(params), bus, options);
  EXPECT_TRUE(d.success) << d.failure_reason;
  EXPECT_EQ(d.processor_schedules.size(), 2u);
}

}  // namespace
}  // namespace rtg
