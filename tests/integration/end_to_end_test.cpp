// End-to-end flows spanning the whole stack: spec text -> model ->
// synthesis (both process-based and latency scheduling) -> run-time
// executive -> verification, exercising the complete pipeline the paper
// describes as its software-automation strategy.
#include <gtest/gtest.h>

#include "core/feasibility.hpp"
#include "core/heuristic.hpp"
#include "core/runtime.hpp"
#include "core/synthesis.hpp"
#include "map/deploy.hpp"
#include "rt/analysis.hpp"
#include "rt/scheduler.hpp"
#include "sim/rng.hpp"
#include "spec/compile.hpp"

namespace rtg {
namespace {

using Time = sim::Time;

constexpr const char* kControlSpec = R"(
element fx
element fy
element fz
element fs weight 2
element fk
channel fx -> fs -> fk
channel fy -> fs
channel fz -> fs
channel fk -> fs
constraint X periodic period 20 deadline 20 { fx -> fs -> fk }
constraint Y periodic period 40 deadline 40 { fy -> fs -> fk }
constraint Z sporadic separation 50 deadline 25 { fz -> fs }
)";

TEST(EndToEnd, SpecMatchesProgrammaticControlSystem) {
  const spec::CompileResult compiled = spec::compile_text(kControlSpec);
  ASSERT_TRUE(compiled.ok());
  const core::GraphModel programmatic = core::make_control_system();
  EXPECT_EQ(compiled.model->comm().size(), programmatic.comm().size());
  EXPECT_EQ(compiled.model->constraint_count(), programmatic.constraint_count());
  for (std::size_t i = 0; i < programmatic.constraint_count(); ++i) {
    EXPECT_EQ(compiled.model->constraint(i).period, programmatic.constraint(i).period);
    EXPECT_EQ(compiled.model->constraint(i).deadline,
              programmatic.constraint(i).deadline);
    EXPECT_EQ(compiled.model->constraint(i).task_graph.size(),
              programmatic.constraint(i).task_graph.size());
  }
}

TEST(EndToEnd, SpecToScheduleToExecutive) {
  const spec::CompileResult compiled = spec::compile_text(kControlSpec);
  ASSERT_TRUE(compiled.ok());

  const core::HeuristicResult h = core::latency_schedule(*compiled.model);
  ASSERT_TRUE(h.success) << h.failure_reason;

  sim::Rng rng(12);
  core::ConstraintArrivals arrivals(3);
  arrivals[2] = rt::random_arrivals(50, 3000, 30.0, rng);
  const core::ExecutiveResult run =
      core::run_executive(*h.schedule, h.scheduled_model, arrivals, 3200);
  EXPECT_TRUE(run.all_met);
  EXPECT_GT(run.invocations.size(), 100u);
}

TEST(EndToEnd, ProcessSynthesisPathAlsoWorks) {
  const core::GraphModel model = core::make_control_system();
  const core::ProcessSynthesis procs = core::synthesize_processes(model, true);
  ASSERT_TRUE(rt::edf_schedulable(procs.task_set));

  // Simulate the process set under EDF with worst-case sporadic Z.
  rt::ArrivalStreams arrivals(procs.task_set.size());
  arrivals[2] = rt::max_rate_arrivals(50, 400);
  const rt::SimResult sim =
      rt::simulate(procs.task_set, rt::Policy::kEdf, 400, &arrivals);
  EXPECT_EQ(sim.miss_count(), 0u);
}

TEST(EndToEnd, LatencySchedulingSharesWorkProcessModelDuplicates) {
  // The paper's p_x = p_y observation: process synthesis executes f_s
  // (and f_k) twice per period, the coalesced latency schedule once.
  core::CommGraph comm;
  const auto fx = comm.add_element("fx", 1);
  const auto fy = comm.add_element("fy", 1);
  const auto fs = comm.add_element("fs", 2);
  const auto fk = comm.add_element("fk", 1);
  comm.add_channel(fx, fs);
  comm.add_channel(fy, fs);
  comm.add_channel(fs, fk);
  core::GraphModel model(std::move(comm));
  for (auto [name, in] : {std::pair{"X", fx}, std::pair{"Y", fy}}) {
    core::TaskGraph tg;
    const auto a = tg.add_op(in);
    const auto b = tg.add_op(fs);
    const auto c = tg.add_op(fk);
    tg.add_dep(a, b);
    tg.add_dep(b, c);
    model.add_constraint(
        core::TimingConstraint{name, std::move(tg), 24, 24,
                               core::ConstraintKind::kPeriodic});
  }

  const core::ProcessSynthesis procs = core::synthesize_processes(model);
  const double process_busy =
      static_cast<double>(procs.work_per_hyperperiod) /
      static_cast<double>(procs.hyperperiod);  // (4 + 4) / 24

  core::HeuristicOptions opts;
  opts.coalesce = true;
  const core::HeuristicResult h = core::latency_schedule(model, opts);
  ASSERT_TRUE(h.success) << h.failure_reason;
  // Coalesced: fx + fy + fs + fk once per 24 slots = 5/24 < 8/24.
  EXPECT_LT(h.schedule->utilization(), process_busy);
  // fs executes once per period, not twice.
  const auto fs0 = h.scheduled_model.comm().find("fs/0");
  ASSERT_TRUE(fs0.has_value());
  EXPECT_EQ(static_cast<Time>(h.schedule->ops_of(*fs0).size()) * 24,
            h.schedule->length());
}

TEST(EndToEnd, ExactSolverConfirmsHeuristicOnTinyModel) {
  // A tiny async model where both engines apply: heuristic succeeds =>
  // exact must agree feasible.
  core::CommGraph comm;
  comm.add_element("a", 1, false);
  comm.add_element("b", 1, false);
  core::GraphModel model(std::move(comm));
  core::TaskGraph ta;
  ta.add_op(0);
  core::TaskGraph tb;
  tb.add_op(1);
  model.add_constraint(
      core::TimingConstraint{"A", ta, 1, 4, core::ConstraintKind::kAsynchronous});
  model.add_constraint(
      core::TimingConstraint{"B", tb, 1, 4, core::ConstraintKind::kAsynchronous});

  const core::HeuristicResult h = core::latency_schedule(model);
  const core::ExactResult exact = core::exact_feasible(model);
  EXPECT_TRUE(h.success);
  EXPECT_EQ(exact.status, core::FeasibilityStatus::kFeasible);
}

TEST(EndToEnd, MultiprocessorControlSystem) {
  core::ControlSystemParams params;
  params.px = params.dx = 40;
  params.py = params.dy = 80;
  params.pz = 120;
  params.dz = 60;
  const core::GraphModel model = core::make_control_system(params);
  for (std::size_t m : {1u, 2u}) {
    // A unit-slot shared TDMA bus, LPT placement.
    map::Platform bus = map::Platform::bus(m);
    bus.fixed_message_size = 1;
    map::DeployOptions options;
    options.mapper = "lpt";
    const map::Deployment d = map::deploy(model, bus, options);
    EXPECT_TRUE(d.success) << "m=" << m << ": " << d.failure_reason;
  }
}

TEST(EndToEnd, InfeasibleSpecDiagnosedBeforeRuntime) {
  const spec::CompileResult compiled = spec::compile_text(
      "element a weight 4 nopipeline\n"
      "constraint C sporadic separation 2 deadline 4 { a }\n");
  ASSERT_TRUE(compiled.ok());
  const core::HeuristicResult h = core::latency_schedule(*compiled.model);
  EXPECT_FALSE(h.success);
  EXPECT_FALSE(h.failure_reason.empty());
}

}  // namespace
}  // namespace rtg
