// E12 — fault-tolerant scheduling: replication cost vs survival.
//
// For hardening levels k = 0, 1, 2 over the control-system model:
// schedule busy fraction (the cost), verified fault-tolerant latency,
// and measured invocation survival under omission faults at several
// failure rates. The paper's fault-tolerance discussion is qualitative;
// this experiment gives it numbers.
//
// E13 — execution overruns: blind executive vs adaptive degradation vs
// the process-model polling server, swept over overrun probabilities.
#include <cstdio>

#include "core/degradation.hpp"
#include "core/fault.hpp"
#include "core/fault_injection.hpp"
#include "core/heuristic.hpp"
#include "core/model.hpp"
#include "rt/polling_server.hpp"
#include "rt/scheduler.hpp"

using namespace rtg;
using sim::Time;

namespace {

// The three-tier model of tests/core/degradation_test.cpp: a nearly
// saturated primary where overruns cascade into deadline misses.
core::GraphModel tiered_model() {
  core::CommGraph comm;
  comm.add_element("a", 1);
  comm.add_element("c", 1);
  comm.add_element("b", 1);
  core::GraphModel model(std::move(comm));
  const auto single = [](core::ElementId e) {
    core::TaskGraph tg;
    tg.add_op(e);
    return tg;
  };
  model.add_constraint(core::TimingConstraint{
      "CRIT", single(0), 6, 14, core::ConstraintKind::kAsynchronous, 2});
  model.add_constraint(core::TimingConstraint{
      "MID", single(1), 3, 6, core::ConstraintKind::kAsynchronous, 1});
  model.add_constraint(core::TimingConstraint{
      "BULK", single(2), 2, 4, core::ConstraintKind::kAsynchronous, 0});
  return model;
}

void overrun_sweep() {
  std::printf("\nE13: overrun tolerance — blind vs adaptive vs polling server\n\n");
  const core::GraphModel model = tiered_model();
  const core::ModeLadder ladder = core::build_mode_ladder(model);
  if (!ladder.success) {
    std::printf("mode ladder failed: %s\n", ladder.failure_reason.c_str());
    return;
  }
  const Time horizon = 12000;
  core::ConstraintArrivals arrivals(3);
  arrivals[0] = rt::max_rate_arrivals(6, horizon);
  arrivals[1] = rt::max_rate_arrivals(3, horizon);
  arrivals[2] = rt::max_rate_arrivals(2, horizon);

  // Process-model comparator: CRIT as the aperiodic stream through a
  // polling server, MID and BULK as periodic demand at their rates.
  rt::TaskSet procs;
  procs.add(rt::Task{"MID", 1, 3, 6});
  procs.add(rt::Task{"BULK", 1, 2, 4});
  std::vector<rt::AperiodicJob> crit_jobs;
  for (const Time t : arrivals[0]) crit_jobs.push_back(rt::AperiodicJob{t, 1});

  std::printf("%-8s %-14s %-14s %-12s %-12s %-14s\n", "p_over",
              "blind CRIT", "adapt CRIT", "mode chg", "shed BULK",
              "server CRIT>d");
  for (const double p : {0.0, 0.05, 0.10, 0.25, 0.40}) {
    core::OverrunModel om;
    om.probability = p;
    om.magnitude = 3.0;
    om.seed = 11;

    // Blind: the primary schedule dispatched with no watchdog, CRIT
    // verified against its original window.
    core::GraphModel crit_only(ladder.base.comm());
    crit_only.add_constraint(ladder.base.constraint(0));
    const core::OverrunRunResult blind = core::run_with_overruns(
        ladder.modes[0].schedule, crit_only, {arrivals[0]}, horizon, om);

    core::AdaptiveOptions opts;
    opts.overruns = om;
    opts.watchdog.window = 16;
    opts.watchdog.min_observations = 4;
    opts.watchdog.degrade_threshold = 0.1;
    opts.watchdog.recovery_cycles = 64;
    const core::AdaptiveResult adaptive =
        core::run_adaptive_executive(ladder, arrivals, horizon, opts);

    rt::ServerOverruns so;
    so.probability = p;
    so.magnitude = 3.0;
    so.seed = 11;
    const rt::PollingServerResult server = rt::simulate_polling_server_overrun(
        procs, 1, 6, crit_jobs, horizon, so);
    std::size_t server_late = 0;
    for (const rt::ServedJob& j : server.aperiodic_jobs) {
      if (!j.completed() || j.response_time() > 14) ++server_late;
    }

    std::printf("%-8.2f %4zu/%-8zu %4zu/%-8zu %-12zu %-12zu %zu/%zu\n", p,
                blind.invocations - blind.satisfied, blind.invocations,
                adaptive.miss_count[0], adaptive.served_count[0],
                adaptive.mode_changes.size(), adaptive.shed_count[2],
                server_late, server.aperiodic_jobs.size());
  }
  std::printf("\nExpected shape: the blind executive's CRIT misses grow with\n"
              "the overrun rate; the adaptive executive sheds BULK (then MID)\n"
              "and holds CRIT misses near zero (the residue is the detection\n"
              "lag after each recovery attempt); the saturated polling server\n"
              "collapses for every stream under any sustained overrun.\n");
}

}  // namespace

int main() {
  std::printf("E12: k-fault-tolerant schedules — cost and survival\n\n");

  // Asynchronous-only variant of the control system (hardening turns
  // everything into continuous servers anyway).
  core::CommGraph comm;
  const auto fx = comm.add_element("fx", 1);
  const auto fs = comm.add_element("fs", 2);
  const auto fk = comm.add_element("fk", 1);
  comm.add_channel(fx, fs);
  comm.add_channel(fs, fk);
  core::GraphModel model(std::move(comm));
  core::TaskGraph tg;
  const auto a = tg.add_op(fx);
  const auto b = tg.add_op(fs);
  const auto c = tg.add_op(fk);
  tg.add_dep(a, b);
  tg.add_dep(b, c);
  model.add_constraint(core::TimingConstraint{
      "LOOP", std::move(tg), 10, 36, core::ConstraintKind::kAsynchronous});

  std::printf("%-4s %-8s %-10s %-12s %-12s %-12s\n", "k", "busy%", "ft_latency",
              "surv@10%", "surv@25%", "surv@40%");

  const auto arrivals = rt::max_rate_arrivals(10, 6000);
  for (std::size_t k : {0u, 1u, 2u}) {
    const core::HardenedResult r = core::harden_and_schedule(model, k);
    if (!r.success) {
      std::printf("%-4zu hardening failed: %s\n", k, r.failure_reason.c_str());
      continue;
    }
    double survival[3] = {0, 0, 0};
    const double rates[3] = {0.10, 0.25, 0.40};
    for (int i = 0; i < 3; ++i) {
      // Omission faults: a plan dropping each execution with the rate.
      const core::FaultPlan plan{
          17 + static_cast<std::uint64_t>(i),
          {core::FaultSpec{core::FaultKind::kDrop, 0, core::kOpenEnd, rates[i]}}};
      // Check against ORIGINAL deadlines: build a verification model
      // that pairs the original constraint with the pipelined graph.
      core::GraphModel check(r.scheduled_model.comm());
      core::TimingConstraint orig = r.scheduled_model.constraint(0);
      orig.deadline = model.constraint(0).deadline;
      check.add_constraint(std::move(orig));
      const core::FaultRunResult fr =
          core::run_executive_with_faults(*r.schedule, check, {arrivals}, 6200, plan);
      survival[i] = fr.survival_rate();
    }
    std::printf("%-4zu %-8.1f %-10lld %-12.3f %-12.3f %-12.3f\n", k,
                100.0 * r.utilization,
                r.ft_latency[0] ? static_cast<long long>(*r.ft_latency[0]) : -1,
                survival[0], survival[1], survival[2]);
  }
  std::printf("\nExpected shape: busy%% roughly scales with k+1 while the\n"
              "survival columns approach 1.0 — replication buys omission\n"
              "masking at proportional processor cost.\n");

  overrun_sweep();
  return 0;
}
