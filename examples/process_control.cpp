// process_control — a chemical-reactor temperature loop run at the
// *value* level: sensors produce real samples, the control law computes
// actuator commands through the synthesized static schedule, edge
// relations watch the data for integrity violations (the paper's
// fault-tolerance direction), and omission faults are injected to show
// what k-fault-tolerant hardening buys.
//
//   $ ./process_control
#include <cstdio>

#include "core/dataflow.hpp"
#include "core/fault.hpp"
#include "core/fault_injection.hpp"
#include "core/heuristic.hpp"
#include "core/model.hpp"
#include "rt/scheduler.hpp"

using namespace rtg;
using core::Value;
using sim::Time;

int main() {
  // Model: temp sensor and pressure sensor feed a PI-style control law
  // driving a valve; the law also feeds back its integral state.
  core::CommGraph comm;
  const auto temp = comm.add_element("temp_sense", 1);
  const auto pres = comm.add_element("pres_sense", 1);
  const auto law = comm.add_element("pi_law", 2);
  const auto valve = comm.add_element("valve_cmd", 1);
  comm.add_channel(temp, law);
  comm.add_channel(pres, law);
  comm.add_channel(law, valve);
  core::GraphModel model(std::move(comm));

  {
    core::TaskGraph tg;
    const auto a = tg.add_op(temp);
    const auto b = tg.add_op(law);
    const auto c = tg.add_op(valve);
    tg.add_dep(a, b);
    tg.add_dep(b, c);
    model.add_constraint(core::TimingConstraint{
        "TEMP", std::move(tg), 16, 32, core::ConstraintKind::kPeriodic});
  }
  {
    core::TaskGraph tg;
    const auto a = tg.add_op(pres);
    const auto b = tg.add_op(law);
    tg.add_dep(a, b);
    model.add_constraint(core::TimingConstraint{
        "PRES", std::move(tg), 32, 64, core::ConstraintKind::kPeriodic});
  }

  const core::HeuristicResult synth = core::latency_schedule(model);
  if (!synth.success) {
    std::printf("synthesis failed: %s\n", synth.failure_reason.c_str());
    return 1;
  }
  std::printf("schedule: length %lld, busy %.0f%%\n",
              static_cast<long long>(synth.schedule->length()),
              100.0 * synth.schedule->utilization());

  // --- Value-level run. ---------------------------------------------
  const core::GraphModel& pm = synth.scheduled_model;  // pipelined model
  core::DataflowExecutive exec(pm);
  const auto p_temp = *pm.comm().find("temp_sense");
  const auto p_pres = *pm.comm().find("pres_sense");
  const auto p_law0 = *pm.comm().find("pi_law/0");
  const auto p_law1 = *pm.comm().find("pi_law/1");
  const auto p_valve = *pm.comm().find("valve_cmd");

  // Reactor temperature drifts up; setpoint is 500 (tenths of a degree).
  exec.set_source(p_temp, [](Time t) { return 480 + t / 8; });
  exec.set_source(p_pres, [](Time t) { return 300 + (t % 64) / 16; });
  // pi_law stage 0: error = setpoint - temp (pressure ignored in this
  // toy law); stage 1: integral state + proportional term.
  exec.set_behaviour(p_law0, [](std::span<const Value> in, Value st) {
    const Value measured = in.empty() ? 0 : in[0];
    return std::pair<Value, Value>{500 - measured, st};
  });
  exec.set_behaviour(p_law1, [](std::span<const Value> in, Value integral) {
    const Value err = in.empty() ? 0 : in[0];
    const Value next_integral = integral + err;
    return std::pair<Value, Value>{2 * err + next_integral / 4, next_integral};
  });
  exec.set_behaviour(p_valve, [](std::span<const Value> in, Value st) {
    // Clamp the command to the valve's range.
    Value cmd = in.empty() ? 0 : in[0];
    cmd = cmd < -100 ? -100 : cmd > 100 ? 100 : cmd;
    return std::pair<Value, Value>{cmd, st};
  });
  // Integrity relation: commanded valve steps must not exceed 50 units
  // between consecutive commands (rate-of-change guard).
  exec.set_edge_relation(p_law1, p_valve, [](Value prev, Value cur) {
    const Value step = cur - prev;
    return step <= 50 && step >= -50;
  });

  const core::DataflowResult run = exec.run(*synth.schedule, 12);
  const auto commands = run.outputs_of(p_valve);
  std::printf("valve commands (%zu):", commands.size());
  for (std::size_t i = 0; i < commands.size() && i < 12; ++i) {
    std::printf(" %lld", static_cast<long long>(commands[i]));
  }
  std::printf("\nedge-relation violations: %zu, pipeline ordered: %s\n",
              run.violations.size(), run.pipeline_ordered ? "yes" : "NO");

  // --- Fault tolerance. ---------------------------------------------
  std::printf("\nomission faults at 20%% per execution, worst-case arrivals:\n");
  for (std::size_t k : {0u, 1u}) {
    const core::HardenedResult hardened = core::harden_and_schedule(model, k);
    if (!hardened.success) {
      std::printf("  k=%zu: %s\n", k, hardened.failure_reason.c_str());
      continue;
    }
    const core::FaultPlan omissions{
        7, {core::FaultSpec{core::FaultKind::kDrop, 0, core::kOpenEnd, 0.2}}};
    const core::FaultRunResult fr = core::run_executive_with_faults(
        *hardened.schedule, synth.scheduled_model, {{}, {}}, 4000, omissions);
    std::printf("  k=%zu: schedule busy %.0f%%, survival %.2f%% (%zu/%zu)\n", k,
                100.0 * hardened.utilization, 100.0 * fr.survival_rate(),
                fr.satisfied_count(), fr.executive.invocations.size());
  }
  return run.violations.empty() && run.pipeline_ordered ? 0 : 1;
}
