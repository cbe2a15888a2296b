#include "gen/tournament.hpp"

#include <algorithm>
#include <exception>

#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/pipeline.hpp"
#include "core/synthesis.hpp"
#include "rt/analysis.hpp"
#include "spec/compile.hpp"
#include "spec/emit.hpp"

namespace rtg::gen {

namespace {

using core::FeasibilityReport;
using core::FeasibilityStatus;
using core::GraphModel;
using core::StaticSchedule;

bool async_only(const GraphModel& model) {
  for (const core::TimingConstraint& c : model.constraints()) {
    if (c.periodic()) return false;
  }
  return true;
}

// The heuristic's hyperperiod cap is a resource refusal (the server
// periods' lcm outgrew max_schedule_length), not a feasibility verdict;
// Theorem 3 still promises a schedule *exists*.
bool is_resource_refusal(const std::string& reason) {
  return reason.find("exceeds max_schedule_length") != std::string::npos ||
         reason.find("cancelled") != std::string::npos;
}

// Candidate for the drop-probe: the schedule with execution entry
// `entry` replaced by an idle run of equal length.
StaticSchedule drop_entry(const StaticSchedule& sched, std::size_t entry) {
  StaticSchedule out;
  for (std::size_t i = 0; i < sched.entries().size(); ++i) {
    const core::ScheduleEntry& e = sched.entries()[i];
    if (i == entry || e.elem == core::kIdleEntry) {
      out.push_idle(e.duration);
    } else {
      out.push_execution(e.elem, e.duration);
    }
  }
  return out;
}

void check_verifier_stack(const StaticSchedule& sched, const GraphModel& model,
                          const FeasibilityReport& reference,
                          const TournamentOptions& options, const char* what,
                          TournamentRow& row) {
  for (const std::size_t n : options.verify_threads) {
    core::VerifyOptions vo;
    vo.n_threads = n;
    if (!(core::verify_schedule(sched, model, vo) == reference)) {
      row.violations.push_back(std::string(what) + ": verify_schedule(n_threads=" +
                               std::to_string(n) + ") diverged from reference");
    }
  }
  core::VerifyOptions flat;
  flat.flat_reference = true;
  if (!(core::verify_schedule(sched, model, flat) == reference)) {
    row.violations.push_back(std::string(what) +
                             ": flat_reference verifier diverged from reference");
  }

  if (!options.run_incremental) return;
  core::IncrementalVerifier iv(model);
  if (!(iv.verify(sched) == reference)) {
    row.violations.push_back(std::string(what) +
                             ": IncrementalVerifier::verify diverged from reference");
  }
  // Drop-probe differential: re-verify the first-execution drop both
  // incrementally and from scratch; the reports must be bit-identical.
  const auto& entries = sched.entries();
  const auto it = std::find_if(entries.begin(), entries.end(), [](const auto& e) {
    return e.elem != core::kIdleEntry;
  });
  if (it != entries.end()) {
    const std::size_t entry = static_cast<std::size_t>(it - entries.begin());
    const StaticSchedule candidate = drop_entry(sched, entry);
    const FeasibilityReport& incremental = iv.verify_drop(candidate, entry);
    core::VerifyOptions serial;
    serial.n_threads = 1;
    if (!(incremental == core::verify_schedule(candidate, model, serial))) {
      row.violations.push_back(
          std::string(what) +
          ": IncrementalVerifier::verify_drop diverged from scratch verify");
    }
  }
}

}  // namespace

TournamentRow run_tournament_row(const Scenario& scenario,
                                 const TournamentOptions& options) {
  TournamentRow row;
  row.name = scenario.name;
  row.repro = "--gen " + scenario_spec_string(scenario.options);
  row.fingerprint = scenario.fingerprint;
  row.utilization = scenario.model.deadline_utilization();
  row.theorem3 = scenario.model.satisfies_theorem3();
  row.async_only = async_only(scenario.model);
  row.constraints = scenario.model.constraints().size();
  row.elements = scenario.model.comm().size();

  // Rule 1: the spec toolchain round trip is a byte fixpoint.
  const spec::CompileResult compiled = spec::compile_text(scenario.spec);
  if (!compiled.ok()) {
    row.violations.push_back("generated spec failed to compile: " +
                             (compiled.errors.empty() ? std::string("?")
                                                      : compiled.errors.front().message));
    return row;  // nothing downstream is meaningful
  }
  if (spec::emit(*compiled.model) != scenario.spec) {
    row.violations.push_back("emit(compile(spec)) is not a byte fixpoint");
  }

  // All engines compete on the software-pipelined model: that is the
  // model the heuristic schedules against, so exact and heuristic
  // answer the same question.
  const GraphModel pipelined = core::pipeline_model(scenario.model).model;

  core::HeuristicResult h;
  try {
    h = core::latency_schedule(scenario.model);
  } catch (const std::exception& e) {
    row.violations.push_back(std::string("heuristic threw: ") + e.what());
    return row;
  }
  row.heuristic_success = h.success;
  row.heuristic_failure = h.failure_reason;
  row.server_utilization = h.server_utilization;
  if (h.success) {
    row.schedule_length = h.schedule->length();
    if (!h.report.feasible) {
      row.violations.push_back("heuristic claimed success with an infeasible report");
    }
    check_verifier_stack(*h.schedule, h.scheduled_model, h.report, options,
                         "heuristic schedule", row);
  }
  // Rule 5: inside Theorem 3's hypotheses the construction is
  // guaranteed; only the explicit hyperperiod cap may refuse.
  if (row.theorem3 && !h.success && !is_resource_refusal(h.failure_reason)) {
    row.violations.push_back("theorem3 holds but the heuristic failed: " +
                             h.failure_reason);
  }

  if (options.run_exact) {
    core::ExactOptions xo;
    xo.state_budget = options.exact_budget;
    core::ExactResult exact;
    try {
      exact = core::exact_feasible(pipelined, xo);
    } catch (const std::exception& e) {
      row.violations.push_back(std::string("exact engine threw: ") + e.what());
      return row;
    }
    row.exact_status = exact.status;
    row.exact_states = exact.states_explored;
    if (exact.status == FeasibilityStatus::kFeasible) {
      if (!exact.schedule) {
        row.violations.push_back("exact kFeasible without a witness schedule");
      } else {
        const FeasibilityReport reference =
            core::verify_schedule(*exact.schedule, pipelined);
        if (!reference.feasible) {
          row.violations.push_back("exact witness schedule fails verification");
        }
        check_verifier_stack(*exact.schedule, pipelined, reference, options,
                             "exact witness", row);
      }
    } else if (exact.status == FeasibilityStatus::kInfeasible && row.async_only) {
      // Rule 4. Only async-only scenarios: with periodic constraints
      // the game pessimistically pins all phases to zero, so its
      // kInfeasible is not a certificate (see feasibility.cpp).
      if (h.success) {
        row.violations.push_back(
            "exact proved infeasible but the heuristic produced a verified schedule");
      }
      if (row.theorem3) {
        row.violations.push_back(
            "exact proved an async-only theorem3 scenario infeasible");
      }
    }
  }

  if (options.run_baseline) {
    try {
      const core::ProcessSynthesis ps = core::synthesize_processes(scenario.model, true);
      row.baseline_edf = rt::edf_schedulable(ps.task_set);
    } catch (const std::exception& e) {
      row.violations.push_back(std::string("process baseline threw: ") + e.what());
    }
  }
  return row;
}

TournamentSummary run_tournament(const std::vector<ScenarioOptions>& corpus,
                                 const TournamentOptions& options) {
  TournamentSummary summary;
  summary.rows.reserve(corpus.size());
  for (const ScenarioOptions& so : corpus) {
    TournamentRow row = run_tournament_row(generate(so), options);
    summary.violation_count += row.violations.size();
    if (row.heuristic_success) ++summary.heuristic_feasible;
    switch (row.exact_status) {
      case FeasibilityStatus::kFeasible: ++summary.exact_feasible; break;
      case FeasibilityStatus::kInfeasible: ++summary.exact_infeasible; break;
      case FeasibilityStatus::kUnknown: ++summary.exact_unknown; break;
    }
    if (row.baseline_edf) ++summary.baseline_edf;
    summary.rows.push_back(std::move(row));
  }
  return summary;
}

}  // namespace rtg::gen
