// tournament.hpp — the differential synthesis tournament.
//
// Runs every engine the repo has over a generated scenario and
// cross-checks the verdicts against each other:
//
//   * exact_feasible (the Theorem-1 game) on the pipelined model,
//   * latency_schedule (the Theorem-3 constructive heuristic),
//   * verify_schedule at 1/2/4 threads + the flat-scan reference,
//   * IncrementalVerifier full-verify and a drop-probe differential,
//   * the paper's process-model baseline (synthesize_processes + EDF).
//
// Coherence rules (each breach is a recorded violation with a one-line
// reproduction recipe):
//   1. The scenario's spec compiles and re-emits byte-identically.
//   2. A successful heuristic carries a schedule whose report is
//      feasible and bit-identical across every verify configuration and
//      the IncrementalVerifier; a drop-probe re-verification matches a
//      from-scratch verify of the edited schedule.
//   3. An exact kFeasible witness verifies feasible (all thread counts).
//   4. exact kInfeasible on an async-only scenario refutes everything:
//      the heuristic must not have succeeded and Theorem 3's hypotheses
//      must not hold. (With periodic constraints present the exact
//      game's kInfeasible is phase-conservative — see feasibility.cpp —
//      so there it is recorded, not enforced.)
//   5. satisfies_theorem3 ⇒ the heuristic succeeded, unless it hit the
//      explicit hyperperiod cap (a resource refusal, not a verdict).
// The process-model baseline's EDF verdict is recorded as data (the E5
// work-inflation story), not enforced: monitors and work duplication
// make it incomparable in both directions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/feasibility.hpp"
#include "gen/generator.hpp"

namespace rtg::gen {

struct TournamentOptions {
  /// State budget for the exact game per scenario. Corpus-sized by
  /// default: big instances answer kUnknown instead of stalling a
  /// 500-seed sweep.
  std::size_t exact_budget = 20'000;
  /// Thread counts every feasible report must be bit-identical across.
  std::vector<std::size_t> verify_threads = {1, 2, 4};
  /// Skip the exact engine entirely (frontier sweeps that only need the
  /// heuristic + verifier stack).
  bool run_exact = true;
  /// Run the process-model baseline (recorded, never enforced).
  bool run_baseline = true;
  /// Re-verify with IncrementalVerifier + drop-probe differential.
  bool run_incremental = true;
};

/// One scenario's tournament outcome. `violations` empty ⇔ coherent.
struct TournamentRow {
  std::string name;
  std::string repro;  ///< "--gen <spec-string>" one-liner
  std::uint64_t fingerprint = 0;

  double utilization = 0.0;  ///< Σ w/d of the (unpipelined) model
  bool theorem3 = false;
  bool async_only = false;
  std::size_t constraints = 0;
  std::size_t elements = 0;

  core::FeasibilityStatus exact_status = core::FeasibilityStatus::kUnknown;
  std::size_t exact_states = 0;
  bool heuristic_success = false;
  std::string heuristic_failure;
  double server_utilization = 0.0;
  core::Time schedule_length = 0;
  bool baseline_edf = false;  ///< process-model EDF schedulability

  std::vector<std::string> violations;
};

struct TournamentSummary {
  std::vector<TournamentRow> rows;
  std::size_t violation_count = 0;
  std::size_t heuristic_feasible = 0;
  std::size_t exact_feasible = 0;
  std::size_t exact_infeasible = 0;
  std::size_t exact_unknown = 0;
  std::size_t baseline_edf = 0;
};

/// Runs one scenario through the tournament.
[[nodiscard]] TournamentRow run_tournament_row(const Scenario& scenario,
                                               const TournamentOptions& options = {});

/// Runs a batch and aggregates. Rows keep scenario order.
[[nodiscard]] TournamentSummary run_tournament(const std::vector<ScenarioOptions>& corpus,
                                               const TournamentOptions& options = {});

}  // namespace rtg::gen
