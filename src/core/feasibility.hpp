// feasibility.hpp — exact feasibility via the Theorem-1 simulation game.
//
// Theorem 1 of the paper: if any execution trace meets every
// asynchronous constraint's latency bound, then a *finite* feasible
// static schedule exists; the proof constructs a finite simulation
// game. This module implements that game directly:
//
//   * whether all future windows can still be satisfied depends only on
//     the last D slots of the trace (D = max deadline) plus, when
//     periodic constraints exist, the phase of the clock modulo the lcm
//     of the periodic periods — a finite state;
//   * the solver explores the graph whose states are those summaries
//     and whose transitions append one element execution or one idle
//     slot, pruning any transition that closes a violated window;
//   * a reachable cycle in this graph yields a feasible static schedule
//     (the ops emitted along the cycle); exhausting the reachable state
//     space without finding a cycle proves infeasibility.
//
// The search is exponential in D and |V| — unavoidable by Theorem 2
// (strong NP-hardness) — so a state budget turns giant instances into
// an explicit kUnknown instead of an endless run.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/static_schedule.hpp"

namespace rtg::core {

enum class FeasibilityStatus : std::uint8_t {
  kFeasible,
  kInfeasible,
  kUnknown,  ///< state budget exhausted before an answer
};

struct ExactResult {
  FeasibilityStatus status = FeasibilityStatus::kUnknown;
  /// A feasible static schedule (verified), when status == kFeasible.
  std::optional<StaticSchedule> schedule;
  /// Number of distinct states expanded. The search is one
  /// single-threaded DFS, so this count (like the status and the
  /// witness) depends only on the model and the options.
  std::size_t states_explored = 0;
  /// True when the search was abandoned through ExactOptions::cancel
  /// before reaching an answer. Status is kUnknown in that case unless
  /// a feasible cycle had already been collected (then kFeasible with
  /// the best cycle seen so far).
  bool cancelled = false;
};

/// DFS branching order. Least-recently-executed-first biases the search
/// towards round-robin-shaped strings (the shape feasible cycles take)
/// and typically finds cycles orders of magnitude faster than static id
/// order; both are complete. Exposed for the E2 ablation.
enum class BranchOrder : std::uint8_t {
  kLeastRecentlyExecuted,
  kStaticId,
};

struct ExactOptions {
  /// Cap on distinct states expanded before giving up with kUnknown.
  std::size_t state_budget = 1'000'000;
  BranchOrder order = BranchOrder::kLeastRecentlyExecuted;
  /// Number of feasible cycles to collect before answering: 1 returns
  /// the first cycle found (fastest); larger values keep searching and
  /// return the *leanest* cycle seen (lowest busy fraction, then
  /// shortest), trading solve time for schedule quality — the knob the
  /// E14 experiment motivates.
  std::size_t cycle_candidates = 1;
  /// Accepted and ignored: the game search is single-threaded. Exact
  /// work runs in parallel at batch level instead, one search per
  /// service worker. Kept only so existing callers still compile.
  std::size_t n_threads = 0;
  /// Cooperative cancellation: when non-null and set, the search stops
  /// at its next poll (one every 64 DFS steps) and returns with
  /// cancelled = true. The service layer points this at a per-job flag
  /// to enforce deadlines on the NP-hard search.
  const std::atomic<bool>* cancel = nullptr;
  /// Liveness beacon: when non-null the search bumps it (relaxed) at
  /// every cancellation poll, so a watchdog can tell a slow-but-alive
  /// search (counter advancing) from a wedged one (frozen).
  std::atomic<std::uint64_t>* progress = nullptr;
};

/// Decides whether a feasible static schedule exists for the model
/// (all constraints: asynchronous latencies and periodic invocation
/// windows), and produces one when it does.
[[nodiscard]] ExactResult exact_feasible(const GraphModel& model,
                                         const ExactOptions& options = {});

/// Brute-force cross-check: enumerates every static schedule of length
/// exactly `len` slots (compositions into executions and idle slots)
/// and returns the first that verify_schedule accepts, or nullopt.
/// Exponential in `len`; for testing the game solver on tiny instances.
[[nodiscard]] std::optional<StaticSchedule> brute_force_schedule(const GraphModel& model,
                                                                 Time len);

}  // namespace rtg::core
