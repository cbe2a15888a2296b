// heuristic.hpp — constructive latency scheduling (Theorem 3).
//
// The paper's Theorem 3: if (i) Σ w_i/d_i <= 1/2, (ii) floor(d_i/2) >=
// w_i, and (iii) all functional elements can be pipelined, then a
// feasible static schedule always exists. The constructive proof this
// module implements:
//
//   1. Software-pipeline the model so every operation is unit weight.
//   2. Turn every asynchronous constraint (C, p, d) into a periodic
//      *server*: period = deadline = ceil(d/2), budget w = computation
//      time of C. If each server instance executes C completely inside
//      its period window, then every interval of length d (>= 2*ceil(d/2)
//      - 1 ... specifically period + deadline <= d + 1) contains a full
//      window and hence a complete execution of C — latency <= d.
//      Periodic constraints become servers with period p and deadline
//      min(d, p) directly.
//   3. Schedule the servers with EDF over the server hyperperiod at
//      op granularity (ops are non-preemptible; after pipelining they
//      are unit-size, so this is exactly preemptive EDF). Server
//      utilization Σ w_i/ceil(d_i/2) <= Σ 2 w_i / d_i <= 1 under the
//      theorem's hypotheses, and EDF with U <= 1 and implicit deadlines
//      never misses — so construction always succeeds there.
//   4. Emit each server instance's task-graph operations in topological
//      order; the EDF trace over one hyperperiod is the static schedule.
//
// Outside the theorem's hypotheses the same construction is attempted
// and the result verified; failure is reported with a reason.
#pragma once

#include <atomic>
#include <optional>
#include <string>

#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/optimize.hpp"
#include "core/pipeline.hpp"
#include "core/static_schedule.hpp"

namespace rtg::core {

struct HeuristicOptions {
  /// Apply software pipelining first (Theorem 3's hypothesis (iii)).
  bool pipeline = true;
  /// Try coalescing constraints that share work before scheduling.
  bool coalesce = false;
  /// Round every server period DOWN to the nearest power of two. A
  /// smaller period only raises the service rate, so correctness is
  /// preserved, at up to 2x extra utilization — in exchange the server
  /// hyperperiod collapses to the single largest power of two, taming
  /// schedules whose raw periods are co-prime.
  bool harmonize_periods = false;
  /// Upper bound on the server hyperperiod (schedule length); larger
  /// values are rejected with a failure instead of exploding memory.
  Time max_schedule_length = 1'000'000;
  /// Worker threads for the final verification of the constructed
  /// schedule (see VerifyOptions::n_threads). 0 = hardware concurrency;
  /// 1 = serial. The report is bit-identical at every thread count.
  std::size_t n_threads = 0;
  /// Refine the constructed schedule with the compaction pass
  /// (core/optimize) before returning. The pass runs on the
  /// IncrementalVerifier, re-querying only windows whose cached
  /// embedding witness touched the dropped execution; counters land in
  /// HeuristicResult::refine_stats.
  bool refine = false;
  /// Cooperative cancellation: when non-null and set, construction
  /// stops at the next EDF step or verification boundary and returns
  /// with success = false and failure_reason = "cancelled" (the
  /// embedded report carries cancelled = true when verification was the
  /// phase interrupted). Used by the service layer for job deadlines.
  const std::atomic<bool>* cancel = nullptr;
  /// Liveness beacon: when non-null, bumped (relaxed) at every
  /// cancellation poll here and in the embedded verification, so a
  /// watchdog can tell slow-but-alive construction from a wedged run.
  std::atomic<std::uint64_t>* progress = nullptr;
};

struct HeuristicResult {
  bool success = false;
  std::string failure_reason;

  /// The model the schedule is expressed against (pipelined and/or
  /// coalesced rewrite of the input; identical to the input when both
  /// options are off).
  GraphModel scheduled_model;
  /// The constructed static schedule (valid against scheduled_model),
  /// present iff success.
  std::optional<StaticSchedule> schedule;
  /// Verification of the schedule against scheduled_model.
  FeasibilityReport report;

  /// Σ budget_i / server_period_i — must be <= 1 for EDF to work.
  double server_utilization = 0.0;

  /// Counters from the refinement pass (only populated when
  /// HeuristicOptions::refine is set): executions removed plus the
  /// verification-engine stats, including incremental cache hits.
  OptimizeStats refine_stats;
};

/// Runs the constructive heuristic. Guaranteed to succeed when
/// model.satisfies_theorem3() and the server hyperperiod fits under
/// HeuristicOptions::max_schedule_length; a longer hyperperiod is
/// refused as a resource limit even under Theorem 3 (for example
/// gen::corpus_options(374)). Best-effort (verified) otherwise.
[[nodiscard]] HeuristicResult latency_schedule(const GraphModel& model,
                                               const HeuristicOptions& options = {});

/// Merges constraints whose task graphs can share work: two constraints
/// whose label sets overlap are replaced by one asynchronous constraint
/// over the *union* task graph with deadline min(d1, d2) and separation
/// min(p1, p2) — a single execution of the union serves both. Merging
/// is greedy and only applied when it lowers the total server
/// utilization Σ w/ceil(d/2) and keeps the union acyclic with unique
/// labels. This realizes the paper's observation that latency
/// scheduling "can take advantage of operations common to two or more
/// task graphs" (e.g. executing f_S once when p_x = p_y).
[[nodiscard]] GraphModel coalesce_model(const GraphModel& model);

}  // namespace rtg::core
