// oracle.hpp — an output checker for the benchmark that shares no code
// with the rtgraph engines.
//
// It works on its own plain data (element weights, task graphs as label
// and edge lists, executions as start/duration triples) and implements
// the definitions of docs/FORMALISM.md directly:
//
//   * §1–2 window semantics: an execution of C in an interval is an
//     injective, precedence-respecting map from C's ops to complete
//     executions inside it. For label-injective task graphs the greedy
//     earliest-execution embedding is optimal (§2), so the checker
//     evaluates it at *every* window start of one cycle (not only at the
//     jump points the engine uses) and derives asynchronous latencies
//     and periodic-window containment from that. Task graphs with a
//     repeated label are not decided here; they are counted.
//   * §7 necessary conditions (critical path, window capacity, demand
//     density).
//   * the Theorem-3 hypotheses, computed from the model.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench::oracle {

using Time = std::int64_t;

struct TaskGraph {
  std::vector<std::uint32_t> labels;  ///< op -> element
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  ///< op -> op
};

struct Constraint {
  TaskGraph graph;
  Time period = 1;
  Time deadline = 1;
  bool periodic = true;
};

struct Model {
  std::vector<Time> weight;        ///< per element
  std::vector<bool> pipelinable;   ///< per element
  std::vector<Constraint> constraints;
};

/// One complete execution of `elem` occupying [start, start + duration).
struct Exec {
  std::uint32_t elem = 0;
  Time start = 0;
  Time duration = 1;
};

/// A static schedule: executions of one period (sorted by start, each
/// inside [0, length)), repeated round-robin.
struct Schedule {
  Time length = 0;
  std::vector<Exec> execs;
};

[[nodiscard]] bool label_injective(const TaskGraph& tg);

/// Per-constraint verdict. `decided` is false for task graphs with a
/// repeated label (the checker does not embed those).
struct Verdict {
  bool decided = true;
  bool satisfied = false;
  std::optional<Time> latency;  ///< asynchronous only; nullopt = infinite
};

struct Report {
  std::vector<Verdict> verdicts;
  /// Conjunction over decided verdicts.
  bool feasible = true;
  std::size_t undecided = 0;
};

/// Checks a cyclic static schedule against every constraint.
[[nodiscard]] Report check_schedule(const Model& model, const Schedule& sched);

/// Earliest finish of a greedy embedding of a label-injective `tg` into
/// the cyclic extension of `sched`, using executions that start at or
/// after `t`; nullopt when some label never executes.
[[nodiscard]] std::optional<Time> cyclic_earliest_finish(const TaskGraph& tg,
                                                         const Schedule& sched, Time t);

/// Splits a raw slot trace (element id per slot, -1 = idle) into
/// complete executions: each maximal run of an element of weight w
/// yields floor(run / w) back-to-back executions.
[[nodiscard]] std::vector<Exec> decode_trace(const std::vector<std::int64_t>& slots,
                                             const std::vector<Time>& weight);

/// Violated windows of one constraint over a finite trace of `horizon`
/// slots: asynchronous windows [t, t+d) for every t with t+d <= horizon,
/// periodic ones at t = 0, p, 2p, ... `events` counts maximal runs of
/// violated starts (stride 1, or p for periodic). `decided` is false
/// for a task graph with a repeated label.
struct WindowCount {
  bool decided = true;
  std::size_t windows = 0;
  std::size_t violated = 0;
  std::size_t events = 0;
  std::vector<Time> violated_starts;
};
[[nodiscard]] WindowCount finite_windows(const Constraint& c, const std::vector<Exec>& execs,
                                         Time horizon);

/// §7: true iff the necessary conditions refute feasibility.
[[nodiscard]] bool refuted_by_bound(const Model& model);

/// Theorem 3's hypotheses: Σ w_i/d_i <= 1/2, floor(d_i/2) >= w_i, and
/// every element of weight > 1 used by a task graph is pipelinable.
[[nodiscard]] bool theorem3_hypotheses(const Model& model);

/// Hyperperiod of the Theorem-3 servers: lcm over constraints of
/// ceil(d/2) (asynchronous) or p (periodic), saturated at `cap` + 1.
[[nodiscard]] Time server_hyperperiod(const Model& model, Time cap);

}  // namespace perfbench::oracle
