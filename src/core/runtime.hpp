// runtime.hpp — the run-time executive.
//
// "Even though optimal static schedules are hard to compute in general,
// it should be emphasized that the run-time scheduler is very efficient
// once a feasible static schedule has been found off-line."
//
// The executive dispatches a static schedule round-robin — a table
// lookup per operation, independent of which invocations are pending —
// and this module additionally *verifies* that the resulting trace
// serves every invocation: each periodic invocation at t = 0, p, 2p, ...
// and each asynchronous arrival t (given as an explicit stream) must
// see a complete execution of its task graph inside [t, t+d].
//
// runtime.cpp holds every blind (non-adaptive) executive — run_executive
// here, run_executive_with_faults (core/fault_injection.hpp) and
// run_with_overruns (core/fault.hpp) — as compositions of one private
// core: a validation prelude, one unroll budget, emit_timeline and
// score_invocations. rt::run_self_healing scores through the same
// score_invocations.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "sim/trace.hpp"

namespace rtg::core {

/// Renders a sorted, non-overlapping op timeline as exactly `horizon`
/// raw trace slots delivered to `sink` in time order: each op
/// contributes duration slots of its element, gaps become idle, and the
/// horizon cuts mid-op if it must (the dropped tail decodes as an
/// incomplete execution, consistent with ops_from_trace).
void emit_timeline(std::span<const ScheduledOp> ops, Time horizon,
                   sim::TraceSink& sink);

/// One invocation of a timing constraint and its outcome.
struct InvocationRecord {
  std::size_t constraint = 0;
  Time invoked = 0;
  Time abs_deadline = 0;
  /// Earliest completion of an execution inside the window, if any.
  std::optional<Time> completed;
  bool satisfied = false;

  /// completed - invoked; nullopt while no execution completed in the
  /// window.
  [[nodiscard]] std::optional<Time> response_time() const {
    if (!completed) return std::nullopt;
    return *completed - invoked;
  }
};

struct ExecutiveResult {
  std::vector<InvocationRecord> invocations;
  bool all_met = true;
  Time horizon = 0;
  /// Dispatcher decisions taken (one per execution entry started
  /// before the horizon; idle entries take none) — the run-time cost
  /// the paper's efficiency claim is about.
  std::size_t dispatches = 0;
};

/// Arrival streams for asynchronous constraints, indexed by constraint
/// position in the model. Entries for periodic constraints are ignored.
/// Each stream must be sorted and respect the constraint's minimum
/// separation; use validate_arrivals for a structured diagnosis.
using ConstraintArrivals = std::vector<std::vector<Time>>;

/// One defect of an arrival stream, pinpointing the constraint and the
/// offending instants.
struct ArrivalIssue {
  enum class Kind : std::uint8_t {
    kMissingStream,        ///< async constraint has no stream at its index
    kNegativeTime,         ///< an arrival before t = 0
    kUnsorted,             ///< time < its predecessor
    kSeparationViolation,  ///< gap below the constraint's minimum separation
  };

  Kind kind = Kind::kMissingStream;
  std::size_t constraint = 0;
  std::string constraint_name;
  /// Index of the offending arrival within its stream (0 for
  /// kMissingStream).
  std::size_t position = 0;
  Time time = 0;      ///< the offending arrival instant
  Time previous = 0;  ///< the preceding instant (kUnsorted / kSeparation...)

  [[nodiscard]] std::string to_string() const;
};

/// Structured validation verdict for a set of arrival streams.
struct ArrivalValidation {
  std::vector<ArrivalIssue> issues;

  [[nodiscard]] bool ok() const { return issues.empty(); }
  /// All issues rendered one per line; empty string when ok().
  [[nodiscard]] std::string to_string() const;
};

/// Checks every asynchronous constraint's stream: present, sorted,
/// non-negative, minimum separation respected. Never throws.
[[nodiscard]] ArrivalValidation validate_arrivals(const GraphModel& model,
                                                  const ConstraintArrivals& arrivals);

/// The one invocation checker of the blind executives (run_executive,
/// run_executive_with_faults, run_with_overruns, rt::run_self_healing):
/// scores every invocation whose deadline falls within `horizon` —
/// periodic instants 0, p, 2p, ... and the asynchronous instants in
/// `arrivals` — against `valid_ops`, the sorted, non-overlapping
/// executions that actually completed. Records come out per constraint
/// in instant order. Sets invocations, all_met and horizon; dispatches
/// stays 0 for the caller to fill. `arrivals` must pass
/// validate_arrivals.
[[nodiscard]] ExecutiveResult score_invocations(const GraphModel& model,
                                                const ConstraintArrivals& arrivals,
                                                Time horizon,
                                                std::span<const ScheduledOp> valid_ops);

/// Runs the executive for `horizon` slots and verifies every invocation
/// whose deadline falls within the horizon. Invocations with deadlines
/// past the horizon are not recorded (their windows are incomplete).
///
/// Throwing wrapper: malformed arrival streams raise
/// std::invalid_argument carrying the rendered ArrivalValidation. Use
/// validate_arrivals first (or the adaptive executive's admission
/// control in core/degradation) to handle defects without exceptions.
///
/// When `trace_sink` is non-null the executive also emits the raw slot
/// timeline it dispatched (the round-robin trace, `horizon` slots) —
/// feed it a monitor::TraceCapture or a StreamingMonitor to observe the
/// run online.
[[nodiscard]] ExecutiveResult run_executive(const StaticSchedule& sched,
                                            const GraphModel& model,
                                            const ConstraintArrivals& arrivals,
                                            Time horizon,
                                            sim::TraceSink* trace_sink = nullptr);

}  // namespace rtg::core
