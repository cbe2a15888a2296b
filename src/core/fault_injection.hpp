// fault_injection.hpp — seeded, deterministic fault-injection plans.
//
// core/fault's OverrunModel covers one disturbance (compute-time
// inflation). Real deployments see a richer mix — lost dispatch slots,
// transient element failures with repair windows, i.i.d. omissions
// (`drop * rate p`), corrupted transmissions, jittered sporadic
// arrivals, clock drift — often several at once. This module provides
// composable *fault plans* covering all of them, with two properties
// the rest of the robustness stack depends on:
//
//   * Determinism: every stochastic decision is a pure hash of
//     (plan seed, fault index, element, absolute time). No generator
//     state is threaded through the run, so the same plan produces the
//     same faults regardless of evaluation order, thread count, or
//     which executive consumes it — the property the recovery tests pin
//     across 1/2/4 verification threads.
//   * Composability: a plan is a list of independent fault specs, each
//     windowed in time; the same plan injects into run_executive-style
//     offline timelines, run_with_overruns, the adaptive executive, and
//     rt::CyclicExecutive's slot emission (via make_slot_filter, which
//     keeps rt free of core dependencies).
//
// Fault semantics over a table-driven timeline (the executive stays on
// its dispatch table; it does not reshuffle — recovery is the job of
// rt/recovery):
//
//   * kSlotLoss     — each slot t is independently lost with the spec's
//                     rate. An execution overlapping a lost slot
//                     produces no usable output; its slots idle.
//   * kElementFail  — element e is down in [at, at + repair): every one
//                     of its executions overlapping the outage fails.
//   * kDrop         — a dispatch of e is lost with the spec's rate
//                     (detected immediately; the reserved slots idle).
//   * kCorrupt      — an execution of e completes but its output is
//                     corrupt with the spec's rate (detected only at
//                     completion); the slots idle in the *visible*
//                     trace so online verdicts equal ground truth.
//   * kArrivalJitter— sporadic arrival i of constraint c shifts later
//                     by hash(i) in [0, max]; streams are re-legalized
//                     by deferring to the minimum separation.
//   * kClockDrift   — one extra idle slot accrues at every absolute
//                     time begin + m*every (m >= 1) inside the window;
//                     ops at nominal time t start drift_before(t) late.
//
// Platform-level faults (consumed by map::run_deployment_with_faults;
// the uniprocessor executives ignore them — a single-board run has no
// processor or link identity to fail):
//
//   * kProcessorFail — processor `resource` is down in [at, at+repair):
//                      every element mapped there is unavailable.
//   * kLinkFail      — link `resource` carries nothing in [at, at+repair).
//   * kLinkDegrade   — link `resource` runs at bandwidth/factor in
//                      [from, to); transfers need factor× the slots.
//
// Processor and link indices resolve against a map::Platform's
// declaration order; the textual grammar resolves names through
// PlatformNames so this header stays free of map dependencies.
//
// All invalidated executions render as idle slots, so a
// monitor::StreamingMonitor watching the visible trace computes exactly
// the ground-truth verdict over the surviving (valid) executions.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/model.hpp"
#include "core/runtime.hpp"
#include "core/static_schedule.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace rtg::core {

enum class FaultKind : std::uint8_t {
  kSlotLoss,
  kElementFail,
  kCorrupt,
  kDrop,
  kArrivalJitter,
  kClockDrift,
  kProcessorFail,
  kLinkFail,
  kLinkDegrade,
};

/// True for the platform-level kinds (processor/link faults).
[[nodiscard]] constexpr bool is_platform_fault(FaultKind kind) {
  return kind == FaultKind::kProcessorFail || kind == FaultKind::kLinkFail ||
         kind == FaultKind::kLinkDegrade;
}

[[nodiscard]] std::string_view fault_kind_name(FaultKind kind);

/// Wildcard element / constraint for specs that apply to all.
inline constexpr ElementId kAnyElement = graph::kInvalidNode;
inline constexpr std::size_t kAnyConstraint = static_cast<std::size_t>(-1);
/// Unset platform resource (platform kinds require a concrete one).
inline constexpr std::size_t kAnyResource = static_cast<std::size_t>(-1);
/// Open-ended fault window.
inline constexpr Time kOpenEnd = std::numeric_limits<Time>::max();

/// One windowed fault source. Fields are interpreted per kind:
///   kSlotLoss:      rate, [begin, end)
///   kElementFail:   element, begin (= failure instant), magnitude (= repair slots)
///   kCorrupt/kDrop: element (or any), rate, [begin, end)
///   kArrivalJitter: constraint (or any async), magnitude (= max shift), [begin, end)
///   kClockDrift:    magnitude (= slots between drift ticks), [begin, end)
///   kProcessorFail: resource (= processor), begin (= failure instant),
///                   magnitude (= repair slots)
///   kLinkFail:      resource (= link), begin, magnitude (= repair slots)
///   kLinkDegrade:   resource (= link), magnitude (= bandwidth divisor),
///                   [begin, end)
struct FaultSpec {
  FaultKind kind = FaultKind::kSlotLoss;
  Time begin = 0;
  Time end = kOpenEnd;
  double rate = 1.0;
  ElementId element = kAnyElement;
  std::size_t constraint = kAnyConstraint;
  Time magnitude = 0;
  std::size_t resource = kAnyResource;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// A seeded, composable fault plan.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> faults;

  [[nodiscard]] bool empty() const { return faults.empty(); }
  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Structural validation against a model: rates in [0, 1], windows
/// ordered, repair/drift magnitudes >= 1, referenced elements and
/// constraints exist (jitter must name an asynchronous constraint).
/// Returns human-readable diagnostics; empty means valid.
[[nodiscard]] std::vector<std::string> validate_fault_plan(const FaultPlan& plan,
                                                           const GraphModel& model);

/// Processor / link names of a platform, in declaration order, so the
/// textual grammar can resolve `procfail p1` / `linkfail bus` without a
/// core → map dependency (map::platform_names adapts a map::Platform).
struct PlatformNames {
  std::vector<std::string> processors;
  std::vector<std::string> links;

  [[nodiscard]] bool empty() const { return processors.empty() && links.empty(); }
};

/// validate_fault_plan, additionally bounds-checking platform resources
/// against the named platform.
[[nodiscard]] std::vector<std::string> validate_fault_plan(
    const FaultPlan& plan, const GraphModel& model, const PlatformNames& names);

/// Parse result for the textual fault-plan format (see docs/FAULTS.md):
/// one directive per line, '#' comments, e.g.
///   seed 42
///   slotloss rate 0.02 from 100 to 500
///   fail fs at 200 repair 40
///   corrupt fx rate 0.1
///   drop * rate 0.05 from 0 to 1000
///   jitter Z max 5
///   drift every 97
///   procfail p1 at 200 repair 50
///   linkfail bus at 100 repair 30
///   linkdegrade r0 factor 2 from 0 to 500
/// Element and constraint names resolve against the model; '*' is the
/// wildcard. Processor and link names resolve against the PlatformNames
/// overload — the platform directives error out when no platform is in
/// scope. Errors carry "line N: message"; plan is set iff there are no
/// errors (and then also passes validate_fault_plan).
struct FaultPlanParse {
  std::optional<FaultPlan> plan;
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const { return plan.has_value(); }
};

[[nodiscard]] FaultPlanParse parse_fault_plan(std::string_view text,
                                              const GraphModel& model);

[[nodiscard]] FaultPlanParse parse_fault_plan(std::string_view text,
                                              const GraphModel& model,
                                              const PlatformNames& names);

/// What became of one dispatched execution.
enum class ExecutionFate : std::uint8_t {
  kOk,          ///< completed with usable output
  kSlotLost,    ///< a dispatch slot inside it was lost
  kElementDown, ///< its element was inside a failure/repair window
  kDropped,     ///< dispatch lost (detected at start)
  kCorrupted,   ///< output corrupt (detected at completion)
};

[[nodiscard]] std::string_view execution_fate_name(ExecutionFate fate);

/// One injected fault occurrence, for logs and recovery bookkeeping.
struct FaultEvent {
  ExecutionFate fate = ExecutionFate::kOk;
  ElementId elem = kAnyElement;
  Time at = 0;        ///< realized start of the afflicted execution
  Time duration = 0;  ///< its reserved slots
  /// When a table-driven executive can first know: kCorrupted at
  /// at + duration (completion CRC), everything else at `at`.
  [[nodiscard]] Time detect_time() const {
    return fate == ExecutionFate::kCorrupted ? at + duration : at;
  }
  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Tallies per fate plus drift, shared by every integration point.
struct FaultCounters {
  std::size_t slot_lost = 0;
  std::size_t element_down = 0;
  std::size_t dropped = 0;
  std::size_t corrupted = 0;
  Time drift_slots = 0;

  [[nodiscard]] std::size_t faulted_ops() const {
    return slot_lost + element_down + dropped + corrupted;
  }
  /// Tallies one execution's fate (kOk counts nothing).
  void count(ExecutionFate fate) {
    switch (fate) {
      case ExecutionFate::kSlotLost: ++slot_lost; break;
      case ExecutionFate::kElementDown: ++element_down; break;
      case ExecutionFate::kDropped: ++dropped; break;
      case ExecutionFate::kCorrupted: ++corrupted; break;
      case ExecutionFate::kOk: break;
    }
  }
  friend bool operator==(const FaultCounters&, const FaultCounters&) = default;
};

/// A nominal op timeline transformed by a plan.
struct FaultedTimeline {
  /// Every op with drift-realized times, in start order (still sorted
  /// and non-overlapping; faults never change durations).
  std::vector<ScheduledOp> ops;
  /// Parallel to `ops`.
  std::vector<ExecutionFate> fate;
  /// Surviving executions only (the ground-truth timeline).
  std::vector<ScheduledOp> valid;
  /// One entry per non-kOk op, in time order.
  std::vector<FaultEvent> events;
  FaultCounters counters;
};

/// Stateless fault oracle for one plan. All queries are pure functions
/// of (plan, arguments); two injectors over equal plans agree on every
/// answer. Construction does not validate — run validate_fault_plan (or
/// arrive via parse_fault_plan) first; malformed rates simply clamp.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// True iff dispatch slot t is lost.
  [[nodiscard]] bool slot_lost(Time t) const;

  /// True iff element e is inside a failure/repair window at time t.
  [[nodiscard]] bool element_down(ElementId e, Time t) const;

  /// True iff processor `proc` is inside a failure/repair window at t.
  [[nodiscard]] bool processor_down(std::size_t proc, Time t) const;

  /// True iff link `link` is inside a failure/repair window at t.
  [[nodiscard]] bool link_down(std::size_t link, Time t) const;

  /// Combined bandwidth divisor for `link` at t: the product of every
  /// active kLinkDegrade factor (1 = nominal). Deterministic windows,
  /// no draws.
  [[nodiscard]] Time link_degrade(std::size_t link, Time t) const;

  /// True iff the plan contains any platform-level spec.
  [[nodiscard]] bool has_platform_faults() const;

  /// Sorted, deduplicated instants in (0, horizon) where the platform
  /// state (processor/link availability or degrade factor) changes —
  /// the epoch boundaries of a platform fault run. Pure function of the
  /// plan, so every consumer partitions time identically.
  [[nodiscard]] std::vector<Time> platform_event_times(Time horizon) const;

  /// Fate of an execution of `e` occupying [start, start + duration).
  /// Precedence: element failure, then slot loss, then drop, then
  /// corruption (first matching spec in plan order).
  [[nodiscard]] ExecutionFate fate(ElementId e, Time start, Time duration) const;

  /// Drift slots accrued at or before absolute time t (ticks at
  /// begin + m*every, m >= 1, inside each drift spec's window).
  [[nodiscard]] Time drift_before(Time t) const;

  /// Jitter shift for arrival `index` of constraint `ci` whose nominal
  /// instant is `nominal` (window filtering uses the nominal instant;
  /// the draw is pure in the index, so deferrals never re-roll it).
  [[nodiscard]] Time arrival_shift(std::size_t ci, std::size_t index,
                                   Time nominal) const;

  /// Applies jitter to every asynchronous stream, then re-legalizes by
  /// deferring any arrival closer than the minimum separation to its
  /// (shifted) predecessor. The result always passes validate_arrivals.
  [[nodiscard]] ConstraintArrivals apply_arrivals(const GraphModel& model,
                                                  const ConstraintArrivals& arrivals) const;

  /// Offline transform of a sorted, non-overlapping nominal timeline:
  /// drift slides starts right, every op gets a fate, survivors land in
  /// `valid`. Events past `horizon` still appear in `ops` (callers clip
  /// at emission, like emit_timeline); drift and loss accounting stops
  /// at the horizon.
  [[nodiscard]] FaultedTimeline apply(std::span<const ScheduledOp> nominal,
                                      Time horizon) const;

  /// Stateful 1:1 slot filter for slot-table executives (e.g.
  /// rt::CyclicExecutive::emit): run-decodes executions at the weights
  /// in `comm` and idles the slots of every faulted one. Covers all
  /// execution-fate kinds; clock drift is not representable in a 1:1
  /// transform and is ignored here. `counters`, when non-null, must
  /// outlive the filter and is updated as chunks begin.
  [[nodiscard]] std::function<sim::Slot(Time, sim::Slot)> make_slot_filter(
      const CommGraph& comm, FaultCounters* counters = nullptr) const;

 private:
  [[nodiscard]] double unit_draw(std::size_t spec, std::uint64_t a,
                                 std::uint64_t b) const;

  FaultPlan plan_;
};

/// No-recovery baseline run under a fault plan: the blind table-driven
/// executive dispatches as usual, the plan invalidates executions, and
/// invocations are re-verified against the surviving ops only (with
/// jittered arrival streams). An empty plan reproduces run_executive
/// exactly; the plan `drop * rate p` is the i.i.d. omission model (each
/// execution omitted with probability p). Throws std::invalid_argument
/// on the inputs run_executive rejects and on a plan
/// validate_fault_plan rejects. A non-null `trace_sink` receives the
/// *visible* horizon-slot timeline (valid executions busy, everything
/// else idle).
struct FaultRunResult {
  ExecutiveResult executive;
  /// Arrivals after jitter + re-legalization (what was actually served).
  ConstraintArrivals effective_arrivals;
  FaultCounters counters;
  std::vector<FaultEvent> events;
  std::size_t total_ops = 0;

  [[nodiscard]] double survival_rate() const {
    return executive.invocations.empty()
               ? 1.0
               : static_cast<double>(satisfied_count()) /
                     static_cast<double>(executive.invocations.size());
  }
  [[nodiscard]] std::size_t satisfied_count() const {
    std::size_t n = 0;
    for (const InvocationRecord& r : executive.invocations) n += r.satisfied ? 1 : 0;
    return n;
  }
};

[[nodiscard]] FaultRunResult run_executive_with_faults(
    const StaticSchedule& sched, const GraphModel& model,
    const ConstraintArrivals& arrivals, Time horizon, const FaultPlan& plan,
    sim::TraceSink* trace_sink = nullptr);

}  // namespace rtg::core
