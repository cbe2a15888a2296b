// fault.hpp — fault-tolerant latency scheduling.
//
// The paper's conclusion proposes devising "more domain-specific
// fault-tolerance techniques" on top of the model. This module carries
// that out for crash/omission faults of executions:
//
//   * A schedule is *k-fault-tolerant* for a constraint (C, p, d) if
//     every window of length d contains k+1 pairwise-disjoint
//     executions of C — then any k omitted (failed) executions still
//     leave a complete one inside every invocation window.
//   * Hardening: tighten each deadline to floor(d / (k+1)) and run the
//     ordinary constructive scheduler. Every window of length d then
//     contains k+1 disjoint sub-windows, each with its own execution —
//     a sufficient (not necessary) construction, in the same spirit as
//     Theorem 3.
//   * Verification measures the *fault-tolerant latency*: the smallest
//     L such that every window of length >= L contains k+1 disjoint
//     executions.
//   * Omission injection is a fault plan (core/fault_injection): a
//     `drop * rate p` directive run through run_executive_with_faults
//     omits each execution with probability p, and invocations are
//     re-verified against the surviving ops only.
//   * Overruns (OverrunModel) are the one fault kind a plan cannot
//     express: they change durations, plan fates never do.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/heuristic.hpp"
#include "core/model.hpp"
#include "core/runtime.hpp"
#include "core/static_schedule.hpp"
#include "sim/rng.hpp"

namespace rtg::core {

/// Smallest L such that every window of length >= L of the cyclic
/// schedule contains `replicas` pairwise-disjoint executions of `tg`
/// (disjoint = no shared schedule op). nullopt = no such L.
/// replicas == 1 coincides with schedule_latency.
[[nodiscard]] std::optional<Time> fault_tolerant_latency(const StaticSchedule& sched,
                                                         const TaskGraph& tg,
                                                         std::size_t replicas);

/// Rewrites the model with deadlines floored to d / (k+1) (periodic
/// constraints' periods are untouched; their deadlines shrink the same
/// way). Throws std::invalid_argument if some deadline would reach 0.
[[nodiscard]] GraphModel harden_model(const GraphModel& model, std::size_t k);

struct HardenedResult {
  bool success = false;
  std::string failure_reason;
  /// Schedule over scheduled_model (pipelined hardened model).
  GraphModel scheduled_model;
  std::optional<StaticSchedule> schedule;
  /// Verified fault-tolerant latency per original constraint (against
  /// the ORIGINAL deadlines, k+1 disjoint executions).
  std::vector<std::optional<Time>> ft_latency;
  /// Extra busy fraction relative to the unhardened schedule (>= 1).
  double utilization = 0.0;
};

/// Hardens and schedules: every asynchronous constraint's window of its
/// original deadline d ends up holding k+1 disjoint executions.
[[nodiscard]] HardenedResult harden_and_schedule(const GraphModel& model, std::size_t k,
                                                 const HeuristicOptions& options = {});

/// Overrun fault model: an execution may take *longer* than its
/// declared weight. Each execution independently overruns with the
/// element's probability; an overrunning execution of duration w takes
/// ceil(w * magnitude) slots instead. The dispatcher is table-driven
/// and non-preemptive, so an overrun slides every later op of the same
/// timeline right (an op starts at max(table slot, previous finish));
/// idle slots absorb the slide.
struct OverrunModel {
  double probability = 0.0;  ///< default per-execution overrun probability
  double magnitude = 2.0;    ///< duration multiplier when overrunning (> 1)
  std::uint64_t seed = 1;
  /// Optional per-element overrides indexed by ElementId; entries past
  /// the end (or an empty vector) fall back to the defaults above.
  std::vector<double> element_probability;
  std::vector<double> element_magnitude;

  [[nodiscard]] double probability_for(ElementId e) const {
    return e < element_probability.size() ? element_probability[e] : probability;
  }
  [[nodiscard]] double magnitude_for(ElementId e) const {
    return e < element_magnitude.size() ? element_magnitude[e] : magnitude;
  }
};

/// Perturbs a table timeline (sorted, non-overlapping, e.g. from
/// unroll_ops) with overruns under the slide semantics above. The
/// result is again sorted and non-overlapping. `overrun_count`, when
/// non-null, receives the number of executions that overran.
[[nodiscard]] std::vector<ScheduledOp> inject_overruns(
    std::span<const ScheduledOp> ops, const OverrunModel& overruns,
    std::size_t* overrun_count = nullptr);

struct OverrunRunResult {
  std::size_t invocations = 0;
  std::size_t satisfied = 0;
  std::size_t overrun_ops = 0;
  std::size_t total_ops = 0;
  /// Largest slide of any dispatch past its table slot.
  Time max_slide = 0;
  /// Fault-plan tallies (all zero when no plan was injected).
  FaultCounters fault_counters;

  [[nodiscard]] double survival_rate() const {
    return invocations == 0 ? 1.0
                            : static_cast<double>(satisfied) /
                                  static_cast<double>(invocations);
  }
};

/// Non-adaptive baseline: runs the blind executive for `horizon` slots
/// under injected overruns and re-verifies every invocation window
/// against the slid timeline. Arrival streams as in run_executive.
/// A non-null `trace_sink` receives the *slid* slot timeline (what a
/// probe on the processor would actually observe), `horizon` slots.
/// A non-null `faults` composes a fault plan on top of the overruns:
/// the plan transforms the slid timeline (core/fault_injection), only
/// surviving executions count toward invocations, the emitted trace
/// idles the faulted slots, and arrivals are jitter-adjusted.
[[nodiscard]] OverrunRunResult run_with_overruns(const StaticSchedule& sched,
                                                 const GraphModel& model,
                                                 const ConstraintArrivals& arrivals,
                                                 Time horizon,
                                                 const OverrunModel& overruns,
                                                 sim::TraceSink* trace_sink = nullptr,
                                                 const FaultPlan* faults = nullptr);

}  // namespace rtg::core
