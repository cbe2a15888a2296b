#include "core/runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/fault.hpp"
#include "core/fault_injection.hpp"

namespace rtg::core {

namespace {

const char* issue_kind_label(ArrivalIssue::Kind kind) {
  switch (kind) {
    case ArrivalIssue::Kind::kMissingStream:
      return "missing arrival stream";
    case ArrivalIssue::Kind::kNegativeTime:
      return "negative arrival time";
    case ArrivalIssue::Kind::kUnsorted:
      return "unsorted arrival stream";
    case ArrivalIssue::Kind::kSeparationViolation:
      return "minimum-separation violation";
  }
  return "unknown issue";
}

// Validation prelude of every blind executive. `who` prefixes the
// diagnostic of the std::invalid_argument thrown on a negative horizon,
// an empty schedule, a malformed arrival stream or (when given) an
// invalid fault plan.
void check_run_inputs(const char* who, const StaticSchedule& sched,
                      const GraphModel& model, const ConstraintArrivals& arrivals,
                      Time horizon, const FaultPlan* plan) {
  const std::string prefix = std::string(who) + ": ";
  if (horizon < 0) throw std::invalid_argument(prefix + "negative horizon");
  if (sched.length() == 0) throw std::invalid_argument(prefix + "empty schedule");
  const ArrivalValidation validation = validate_arrivals(model, arrivals);
  if (!validation.ok()) throw std::invalid_argument(prefix + validation.to_string());
  if (plan != nullptr) {
    const std::vector<std::string> issues = validate_fault_plan(*plan, model);
    if (!issues.empty()) throw std::invalid_argument(prefix + issues.front());
  }
}

// The dispatch table unrolled far enough that embeddings for late
// invocations resolve: a window ending at `horizon` may need ops up to
// horizon, and the embedding search itself never looks past the
// window's deadline.
std::vector<ScheduledOp> unroll_for_horizon(const StaticSchedule& sched,
                                            const GraphModel& model, Time horizon) {
  Time max_deadline = 0;
  std::size_t max_ops = 0;
  for (const TimingConstraint& c : model.constraints()) {
    max_deadline = std::max(max_deadline, c.deadline);
    max_ops = std::max(max_ops, c.task_graph.size());
  }
  const std::size_t periods = static_cast<std::size_t>(
      (horizon + max_deadline) / sched.length() + 1 +
      static_cast<Time>(2 * max_ops + 2));
  return unroll_ops(sched, periods);
}

// Dispatcher decisions of a run: one per op that starts before the
// horizon.
std::size_t dispatches_before(std::span<const ScheduledOp> ops, Time horizon) {
  return static_cast<std::size_t>(std::count_if(
      ops.begin(), ops.end(), [horizon](const ScheduledOp& op) { return op.start < horizon; }));
}

}  // namespace

void emit_timeline(std::span<const ScheduledOp> ops, Time horizon,
                   sim::TraceSink& sink) {
  Time cursor = 0;
  for (const ScheduledOp& op : ops) {
    if (op.start >= horizon) break;
    for (; cursor < op.start; ++cursor) sink.on_slot(sim::kIdle);
    const Time end = std::min(op.finish(), horizon);
    for (; cursor < end; ++cursor) sink.on_slot(static_cast<sim::Slot>(op.elem));
  }
  for (; cursor < horizon; ++cursor) sink.on_slot(sim::kIdle);
}

std::string ArrivalIssue::to_string() const {
  std::string s = std::string(issue_kind_label(kind)) + " for constraint '" +
                  constraint_name + "'";
  if (kind == Kind::kMissingStream) return s;
  s += " at stream index " + std::to_string(position) + " (t=" + std::to_string(time);
  if (kind == Kind::kUnsorted || kind == Kind::kSeparationViolation) {
    s += ", previous t=" + std::to_string(previous);
  }
  s += ")";
  return s;
}

std::string ArrivalValidation::to_string() const {
  std::string s;
  for (const ArrivalIssue& issue : issues) {
    if (!s.empty()) s += "\n";
    s += issue.to_string();
  }
  return s;
}

ArrivalValidation validate_arrivals(const GraphModel& model,
                                    const ConstraintArrivals& arrivals) {
  ArrivalValidation v;
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const TimingConstraint& c = model.constraint(i);
    if (c.periodic()) continue;
    if (i >= arrivals.size()) {
      v.issues.push_back(ArrivalIssue{ArrivalIssue::Kind::kMissingStream, i, c.name,
                                      0, 0, 0});
      continue;
    }
    const auto& stream = arrivals[i];
    // A flagged-negative instant is not a separation anchor: later
    // arrivals are judged against the last *valid* one, so a single
    // bad instant yields a single diagnostic.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t prev = kNone;
    for (std::size_t k = 0; k < stream.size(); ++k) {
      if (stream[k] < 0) {
        v.issues.push_back(ArrivalIssue{ArrivalIssue::Kind::kNegativeTime, i, c.name,
                                        k, stream[k], 0});
        continue;
      }
      if (prev != kNone) {
        if (stream[k] < stream[prev]) {
          v.issues.push_back(ArrivalIssue{ArrivalIssue::Kind::kUnsorted, i, c.name, k,
                                          stream[k], stream[prev]});
        } else if (stream[k] - stream[prev] < c.period) {
          v.issues.push_back(ArrivalIssue{ArrivalIssue::Kind::kSeparationViolation, i,
                                          c.name, k, stream[k], stream[prev]});
        }
      }
      prev = k;
    }
  }
  return v;
}

ExecutiveResult score_invocations(const GraphModel& model,
                                  const ConstraintArrivals& arrivals, Time horizon,
                                  std::span<const ScheduledOp> valid_ops) {
  ExecutiveResult result;
  result.horizon = horizon;
  const auto score = [&](std::size_t i, const TimingConstraint& c, Time t) {
    InvocationRecord rec;
    rec.constraint = i;
    rec.invoked = t;
    rec.abs_deadline = t + c.deadline;
    const auto finish = earliest_embedding_finish(c.task_graph, valid_ops, t);
    if (finish && *finish <= rec.abs_deadline) {
      rec.completed = finish;
      rec.satisfied = true;
    } else {
      result.all_met = false;
    }
    result.invocations.push_back(rec);
  };
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const TimingConstraint& c = model.constraint(i);
    if (c.periodic()) {
      for (Time t = 0; t + c.deadline <= horizon; t += c.period) score(i, c, t);
    } else {
      for (Time t : arrivals[i]) {
        if (t + c.deadline <= horizon) score(i, c, t);
      }
    }
  }
  return result;
}

ExecutiveResult run_executive(const StaticSchedule& sched, const GraphModel& model,
                              const ConstraintArrivals& arrivals, Time horizon,
                              sim::TraceSink* trace_sink) {
  check_run_inputs("run_executive", sched, model, arrivals, horizon, nullptr);
  const std::vector<ScheduledOp> ops = unroll_for_horizon(sched, model, horizon);
  if (trace_sink != nullptr) emit_timeline(ops, horizon, *trace_sink);
  ExecutiveResult result = score_invocations(model, arrivals, horizon, ops);
  result.dispatches = dispatches_before(ops, horizon);
  return result;
}

FaultRunResult run_executive_with_faults(const StaticSchedule& sched,
                                         const GraphModel& model,
                                         const ConstraintArrivals& arrivals,
                                         Time horizon, const FaultPlan& plan,
                                         sim::TraceSink* trace_sink) {
  check_run_inputs("run_executive_with_faults", sched, model, arrivals, horizon, &plan);
  const FaultInjector injector(plan);
  FaultRunResult result;
  result.effective_arrivals = injector.apply_arrivals(model, arrivals);
  FaultedTimeline faulted =
      injector.apply(unroll_for_horizon(sched, model, horizon), horizon);
  if (trace_sink != nullptr) emit_timeline(faulted.valid, horizon, *trace_sink);
  result.executive =
      score_invocations(model, result.effective_arrivals, horizon, faulted.valid);
  result.total_ops = dispatches_before(faulted.ops, horizon);
  result.executive.dispatches = result.total_ops;
  result.counters = faulted.counters;
  result.events = std::move(faulted.events);
  return result;
}

OverrunRunResult run_with_overruns(const StaticSchedule& sched, const GraphModel& model,
                                   const ConstraintArrivals& arrivals, Time horizon,
                                   const OverrunModel& overruns,
                                   sim::TraceSink* trace_sink, const FaultPlan* faults) {
  check_run_inputs("run_with_overruns", sched, model, arrivals, horizon, faults);
  const std::vector<ScheduledOp> nominal = unroll_for_horizon(sched, model, horizon);

  OverrunRunResult result;
  result.total_ops = nominal.size();
  std::vector<ScheduledOp> actual =
      inject_overruns(nominal, overruns, &result.overrun_ops);
  for (std::size_t i = 0; i < nominal.size(); ++i) {
    result.max_slide = std::max(result.max_slide, actual[i].start - nominal[i].start);
  }

  // Compose the fault plan over the slid timeline: drift shifts starts
  // further, fates strike at the realized times, and only survivors
  // are visible (to the trace and to invocation windows alike).
  const ConstraintArrivals* served = &arrivals;
  ConstraintArrivals effective;
  if (faults != nullptr && !faults->empty()) {
    const FaultInjector injector(*faults);
    FaultedTimeline timeline = injector.apply(actual, horizon);
    result.fault_counters = timeline.counters;
    actual = std::move(timeline.valid);
    effective = injector.apply_arrivals(model, arrivals);
    served = &effective;
  }
  if (trace_sink != nullptr) emit_timeline(actual, horizon, *trace_sink);

  const ExecutiveResult scored = score_invocations(model, *served, horizon, actual);
  result.invocations = scored.invocations.size();
  for (const InvocationRecord& rec : scored.invocations) {
    if (rec.satisfied) ++result.satisfied;
  }
  return result;
}

}  // namespace rtg::core
