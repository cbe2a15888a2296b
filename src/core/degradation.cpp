#include "core/degradation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/maintenance.hpp"
#include "sim/rng.hpp"

namespace rtg::core {

// ---------------------------------------------------------------- modes

ModeLadder build_mode_ladder(const GraphModel& model, const ModeLadderOptions& options) {
  ModeLadder ladder;
  const HeuristicResult primary = latency_schedule(model, options.heuristic);
  if (!primary.success) {
    ladder.failure_reason = "primary synthesis failed: " + primary.failure_reason;
    return ladder;
  }
  if (primary.schedule->length() == 0) {
    ladder.failure_reason = "primary schedule is empty";
    return ladder;
  }
  ladder.base = primary.scheduled_model;
  const std::size_t n = ladder.base.constraint_count();

  ExecutiveMode mode0;
  mode0.name = "primary";
  mode0.schedule = *primary.schedule;
  mode0.served.assign(n, true);
  mode0.utilization = primary.schedule->utilization();
  ladder.modes.push_back(std::move(mode0));
  ladder.success = true;

  // Criticality levels that can be shed, ascending. The top tier among
  // asynchronous constraints is never shed: the last-resort mode still
  // serves it (and every periodic constraint).
  std::vector<Criticality> levels;
  for (const TimingConstraint& c : ladder.base.constraints()) {
    if (!c.periodic()) levels.push_back(c.criticality);
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  if (!levels.empty()) levels.pop_back();

  HeuristicOptions degraded_opts = options.heuristic;
  degraded_opts.pipeline = false;  // the base model is already pipelined

  std::size_t built = 0;
  for (const Criticality level : levels) {
    if (built >= options.max_degraded_modes) break;

    GraphModel reduced(ladder.base.comm());
    std::vector<bool> served(n, false);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const TimingConstraint& c = ladder.base.constraint(i);
      if (c.periodic() || c.criticality > level) {
        reduced.add_constraint(c);
        served[i] = true;
        ++kept;
      }
    }
    if (kept == 0 || kept == n) continue;

    // Synthesize the reduced schedule, hardened when requested so the
    // surviving constraints get replicated executions per window.
    std::optional<StaticSchedule> sched;
    if (options.harden_k > 0) {
      const HardenedResult hardened =
          harden_and_schedule(reduced, options.harden_k, degraded_opts);
      if (hardened.success) sched = hardened.schedule;
    }
    if (!sched) {
      const HeuristicResult plain = latency_schedule(reduced, degraded_opts);
      if (!plain.success) break;
      sched = plain.schedule;
    }

    // Maintenance re-verification against the ORIGINAL deadlines of
    // the reduced model; a failing schedule is repaired or the ladder
    // ends here.
    const MaintenanceResult check =
        maintain_schedule(*sched, reduced, reduced, degraded_opts);
    if (check.outcome == MaintenanceOutcome::kFailed || !check.schedule) break;
    sched = check.schedule;
    if (sched->length() == 0) break;

    ExecutiveMode mode;
    mode.name = "degraded-" + std::to_string(built + 1);
    mode.schedule = std::move(*sched);
    mode.served = std::move(served);
    mode.utilization = mode.schedule.utilization();
    mode.min_criticality = level + 1;
    ladder.modes.push_back(std::move(mode));
    ++built;
  }
  return ladder;
}

// ------------------------------------------------------------- watchdog

Watchdog::Watchdog(const WatchdogOptions& options, std::size_t constraint_count)
    : options_(options),
      miss_count_(constraint_count, 0),
      served_count_(constraint_count, 0) {}

void Watchdog::record(std::size_t constraint, bool missed) {
  ++served_count_.at(constraint);
  if (missed) ++miss_count_.at(constraint);
  window_.push_back(missed);
  if (missed) ++window_misses_;
  while (window_.size() > options_.window) {
    if (window_.front()) --window_misses_;
    window_.pop_front();
  }
}

void Watchdog::record_cycle(Time overrun_slots) {
  if (overrun_slots > 0) {
    ++cycle_overruns_;
    overrun_slots_ += overrun_slots;
    ++overrun_streak_;
  } else {
    overrun_streak_ = 0;
  }
}

double Watchdog::miss_rate() const {
  if (window_.empty()) return 0.0;
  return static_cast<double>(window_misses_) / static_cast<double>(window_.size());
}

bool Watchdog::should_degrade() const {
  if (window_.size() >= options_.min_observations &&
      miss_rate() >= options_.degrade_threshold) {
    return true;
  }
  return options_.overrun_cycles_to_degrade > 0 &&
         overrun_streak_ >= options_.overrun_cycles_to_degrade;
}

bool Watchdog::healthy() const { return miss_rate() <= options_.recover_threshold; }

void Watchdog::reset_window() {
  window_.clear();
  window_misses_ = 0;
  overrun_streak_ = 0;
}

// ------------------------------------------------------------ executive

bool AdaptiveResult::all_served_met() const {
  for (const AdaptiveInvocation& inv : invocations) {
    if (!inv.shed && !inv.satisfied) return false;
  }
  return true;
}

std::size_t AdaptiveResult::critical_misses(const GraphModel& base,
                                            Criticality at_least) const {
  std::size_t misses = 0;
  for (const AdaptiveInvocation& inv : invocations) {
    if (base.constraint(inv.constraint).criticality >= at_least && !inv.satisfied) {
      ++misses;
    }
  }
  return misses;
}

namespace {

struct PendingInvocation {
  Time deadline = 0;
  Time invoked = 0;
  std::size_t constraint = 0;
};

// Pushes each raw arrival through admission control; returns the
// admitted invocations (windows inside the horizon) and records every
// decision.
std::vector<PendingInvocation> admit_arrivals(const GraphModel& base,
                                              const ConstraintArrivals& arrivals,
                                              Time horizon,
                                              const AdaptiveOptions& options,
                                              std::vector<AdmissionRecord>& decisions) {
  std::vector<PendingInvocation> pending;
  for (std::size_t i = 0; i < base.constraint_count(); ++i) {
    const TimingConstraint& c = base.constraint(i);
    if (c.periodic()) {
      for (Time t = 0; t + c.deadline <= horizon; t += c.period) {
        pending.push_back(PendingInvocation{t + c.deadline, t, i});
      }
      continue;
    }
    if (i >= arrivals.size()) continue;  // no arrivals offered
    std::vector<Time> stream = arrivals[i];
    std::stable_sort(stream.begin(), stream.end());
    bool any_admitted = false;
    Time last = 0;
    for (const Time t : stream) {
      AdmissionRecord rec;
      rec.constraint = i;
      rec.requested = t;
      rec.admitted = t;
      if (t < 0) {
        rec.decision = AdmissionDecision::kRejected;
        decisions.push_back(rec);
        continue;
      }
      if (any_admitted && t < last + c.period) {
        const Time earliest_legal = last + c.period;
        if (options.admission == AdmissionPolicy::kReject ||
            (options.max_backoff > 0 && earliest_legal - t > options.max_backoff)) {
          rec.decision = AdmissionDecision::kRejected;
          decisions.push_back(rec);
          continue;
        }
        rec.decision = AdmissionDecision::kDeferred;
        rec.admitted = earliest_legal;
      } else {
        rec.decision = AdmissionDecision::kAdmitted;
      }
      decisions.push_back(rec);
      any_admitted = true;
      last = rec.admitted;
      if (rec.admitted + c.deadline <= horizon) {
        pending.push_back(
            PendingInvocation{rec.admitted + c.deadline, rec.admitted, i});
      }
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const PendingInvocation& a, const PendingInvocation& b) {
              if (a.deadline != b.deadline) return a.deadline < b.deadline;
              if (a.invoked != b.invoked) return a.invoked < b.invoked;
              return a.constraint < b.constraint;
            });
  return pending;
}

}  // namespace

AdaptiveResult run_adaptive_executive(const ModeLadder& ladder,
                                      const ConstraintArrivals& arrivals, Time horizon,
                                      const AdaptiveOptions& options) {
  if (!ladder.success || ladder.modes.empty()) {
    throw std::invalid_argument("run_adaptive_executive: unusable mode ladder");
  }
  if (horizon < 0) {
    throw std::invalid_argument("run_adaptive_executive: negative horizon");
  }
  for (const ExecutiveMode& m : ladder.modes) {
    if (m.schedule.length() == 0) {
      throw std::invalid_argument("run_adaptive_executive: mode '" + m.name +
                                  "' has an empty schedule");
    }
  }

  const std::size_t n = ladder.base.constraint_count();
  AdaptiveResult result;
  result.horizon = horizon;
  result.shed_count.assign(n, 0);

  std::optional<FaultInjector> injector;
  if (!options.faults.empty()) {
    const std::vector<std::string> issues =
        validate_fault_plan(options.faults, ladder.base);
    if (!issues.empty()) {
      throw std::invalid_argument("run_adaptive_executive: " + issues.front());
    }
    injector.emplace(options.faults);
  }

  // Arrival jitter perturbs the raw streams; admission control then
  // defers/rejects any separation violation jitter may have induced.
  ConstraintArrivals jittered = arrivals;
  if (injector) {
    for (std::size_t ci = 0; ci < n && ci < jittered.size(); ++ci) {
      if (ladder.base.constraint(ci).periodic()) continue;
      for (std::size_t k = 0; k < jittered[ci].size(); ++k) {
        if (jittered[ci][k] < 0) continue;
        jittered[ci][k] += injector->arrival_shift(ci, k, jittered[ci][k]);
      }
    }
  }

  const std::vector<PendingInvocation> pending =
      admit_arrivals(ladder.base, jittered, horizon, options, result.admissions);

  // Per-mode op tables, flattened once.
  std::vector<std::vector<ScheduledOp>> mode_ops;
  mode_ops.reserve(ladder.modes.size());
  for (const ExecutiveMode& m : ladder.modes) mode_ops.push_back(m.schedule.ops());

  Watchdog watchdog(options.watchdog, n);
  sim::Rng rng(options.overruns.seed);

  std::vector<ScheduledOp> realized;
  // Parallel to `realized`: false for ops a fault invalidated. Only
  // valid ops count toward invocation windows; faulted spans idle in
  // the emitted trace so online observers agree with the evaluation.
  std::vector<bool> realized_ok;
  std::vector<ScheduledOp> valid;
  Time drift_taken = 0;
  // Cycle log for shed attribution: start, end, mode of every cycle.
  std::vector<Time> cycle_starts;
  std::vector<Time> cycle_finishes;
  std::vector<std::size_t> cycle_mode;

  std::size_t mode = 0;
  Time time = 0;
  std::size_t cycles_in_mode = 0;
  std::size_t next_pending = 0;
  Time emitted = 0;           ///< slots already delivered to the trace sink
  std::size_t next_emit = 0;  ///< first realized op not yet emitted

  const auto evaluate = [&](const PendingInvocation& p) {
    AdaptiveInvocation inv;
    inv.constraint = p.constraint;
    inv.invoked = p.invoked;
    inv.abs_deadline = p.deadline;

    const auto lo = std::lower_bound(
        valid.begin(), valid.end(), p.invoked,
        [](const ScheduledOp& op, Time t) { return op.start < t; });
    const auto hi = std::lower_bound(
        lo, valid.end(), p.deadline,
        [](const ScheduledOp& op, Time t) { return op.start < t; });
    const std::span<const ScheduledOp> window(
        valid.data() + (lo - valid.begin()), static_cast<std::size_t>(hi - lo));
    const TaskGraph& tg = ladder.base.constraint(p.constraint).task_graph;
    const auto finish = earliest_embedding_finish(tg, window, p.invoked);
    if (finish && *finish <= p.deadline) {
      inv.completed = finish;
      inv.satisfied = true;
    }

    if (!inv.satisfied) {
      // Shed iff no cycle overlapping the window served this constraint.
      bool any_serving = false;
      auto c = std::upper_bound(cycle_finishes.begin(), cycle_finishes.end(),
                                p.invoked) -
               cycle_finishes.begin();
      for (std::size_t j = static_cast<std::size_t>(c);
           j < cycle_starts.size() && cycle_starts[j] < p.deadline; ++j) {
        if (ladder.modes[cycle_mode[j]].served[p.constraint]) {
          any_serving = true;
          break;
        }
      }
      inv.shed = !any_serving;
    }

    if (inv.shed) {
      ++result.shed_count[p.constraint];
    } else {
      watchdog.record(p.constraint, !inv.satisfied);
    }
    result.invocations.push_back(inv);
  };

  while (time < horizon) {
    // Clock drift stalls the table: every tick owed by now inserts one
    // idle slot before the next cycle begins.
    if (injector) {
      const Time owed = injector->drift_before(time) - drift_taken;
      if (owed > 0) {
        time += owed;
        drift_taken += owed;
        result.fault_counters.drift_slots += owed;
      }
    }
    const ExecutiveMode& m = ladder.modes[mode];
    const Time cycle_start = time;
    cycle_starts.push_back(cycle_start);
    cycle_mode.push_back(mode);

    Time cursor = cycle_start;
    for (const ScheduledOp& op : mode_ops[mode]) {
      ScheduledOp actual{op.elem, std::max(cycle_start + op.start, cursor),
                         op.duration};
      if (rng.chance(options.overruns.probability_for(op.elem))) {
        const double mag = std::max(1.0, options.overruns.magnitude_for(op.elem));
        actual.duration = static_cast<Time>(
            std::ceil(static_cast<double>(op.duration) * mag));
        ++result.overrun_ops;
      }
      cursor = actual.finish();
      bool ok = true;
      if (injector) {
        const ExecutionFate f =
            injector->fate(actual.elem, actual.start, actual.duration);
        if (f != ExecutionFate::kOk) {
          ok = false;
          result.fault_events.push_back(
              FaultEvent{f, actual.elem, actual.start, actual.duration});
          result.fault_counters.count(f);
        }
      }
      realized.push_back(actual);
      realized_ok.push_back(ok);
      if (ok) valid.push_back(actual);
      ++result.dispatches;
    }
    const Time nominal_end = cycle_start + m.schedule.length();
    const Time overrun = std::max<Time>(0, cursor - nominal_end);
    const Time cycle_end = nominal_end + overrun;
    watchdog.record_cycle(overrun);
    result.overrun_slots += overrun;
    cycle_finishes.push_back(cycle_end);
    time = cycle_end;

    if (options.trace_sink != nullptr) {
      for (; next_emit < realized.size(); ++next_emit) {
        const ScheduledOp& op = realized[next_emit];
        for (; emitted < op.start; ++emitted) options.trace_sink->on_slot(sim::kIdle);
        const sim::Slot symbol = realized_ok[next_emit]
                                     ? static_cast<sim::Slot>(op.elem)
                                     : sim::kIdle;
        for (; emitted < op.finish(); ++emitted) options.trace_sink->on_slot(symbol);
      }
      for (; emitted < cycle_end; ++emitted) options.trace_sink->on_slot(sim::kIdle);
    }

    while (next_pending < pending.size() && pending[next_pending].deadline <= time) {
      evaluate(pending[next_pending]);
      ++next_pending;
    }

    // Mode management — only here, at the cycle boundary.
    ++cycles_in_mode;
    if (watchdog.should_degrade() && mode + 1 < ladder.modes.size()) {
      result.mode_changes.push_back(
          ModeChange{time, mode, mode + 1, watchdog.miss_rate()});
      ++mode;
      watchdog.reset_window();
      cycles_in_mode = 0;
    } else if (mode > 0 && cycles_in_mode >= options.watchdog.recovery_cycles &&
               watchdog.healthy()) {
      result.mode_changes.push_back(
          ModeChange{time, mode, mode - 1, watchdog.miss_rate()});
      --mode;
      watchdog.reset_window();
      cycles_in_mode = 0;
    }
  }

  // Every remaining recorded invocation has deadline <= horizon <= time.
  while (next_pending < pending.size()) {
    evaluate(pending[next_pending]);
    ++next_pending;
  }

  result.miss_count.resize(n);
  result.served_count.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.miss_count[i] = watchdog.miss_count(i);
    result.served_count[i] = watchdog.served_count(i);
  }
  result.final_mode = mode;
  return result;
}

}  // namespace rtg::core
