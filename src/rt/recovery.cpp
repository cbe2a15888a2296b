#include "rt/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>

#include "rt/task.hpp"

namespace rtg::rt {

namespace {

using core::ElementId;
using core::ScheduledOp;
using core::ScheduleEntry;
using core::StaticSchedule;
using core::TimingConstraint;

// Nominal seam check of one (pair, phase, grid) cell: splice schedule
// a's tail (at this phase) with schedule b restarted at the switch
// instant and check every window the steady-state feasibility proofs
// do not cover (see the header). The window content is a pure function
// of (phase, switch time mod grid), so one concrete switch instant per
// cell decides the whole congruence class.
bool seam_admissible(const core::GraphModel& model, const StaticSchedule& a,
                     const StaticSchedule& b, Time phase, Time g, Time grid,
                     Time d_max) {
  const Time len_a = a.length();
  const Time len_b = b.length();
  const Time back = d_max + len_a;
  // Concrete switch instant: >= back, == g (mod grid).
  const Time s_abs = (back / grid + 2) * grid + g;

  std::vector<ScheduledOp> ops;
  const std::vector<ScheduledOp> a_ops = a.ops();
  Time base = s_abs - phase;
  while (base > s_abs - back) base -= len_a;
  for (; base < s_abs; base += len_a) {
    for (const ScheduledOp& op : a_ops) {
      const Time st = base + op.start;
      if (st >= s_abs) break;
      if (st + op.duration > s_abs) return false;  // phase cuts an execution
      if (st + op.duration > s_abs - back) {
        ops.push_back(ScheduledOp{op.elem, st, op.duration});
      }
    }
  }
  // b from its offset 0 at s_abs, far enough for every realignment
  // window.
  Time post_span = d_max;
  for (const TimingConstraint& c : model.constraints()) {
    if (!c.periodic()) continue;
    post_span = std::max(post_span, lcm_checked(len_b, c.period) + c.deadline);
  }
  const std::vector<ScheduledOp> b_ops = b.ops();
  const Time post_cycles = post_span / len_b + 2;
  for (Time k = 0; k < post_cycles; ++k) {
    for (const ScheduledOp& op : b_ops) {
      ops.push_back(ScheduledOp{op.elem, s_abs + k * len_b + op.start, op.duration});
    }
  }

  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const TimingConstraint& c = model.constraint(i);
    if (c.task_graph.empty()) continue;
    if (c.periodic()) {
      // Grid windows straddling the seam plus one full b-vs-grid
      // realignment cycle.
      const Time lcm_bp = lcm_checked(len_b, c.period);
      for (Time t = ((s_abs - c.deadline) / c.period + 1) * c.period;
           t < s_abs + lcm_bp; t += c.period) {
        if (!core::window_contains_execution(c.task_graph, ops, t, t + c.deadline)) {
          return false;
        }
      }
    } else {
      // Every window straddling the seam.
      for (Time t = s_abs - c.deadline + 1; t < s_abs; ++t) {
        if (!core::window_contains_execution(c.task_graph, ops, t, t + c.deadline)) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

bool FailoverTable::admissible(std::size_t from, std::size_t to, Time phase,
                               Time when) const {
  if (from == to || from >= size() || to >= size()) return false;
  const std::vector<std::uint8_t>& cells = ok[from * size() + to];
  if (cells.empty()) return false;
  const Time len = schedules[from].length();
  const Time ph = ((phase % len) + len) % len;
  const Time g = ((when % grid) + grid) % grid;
  return cells[static_cast<std::size_t>(ph * grid + g)] != 0;
}

std::size_t FailoverTable::admissible_count(std::size_t from, std::size_t to) const {
  if (from == to || from >= size() || to >= size()) return 0;
  const std::vector<std::uint8_t>& cells = ok[from * size() + to];
  std::size_t n = 0;
  for (std::uint8_t c : cells) n += c != 0 ? 1 : 0;
  return n;
}

FailoverTable compute_failover_table(const core::GraphModel& model,
                                     std::vector<core::StaticSchedule> schedules,
                                     const FailoverOptions& options) {
  if (schedules.empty()) {
    throw std::invalid_argument("compute_failover_table: no schedules");
  }
  FailoverTable table;
  table.grid = 1;
  table.max_deadline = 1;
  for (const TimingConstraint& c : model.constraints()) {
    table.max_deadline = std::max(table.max_deadline, c.deadline);
    if (c.periodic()) table.grid = lcm_checked(table.grid, c.period);
  }

  core::IncrementalVerifier verifier(model);
  for (std::size_t k = 0; k < schedules.size(); ++k) {
    const StaticSchedule& s = schedules[k];
    if (s.length() == 0) {
      throw std::invalid_argument("compute_failover_table: schedule " +
                                  std::to_string(k) + " is empty");
    }
    const std::vector<std::string> issues = s.validate(model.comm());
    if (!issues.empty()) {
      throw std::invalid_argument("compute_failover_table: schedule " +
                                  std::to_string(k) + ": " + issues.front());
    }
    const core::FeasibilityReport report = verifier.verify(s);
    core::VerifyOptions vo;
    vo.n_threads = options.n_threads;
    if (core::verify_schedule(s, model, vo) != report) {
      throw std::logic_error(
          "compute_failover_table: verifier engines disagree (determinism bug)");
    }
    if (!report.feasible) {
      throw std::invalid_argument("compute_failover_table: schedule " +
                                  std::to_string(k) +
                                  " is infeasible; only feasible schedules can be "
                                  "failover targets");
    }
    table.reports.push_back(report);
  }

  const std::size_t n = schedules.size();
  table.ok.assign(n * n, {});
  for (std::size_t a = 0; a < n; ++a) {
    const Time len_a = schedules[a].length();
    const std::size_t cells = static_cast<std::size_t>(len_a) *
                              static_cast<std::size_t>(table.grid);
    if (cells > options.max_offsets) {
      throw std::invalid_argument(
          "compute_failover_table: schedule " + std::to_string(a) + " needs " +
          std::to_string(cells) + " admissibility cells (cap " +
          std::to_string(options.max_offsets) + "); raise max_offsets");
    }
    // Entry boundaries are the only offsets a table-driven executive
    // can switch at.
    std::vector<Time> boundaries;
    Time off = 0;
    for (const ScheduleEntry& e : schedules[a].entries()) {
      boundaries.push_back(off);
      off += e.duration;
    }
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      std::vector<std::uint8_t>& pair = table.ok[a * n + b];
      pair.assign(cells, 0);
      for (Time phase : boundaries) {
        for (Time g = 0; g < table.grid; ++g) {
          pair[static_cast<std::size_t>(phase * table.grid + g)] =
              seam_admissible(model, schedules[a], schedules[b], phase, g,
                              table.grid, table.max_deadline)
                  ? 1
                  : 0;
        }
      }
    }
  }
  table.schedules = std::move(schedules);
  return table;
}

std::vector<RecoveryBound> recovery_bounds(const core::StaticSchedule& sched,
                                           const core::GraphModel& model,
                                           const RecoveryOptions& options) {
  if (sched.length() == 0) {
    throw std::invalid_argument("recovery_bounds: empty schedule");
  }
  const Time len = sched.length();
  // Idle runs per period, at entry granularity: a retry op never spans
  // two runs (mirrors run_self_healing's dispatch rule).
  std::vector<std::pair<Time, Time>> runs;  // (start offset, length)
  {
    Time off = 0;
    for (const ScheduleEntry& e : sched.entries()) {
      if (e.elem == core::kIdleEntry) runs.emplace_back(off, e.duration);
      off += e.duration;
    }
  }
  // Earliest start >= t of a w-slot placement inside a single idle-run
  // instance (runs repeat every len slots); nullopt when no run fits w.
  const auto place = [&](Time t, Time w) -> std::optional<Time> {
    std::optional<Time> best;
    for (const auto& [s, l] : runs) {
      if (l < w) continue;
      for (Time c = std::max<Time>(0, (t - s) / len - 1);; ++c) {
        const Time start = std::max(t, s + c * len);
        if (start + w <= s + c * len + l) {
          if (!best || start < *best) best = start;
          break;
        }
      }
    }
    return best;
  };

  std::vector<RecoveryBound> bounds;
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const TimingConstraint& c = model.constraint(i);
    RecoveryBound rb;
    rb.constraint = i;
    if (c.task_graph.empty()) {
      rb.latency = 0;
      rb.redispatch = 0;
      rb.recoverable = true;
      bounds.push_back(std::move(rb));
      continue;
    }
    for (ElementId e : c.task_graph.labels()) {
      rb.detection = std::max(rb.detection, model.comm().weight(e));
    }
    if (c.periodic()) {
      const Time lcm_lp = lcm_checked(len, c.period);
      const std::size_t periods = static_cast<std::size_t>(
          (lcm_lp + 2 * c.deadline) / len + 2 * static_cast<Time>(c.task_graph.size() + 1) + 2);
      const std::vector<ScheduledOp> unrolled = core::unroll_ops(sched, periods);
      std::optional<Time> worst = 0;
      for (Time t = 0; t < lcm_lp; t += c.period) {
        const std::optional<Time> f =
            core::earliest_embedding_finish(c.task_graph, unrolled, t);
        if (!f) {
          worst = std::nullopt;
          break;
        }
        worst = std::max(*worst, *f - t);
      }
      rb.latency = worst;
    } else {
      rb.latency = core::schedule_latency(sched, c.task_graph);
    }
    // Worst-phase sequential placement of one full execution of C into
    // the cyclic idle pattern.
    {
      const std::vector<core::OpId> topo = c.task_graph.topological_ops();
      std::optional<Time> worst_w = 0;
      for (Time s0 = 0; s0 < len && worst_w; ++s0) {
        Time t = s0;
        for (core::OpId op : topo) {
          const Time w = model.comm().weight(c.task_graph.label(op));
          const std::optional<Time> st = place(t, w);
          if (!st) {
            worst_w = std::nullopt;
            break;
          }
          t = *st + w;
        }
        if (worst_w) worst_w = std::max(*worst_w, t - s0);
      }
      if (worst_w) rb.redispatch = *worst_w + options.retry_backoff;
    }
    rb.recoverable = rb.latency && rb.redispatch &&
                     *rb.latency + *rb.redispatch + rb.detection <= c.deadline;
    bounds.push_back(std::move(rb));
  }
  return bounds;
}

std::string_view recovery_action_name(RecoveryActionKind kind) {
  switch (kind) {
    case RecoveryActionKind::kRetry:
      return "retry";
    case RecoveryActionKind::kRetryGaveUp:
      return "retry-gave-up";
    case RecoveryActionKind::kResync:
      return "resync";
    case RecoveryActionKind::kFailover:
      return "failover";
    case RecoveryActionKind::kMigrate:
      return "migrate";
    case RecoveryActionKind::kReroute:
      return "reroute";
    case RecoveryActionKind::kRevert:
      return "revert";
  }
  return "?";
}

SelfHealingResult run_self_healing(const core::GraphModel& model,
                                   const FailoverTable& table,
                                   const core::ConstraintArrivals& arrivals,
                                   Time horizon, const SelfHealingConfig& config) {
  if (horizon < 0) {
    throw std::invalid_argument("run_self_healing: negative horizon");
  }
  if (table.size() == 0) {
    throw std::invalid_argument("run_self_healing: empty failover table");
  }
  if (config.initial >= table.size()) {
    throw std::invalid_argument("run_self_healing: initial schedule out of range");
  }
  const core::ArrivalValidation validation = core::validate_arrivals(model, arrivals);
  if (!validation.ok()) {
    throw std::invalid_argument("run_self_healing: " + validation.to_string());
  }
  std::optional<core::FaultInjector> injector;
  if (!config.faults.empty()) {
    const std::vector<std::string> issues =
        core::validate_fault_plan(config.faults, model);
    if (!issues.empty()) {
      throw std::invalid_argument("run_self_healing: " + issues.front());
    }
    injector.emplace(config.faults);
  }
  const RecoveryOptions& opts = config.recovery;

  SelfHealingResult result;
  result.effective_arrivals =
      injector ? injector->apply_arrivals(model, arrivals) : arrivals;

  // --- Online monitor + violation trigger. ---------------------------
  monitor::StreamingMonitor mon(model);
  struct Trigger {
    std::size_t violations = 0;  ///< since the last switch
    Time first_detect = 0;
  } trig;
  Time now = 0;  // absolute time of the slot being emitted (for the listener)
  mon.set_violation_listener([&trig, &now](std::size_t, Time, Time) {
    if (trig.violations == 0) trig.first_detect = now;
    ++trig.violations;
  });

  sim::TraceAppender appender(result.trace);
  const auto emit = [&](sim::Slot s) {
    appender.on_slot(s);
    mon.on_slot(s);
    if (config.trace_sink != nullptr) config.trace_sink->on_slot(s);
  };

  std::vector<ScheduledOp> valid;  // surviving executions, time order
  std::vector<Time> latencies;     // detection-to-recovery samples
  std::size_t dispatches = 0;      // table entries executed

  // --- Retry machinery (single in-flight, FIFO). ---------------------
  struct Retry {
    std::size_t constraint = 0;
    Time onset = 0;
    Time detected = 0;
    Time eligible = 0;
    std::size_t attempts = 0;  ///< failed dispatch attempts so far
    std::size_t next_op = 0;
    ElementId faulted_elem = core::kAnyElement;
    std::vector<core::OpId> order;  ///< topological dispatch order
  };
  std::deque<Retry> queue;
  std::vector<bool> retry_pending(model.constraint_count(), false);

  const BackoffPolicy backoff = opts.backoff();

  const auto enqueue_retries = [&](const core::FaultEvent& ev) {
    if (!opts.retry) return;
    for (std::size_t i = 0; i < model.constraint_count(); ++i) {
      if (retry_pending[i]) continue;
      const core::TaskGraph& tg = model.constraint(i).task_graph;
      bool affected = false;
      for (ElementId e : tg.labels()) {
        if (e == ev.elem) {
          affected = true;
          break;
        }
      }
      if (!affected) continue;
      Retry r;
      r.constraint = i;
      r.onset = ev.at;
      r.detected = ev.detect_time();
      r.eligible = ev.detect_time() + backoff.delay_after(0);
      r.faulted_elem = ev.elem;
      r.order = tg.topological_ops();
      retry_pending[i] = true;
      queue.push_back(std::move(r));
    }
  };

  // --- Executive state. ----------------------------------------------
  std::size_t cur = config.initial;
  const std::vector<ScheduleEntry>* entries = &table.schedules[cur].entries();
  Time len = table.schedules[cur].length();
  const auto max_idle_run = [&]() {
    Time m = 0;
    for (const ScheduleEntry& e : *entries) {
      if (e.elem == core::kIdleEntry) m = std::max(m, e.duration);
    }
    return m;
  };
  Time idle_cap = max_idle_run();
  std::size_t entry_idx = 0;
  Time within = 0;  // table offset of the upcoming entry
  Time lag = 0;     // table slots behind wall time (drift)
  Time lag_onset = 0;
  Time drift_taken = 0;
  Time t = 0;
  Time last_switch = 0;
  bool want_failover = false;

  const auto advance_entry = [&](Time dur) {
    within += dur;
    if (within >= len) within -= len;
    ++entry_idx;
    if (entry_idx == entries->size()) entry_idx = 0;
  };

  const auto record_resync = [&]() {
    RecoveryAction a;
    a.kind = RecoveryActionKind::kResync;
    a.onset = lag_onset;
    a.detected = lag_onset;
    a.completed = t;
    result.actions.push_back(a);
    latencies.push_back(a.detection_to_recovery());
  };

  // Re-confirm the nominal seam verdict against the *realized* recent
  // trace: block the switch if some still-open window that staying
  // would satisfy (nominal continuation of the current schedule over
  // the surviving past) would be lost by switching.
  const auto confirm_switch = [&](std::size_t target) -> bool {
    const Time d_max = table.max_deadline;
    std::vector<ScheduledOp> past;
    for (auto it = valid.rbegin(); it != valid.rend(); ++it) {
      if (it->finish() + d_max <= t) break;
      past.push_back(*it);
    }
    std::reverse(past.begin(), past.end());
    const auto future_of = [&](std::size_t k, Time phase) {
      const StaticSchedule& s = table.schedules[k];
      std::vector<ScheduledOp> fut;
      const std::vector<ScheduledOp> s_ops = s.ops();
      for (Time base = t - phase; base < t + d_max; base += s.length()) {
        for (const ScheduledOp& op : s_ops) {
          const Time st = base + op.start;
          if (st < t) continue;
          if (st >= t + d_max) break;
          fut.push_back(ScheduledOp{op.elem, st, op.duration});
        }
      }
      return fut;
    };
    const std::vector<ScheduledOp> fut_stay = future_of(cur, within);
    const std::vector<ScheduledOp> fut_go = future_of(target, 0);
    const auto contains = [&](const core::TaskGraph& tg,
                              const std::vector<ScheduledOp>& fut, Time begin,
                              Time end) {
      std::vector<ScheduledOp> ops = past;
      ops.insert(ops.end(), fut.begin(), fut.end());
      return core::window_contains_execution(tg, ops, begin, end);
    };
    for (std::size_t i = 0; i < model.constraint_count(); ++i) {
      const TimingConstraint& c = model.constraint(i);
      if (c.task_graph.empty()) continue;
      const Time stride = c.periodic() ? c.period : 1;
      Time t0 = c.periodic()
                    ? (t > c.deadline ? ((t - c.deadline) / c.period + 1) * c.period : 0)
                    : std::max<Time>(0, t - c.deadline + 1);
      for (; t0 < t; t0 += stride) {
        if (contains(c.task_graph, fut_stay, t0, t0 + c.deadline) &&
            !contains(c.task_graph, fut_go, t0, t0 + c.deadline)) {
          return false;
        }
      }
    }
    return true;
  };

  // --- Slot loop. -----------------------------------------------------
  while (t < horizon) {
    // Clock drift: emit the owed stall slots; the table falls behind.
    if (injector) {
      const Time owed = injector->drift_before(t) - drift_taken;
      if (owed > 0) {
        if (lag == 0) lag_onset = t;
        now = t;
        emit(sim::kIdle);
        ++t;
        ++drift_taken;
        ++lag;
        // A whole period of lag is alignment-neutral (the schedule's
        // grid proof holds for any base that is a multiple of its
        // length).
        if (lag == len) {
          lag = 0;
          if (opts.resync) record_resync();
        }
        continue;
      }
    }

    // A retry whose next op cannot fit any idle entry of the current
    // schedule would head-block the queue forever: give up now.
    if (!queue.empty() && queue.front().next_op < queue.front().order.size()) {
      const Retry& r = queue.front();
      const core::TaskGraph& tg = model.constraint(r.constraint).task_graph;
      if (model.comm().weight(tg.label(r.order[r.next_op])) > idle_cap) {
        RecoveryAction a;
        a.kind = RecoveryActionKind::kRetryGaveUp;
        a.onset = r.onset;
        a.detected = r.detected;
        a.completed = t;
        a.elem = r.faulted_elem;
        a.constraint = r.constraint;
        a.attempts = r.attempts;
        result.actions.push_back(a);
        ++result.retries_abandoned;
        retry_pending[r.constraint] = false;
        queue.pop_front();
        continue;
      }
    }

    // Failover: arm on the violation threshold, take the switch only at
    // an admissible (phase, grid) cell while fully aligned and with no
    // partially placed retry.
    if (opts.failover && table.size() > 1 && !want_failover &&
        trig.violations >= opts.failover_violations &&
        t - last_switch >= opts.min_dwell) {
      want_failover = true;
    }
    if (want_failover && lag == 0 &&
        (queue.empty() || queue.front().next_op == 0)) {
      bool switched = false;
      for (std::size_t off = 1; off < table.size() && !switched; ++off) {
        const std::size_t target = (cur + off) % table.size();
        if (!table.admissible(cur, target, within, t)) continue;
        if (opts.confirm_online && !confirm_switch(target)) continue;
        RecoveryAction a;
        a.kind = RecoveryActionKind::kFailover;
        a.onset = trig.first_detect;
        a.detected = trig.first_detect;
        a.completed = t;
        a.from_schedule = cur;
        a.to_schedule = target;
        result.actions.push_back(a);
        latencies.push_back(a.detection_to_recovery());
        cur = target;
        entries = &table.schedules[cur].entries();
        len = table.schedules[cur].length();
        idle_cap = max_idle_run();
        entry_idx = 0;
        within = 0;
        last_switch = t;
        trig.violations = 0;
        want_failover = false;
        switched = true;
      }
      if (!switched) ++result.blocked_switches;
    }

    const ScheduleEntry entry = (*entries)[entry_idx];
    if (entry.elem == core::kIdleEntry) {
      Time remaining = entry.duration;
      // Resync: absorb drift lag into idle table slots (the table
      // advances, wall time does not).
      if (opts.resync && lag > 0) {
        const Time absorb = std::min(lag, remaining);
        lag -= absorb;
        remaining -= absorb;
        if (lag == 0) record_resync();
      }
      while (remaining > 0 && t < horizon) {
        bool dispatched = false;
        if (!queue.empty()) {
          Retry& r = queue.front();
          if (t >= r.eligible && r.next_op < r.order.size()) {
            const core::TaskGraph& tg = model.constraint(r.constraint).task_graph;
            const ElementId e = tg.label(r.order[r.next_op]);
            const Time w = model.comm().weight(e);
            if (w <= remaining && t + w <= horizon) {
              ++result.retries_dispatched;
              const core::ExecutionFate fate =
                  injector ? injector->fate(e, t, w) : core::ExecutionFate::kOk;
              const bool ok = fate == core::ExecutionFate::kOk;
              const Time start = t;
              for (Time k = 0; k < w; ++k) {
                now = t;
                emit(ok ? static_cast<sim::Slot>(e) : sim::kIdle);
                ++t;
              }
              remaining -= w;
              if (ok) {
                valid.push_back(ScheduledOp{e, start, w});
                ++r.next_op;
                if (r.next_op == r.order.size()) {
                  RecoveryAction a;
                  a.kind = RecoveryActionKind::kRetry;
                  a.onset = r.onset;
                  a.detected = r.detected;
                  a.completed = t;
                  a.elem = r.faulted_elem;
                  a.constraint = r.constraint;
                  a.attempts = r.attempts + 1;
                  result.actions.push_back(a);
                  latencies.push_back(a.detection_to_recovery());
                  ++result.retries_succeeded;
                  retry_pending[r.constraint] = false;
                  queue.pop_front();
                }
              } else {
                const core::FaultEvent ev{fate, e, start, w};
                result.fault_events.push_back(ev);
                result.counters.count(fate);
                ++r.attempts;
                if (r.attempts >= opts.max_retries) {
                  RecoveryAction a;
                  a.kind = RecoveryActionKind::kRetryGaveUp;
                  a.onset = r.onset;
                  a.detected = r.detected;
                  a.completed = t;
                  a.elem = r.faulted_elem;
                  a.constraint = r.constraint;
                  a.attempts = r.attempts;
                  result.actions.push_back(a);
                  ++result.retries_abandoned;
                  retry_pending[r.constraint] = false;
                  queue.pop_front();
                } else {
                  r.eligible = ev.detect_time() + backoff.delay_after(r.attempts);
                }
              }
              dispatched = true;
            }
          }
        }
        if (!dispatched) {
          now = t;
          emit(sim::kIdle);
          ++t;
          --remaining;
        }
      }
      advance_entry(entry.duration);
    } else {
      const Time w = entry.duration;
      const core::ExecutionFate fate =
          injector ? injector->fate(entry.elem, t, w) : core::ExecutionFate::kOk;
      const bool ok = fate == core::ExecutionFate::kOk;
      const Time start = t;
      for (Time k = 0; k < w && t < horizon; ++k) {
        now = t;
        emit(ok ? static_cast<sim::Slot>(entry.elem) : sim::kIdle);
        ++t;
      }
      ++dispatches;
      if (ok) {
        if (start + w <= horizon) valid.push_back(ScheduledOp{entry.elem, start, w});
      } else if (start < horizon) {
        const core::FaultEvent ev{fate, entry.elem, start, w};
        result.fault_events.push_back(ev);
        result.counters.count(fate);
        enqueue_retries(ev);
      }
      advance_entry(w);
    }
  }
  result.counters.drift_slots = drift_taken;

  // --- Offline re-verification of every invocation (same semantics as
  // run_executive_with_faults). -----------------------------------------
  result.executive =
      core::score_invocations(model, result.effective_arrivals, horizon, valid);
  result.executive.dispatches = dispatches;

  result.monitor = mon.report();
  result.final_schedule = cur;
  if (!latencies.empty()) {
    Time sum = 0;
    for (Time l : latencies) {
      sum += l;
      result.max_detection_to_recovery = std::max(result.max_detection_to_recovery, l);
    }
    result.mean_detection_to_recovery =
        static_cast<double>(sum) / static_cast<double>(latencies.size());
  }
  return result;
}

}  // namespace rtg::rt
