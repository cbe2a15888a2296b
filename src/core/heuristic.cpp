#include "core/heuristic.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "graph/algorithms.hpp"
#include "rt/analysis.hpp"
#include "rt/task.hpp"

namespace rtg::core {

namespace {

// A per-constraint periodic server: execute the whole task graph (ops
// in topological order) once in every period window.
struct Server {
  Time period = 1;
  Time rel_deadline = 1;
  std::vector<std::pair<ElementId, Time>> ops;  // (element, weight) in topo order
  Time budget = 0;

  // live state
  Time next_release = 0;
  bool active = false;
  Time abs_deadline = 0;
  std::size_t next_op = 0;
};

Time server_period(const TimingConstraint& c) {
  if (c.periodic()) return c.period;
  return (c.deadline + 1) / 2;  // ceil(d/2)
}

Time server_deadline(const TimingConstraint& c) {
  if (c.periodic()) return std::min(c.deadline, c.period);
  return (c.deadline + 1) / 2;
}

// Largest power of two <= x (x >= 1).
Time pow2_floor(Time x) {
  Time p = 1;
  while (p * 2 <= x) p *= 2;
  return p;
}

// Harmonized server: period = deadline = the largest power of two not
// exceeding ceil(d/2). Coverage still holds (2P <= d+1 a fortiori) for
// BOTH kinds — a window of every length-d interval then contains a full
// server window, which subsumes periodic invocation windows — and all
// hyperperiods collapse to the single largest power of two.
Time harmonized_period(const TimingConstraint& c) {
  return pow2_floor((c.deadline + 1) / 2);
}

}  // namespace

HeuristicResult latency_schedule(const GraphModel& model, const HeuristicOptions& options) {
  HeuristicResult result;

  GraphModel working = options.coalesce ? coalesce_model(model) : model;
  if (options.pipeline) {
    working = pipeline_model(working).model;
  }
  result.scheduled_model = working;

  const auto cancelled = [&options] {
    if (options.progress != nullptr) {
      options.progress->fetch_add(1, std::memory_order_relaxed);
    }
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  if (working.constraint_count() == 0) {
    result.success = true;
    result.schedule = StaticSchedule{};
    result.schedule->push_idle(1);
    result.report =
        verify_schedule(*result.schedule, working,
                        VerifyOptions{.n_threads = options.n_threads,
                                      .cancel = options.cancel,
                                      .progress = options.progress});
    return result;
  }

  // Build servers.
  std::vector<Server> servers;
  rt::TaskSet server_tasks;
  for (const TimingConstraint& c : working.constraints()) {
    Server s;
    if (options.harmonize_periods) {
      s.period = s.rel_deadline = harmonized_period(c);
    } else {
      s.period = server_period(c);
      s.rel_deadline = server_deadline(c);
    }
    for (OpId op : c.task_graph.topological_ops()) {
      const ElementId e = c.task_graph.label(op);
      s.ops.emplace_back(e, working.comm().weight(e));
      s.budget += working.comm().weight(e);
    }
    if (s.budget > s.rel_deadline) {
      result.failure_reason = "constraint '" + c.name + "' needs " +
                              std::to_string(s.budget) + " slots but its server window is " +
                              std::to_string(s.rel_deadline);
      return result;
    }
    result.server_utilization +=
        static_cast<double>(s.budget) / static_cast<double>(s.period);
    rt::Task task;
    task.name = c.name;
    task.c = s.budget;
    task.p = s.period;
    task.d = s.rel_deadline;
    server_tasks.add(task);
    servers.push_back(std::move(s));
  }

  if (!rt::edf_schedulable(server_tasks)) {
    result.failure_reason = "server set fails the EDF demand-bound test (utilization " +
                            std::to_string(result.server_utilization) + ")";
    return result;
  }

  Time hyper = 1;
  for (const Server& s : servers) hyper = rt::lcm_checked(hyper, s.period);
  if (hyper > options.max_schedule_length) {
    result.failure_reason = "server hyperperiod " + std::to_string(hyper) +
                            " exceeds max_schedule_length";
    return result;
  }

  // Op-granularity EDF over one hyperperiod. Ops are non-preemptible;
  // after pipelining all ops are unit-size, so this coincides with
  // preemptive EDF at slot granularity.
  StaticSchedule sched;
  Time t = 0;
  // Earliest next_release over all servers: no server releases before
  // it, so process_releases skips its scan until `now` reaches it.
  Time next_release = 0;
  auto process_releases = [&](Time now) -> bool {
    if (now < next_release) return true;
    next_release = hyper;
    for (Server& s : servers) {
      while (s.next_release <= now && s.next_release < hyper) {
        if (s.active) return false;  // previous instance unfinished at re-release
        s.active = true;
        s.abs_deadline = s.next_release + s.rel_deadline;
        s.next_op = 0;
        s.next_release += s.period;
      }
      next_release = std::min(next_release, s.next_release);
    }
    return true;
  };

  std::size_t cancel_tick = 0;
  while (t < hyper) {
    if ((++cancel_tick & 1023) == 0 && cancelled()) {
      result.failure_reason = "cancelled";
      return result;
    }
    if (!process_releases(t)) {
      result.failure_reason = "EDF simulation: instance overrun at re-release";
      return result;
    }
    // Miss check: an active instance whose deadline has passed (or
    // arrives before it can run a single slot) can no longer make it.
    Server* pick = nullptr;
    std::size_t pick_idx = 0;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      Server& s = servers[i];
      if (!s.active) continue;
      if (s.abs_deadline <= t) {
        result.failure_reason = "EDF simulation: deadline miss of server " +
                                std::to_string(i) + " at t=" + std::to_string(t);
        return result;
      }
      if (pick == nullptr || s.abs_deadline < pick->abs_deadline ||
          (s.abs_deadline == pick->abs_deadline && i < pick_idx)) {
        pick = &s;
        pick_idx = i;
      }
    }
    if (pick == nullptr) {
      // Nothing runs until the next release (or the cycle end): idle up
      // to it in one step.
      sched.push_idle(next_release - t);
      t = next_release;
      continue;
    }
    const auto [elem, weight] = pick->ops[pick->next_op];
    sched.push_execution(elem, weight);
    t += weight;
    if (++pick->next_op == pick->ops.size()) {
      pick->active = false;
      if (t > pick->abs_deadline) {
        result.failure_reason = "EDF simulation: instance finished past its deadline";
        return result;
      }
    }
  }
  // Releases in the final op's shadow that never got a slot.
  if (!process_releases(hyper - 1)) {
    result.failure_reason = "EDF simulation: instance overrun at cycle end";
    return result;
  }
  for (const Server& s : servers) {
    if (s.active) {
      result.failure_reason = "EDF simulation: instance pending at cycle end";
      return result;
    }
  }

  result.report = verify_schedule(sched, working,
                                  VerifyOptions{.n_threads = options.n_threads,
                                                .cancel = options.cancel,
                                                .progress = options.progress});
  if (result.report.cancelled) {
    result.failure_reason = "cancelled";
    return result;
  }
  if (!result.report.feasible) {
    result.failure_reason = "constructed schedule failed verification";
    return result;
  }
  if (options.refine && !cancelled()) {
    // The constructive schedule over-provisions (polling servers run
    // their whole task graph every instance); drop redundant executions
    // while the incremental verifier keeps feasibility exact.
    sched = compact_schedule(sched, working, &result.refine_stats);
    result.report = verify_schedule(sched, working,
                                    VerifyOptions{.n_threads = options.n_threads,
                                                  .cancel = options.cancel,
                                                  .progress = options.progress});
    if (result.report.cancelled) {
      result.failure_reason = "cancelled";
      return result;
    }
  }
  result.success = true;
  result.schedule = std::move(sched);
  return result;
}

namespace {

// Union of two task graphs by element label. Requires unique labels in
// both inputs; returns nullopt when labels repeat or the union would be
// cyclic.
std::optional<TaskGraph> union_task_graph(const TaskGraph& a, const TaskGraph& b) {
  if (a.has_repeated_labels() || b.has_repeated_labels()) return std::nullopt;

  std::unordered_map<ElementId, OpId> node_of;
  TaskGraph merged;
  auto intern = [&](ElementId e) {
    auto it = node_of.find(e);
    if (it != node_of.end()) return it->second;
    const OpId op = merged.add_op(e);
    node_of.emplace(e, op);
    return op;
  };
  for (const TaskGraph* tg : {&a, &b}) {
    for (OpId op = 0; op < tg->size(); ++op) intern(tg->label(op));
    for (const graph::Edge& e : tg->skeleton().edges()) {
      merged.add_dep(intern(tg->label(e.from)), intern(tg->label(e.to)));
    }
  }
  if (!graph::is_acyclic(merged.skeleton())) return std::nullopt;
  return merged;
}

double async_server_util(const CommGraph& comm, const TaskGraph& tg, Time deadline) {
  const Time w = tg.computation_time(comm);
  const Time period = (deadline + 1) / 2;
  return static_cast<double>(w) / static_cast<double>(period);
}

double constraint_server_util(const CommGraph& comm, const TimingConstraint& c) {
  const Time w = c.task_graph.computation_time(comm);
  if (c.periodic()) {
    return static_cast<double>(w) / static_cast<double>(c.period);
  }
  return async_server_util(comm, c.task_graph, c.deadline);
}

}  // namespace

GraphModel coalesce_model(const GraphModel& model) {
  std::vector<TimingConstraint> pool = model.constraints();
  const CommGraph& comm = model.comm();

  bool changed = true;
  while (changed) {
    changed = false;
    double best_gain = 1e-9;
    std::size_t best_i = 0, best_j = 0;
    std::optional<TaskGraph> best_union;

    for (std::size_t i = 0; i < pool.size(); ++i) {
      for (std::size_t j = i + 1; j < pool.size(); ++j) {
        // Only worth trying when label sets overlap.
        std::unordered_set<ElementId> labels_i(pool[i].task_graph.labels().begin(),
                                               pool[i].task_graph.labels().end());
        const bool overlap =
            std::any_of(pool[j].task_graph.labels().begin(),
                        pool[j].task_graph.labels().end(),
                        [&](ElementId e) { return labels_i.contains(e); });
        if (!overlap) continue;

        auto merged = union_task_graph(pool[i].task_graph, pool[j].task_graph);
        if (!merged) continue;
        const Time d = std::min(pool[i].deadline, pool[j].deadline);
        const Time w = merged->computation_time(comm);

        // Two periodic constraints with the same period (and phase 0)
        // merge into one periodic constraint: one execution per period
        // serves both invocations. Anything else merges into an
        // asynchronous constraint, whose any-window latency guarantee
        // subsumes both originals.
        const bool as_periodic = pool[i].periodic() && pool[j].periodic() &&
                                 pool[i].period == pool[j].period;
        double after;
        if (as_periodic) {
          if (w > std::min(d, pool[i].period)) continue;  // server cannot fit
          after = static_cast<double>(w) / static_cast<double>(pool[i].period);
        } else {
          if (w > (d + 1) / 2) continue;  // server cannot fit
          after = async_server_util(comm, *merged, d);
        }

        const double before = constraint_server_util(comm, pool[i]) +
                              constraint_server_util(comm, pool[j]);
        const double gain = before - after;
        if (gain > best_gain) {
          best_gain = gain;
          best_i = i;
          best_j = j;
          best_union = std::move(merged);
        }
      }
    }

    if (best_union) {
      TimingConstraint merged;
      merged.name = pool[best_i].name + "+" + pool[best_j].name;
      merged.task_graph = std::move(*best_union);
      merged.deadline = std::min(pool[best_i].deadline, pool[best_j].deadline);
      merged.period = std::min(pool[best_i].period, pool[best_j].period);
      const bool as_periodic = pool[best_i].periodic() && pool[best_j].periodic() &&
                               pool[best_i].period == pool[best_j].period;
      merged.kind =
          as_periodic ? ConstraintKind::kPeriodic : ConstraintKind::kAsynchronous;
      // A merged execution serves both members: it must survive
      // degradation as long as the more critical of the two.
      merged.criticality = std::max(pool[best_i].criticality, pool[best_j].criticality);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_j));
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_i));
      pool.push_back(std::move(merged));
      changed = true;
    }
  }

  GraphModel out(model.comm());
  for (TimingConstraint& c : pool) out.add_constraint(std::move(c));
  return out;
}

}  // namespace rtg::core
