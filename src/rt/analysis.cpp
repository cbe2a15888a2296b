#include "rt/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace rtg::rt {

double liu_layland_bound(std::size_t n) {
  if (n == 0) return 1.0;
  const double nd = static_cast<double>(n);
  return nd * (std::pow(2.0, 1.0 / nd) - 1.0);
}

bool rm_utilization_test(const TaskSet& ts) {
  return ts.utilization() <= liu_layland_bound(ts.size()) + 1e-12;
}

std::vector<std::size_t> priority_order(const TaskSet& ts, PriorityOrder order) {
  std::vector<std::size_t> idx(ts.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    const Time ka = order == PriorityOrder::kRateMonotonic ? ts[a].p : ts[a].d;
    const Time kb = order == PriorityOrder::kRateMonotonic ? ts[b].p : ts[b].d;
    return ka < kb;
  });
  return idx;
}

std::vector<std::optional<Time>> response_times(const TaskSet& ts, PriorityOrder order) {
  if (!ts.constrained_deadlines()) {
    throw std::invalid_argument("response_times: requires d <= p for every task");
  }
  const auto prio = priority_order(ts, order);
  std::vector<std::optional<Time>> result(ts.size());

  for (std::size_t rank = 0; rank < prio.size(); ++rank) {
    const Task& task = ts[prio[rank]];
    // Blocking: longest critical section among strictly lower-priority
    // tasks (classic non-preemptive-section blocking term).
    Time blocking = 0;
    for (std::size_t lower = rank + 1; lower < prio.size(); ++lower) {
      blocking = std::max(blocking, ts[prio[lower]].critical_section);
    }
    // Fixed-point iteration R = B + c + Σ_hp ceil(R / p_j) c_j.
    Time response = blocking + task.c;
    bool converged = false;
    while (response <= task.d) {
      Time next = blocking + task.c;
      for (std::size_t higher = 0; higher < rank; ++higher) {
        const Task& hp = ts[prio[higher]];
        next += ((response + hp.p - 1) / hp.p) * hp.c;
      }
      if (next == response) {
        converged = true;
        break;
      }
      response = next;
    }
    result[prio[rank]] = converged ? std::optional<Time>(response) : std::nullopt;
  }
  return result;
}

bool fixed_priority_schedulable(const TaskSet& ts, PriorityOrder order) {
  const auto rts = response_times(ts, order);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!rts[i] || *rts[i] > ts[i].d) return false;
  }
  return true;
}

Time demand_bound(const TaskSet& ts, Time t) {
  Time h = 0;
  for (const Task& task : ts.tasks()) {
    if (t >= task.d) {
      h += ((t - task.d) / task.p + 1) * task.c;
    }
  }
  return h;
}

bool edf_schedulable(const TaskSet& ts) {
  if (!ts.constrained_deadlines()) {
    throw std::invalid_argument("edf_schedulable: requires d <= p for every task");
  }
  if (ts.empty()) return true;
  if (ts.utilization() > 1.0 + 1e-12) return false;

  // h(t) <= t need only hold at absolute deadlines up to the synchronous
  // busy period L, the least fixed point of L = Σ ceil(L / p_i) c_i: a
  // first violation always lies inside it (Ripoll, Crespo & Mok 1996).
  // With U <= 1 the iteration stops at some L <= H; a float utilization
  // that passed the test above while the exact one exceeds 1 runs it
  // past H, and the horizon stays the hyperperiod.
  const Time hyper = ts.hyperperiod();
  Time busy = 0;
  for (const Task& task : ts.tasks()) busy += task.c;
  while (busy <= hyper) {
    Time next = 0;
    for (const Task& task : ts.tasks()) next += ((busy + task.p - 1) / task.p) * task.c;
    if (next == busy) break;
    busy = next;
  }
  const Time horizon = std::min(hyper, busy);

  // Walk all tasks' deadlines in ascending order, adding each job's c to
  // the running demand; after the last job due at t the sum is h(t).
  using Deadline = std::pair<Time, std::size_t>;  // (absolute deadline, task)
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<>> due;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].d <= horizon) due.emplace(ts[i].d, i);
  }
  Time demand = 0;
  while (!due.empty()) {
    const auto [t, i] = due.top();
    due.pop();
    demand += ts[i].c;
    if (demand > t) return false;
    if (t + ts[i].p <= horizon) due.emplace(t + ts[i].p, i);
  }
  return true;
}

bool edf_utilization_test(const TaskSet& ts) {
  return ts.utilization() <= 1.0 + 1e-12;
}

std::optional<Time> response_time_under(const TaskSet& ts,
                                        const std::vector<std::size_t>& order,
                                        std::size_t which) {
  if (!ts.constrained_deadlines()) {
    throw std::invalid_argument("response_time_under: requires d <= p");
  }
  const auto rank_of = [&](std::size_t task) {
    for (std::size_t r = 0; r < order.size(); ++r) {
      if (order[r] == task) return r;
    }
    throw std::invalid_argument("response_time_under: task missing from order");
  };
  const std::size_t rank = rank_of(which);
  const Task& task = ts[which];
  Time blocking = 0;
  for (std::size_t r = rank + 1; r < order.size(); ++r) {
    blocking = std::max(blocking, ts[order[r]].critical_section);
  }
  Time response = blocking + task.c;
  while (response <= task.d) {
    Time next = blocking + task.c;
    for (std::size_t r = 0; r < rank; ++r) {
      const Task& hp = ts[order[r]];
      next += ((response + hp.p - 1) / hp.p) * hp.c;
    }
    if (next == response) return response;
    response = next;
  }
  return std::nullopt;
}

std::optional<std::vector<std::size_t>> audsley_assignment(const TaskSet& ts) {
  if (!ts.constrained_deadlines()) {
    throw std::invalid_argument("audsley_assignment: requires d <= p");
  }
  const std::size_t n = ts.size();
  std::vector<bool> placed(n, false);
  // Assign priority levels lowest-first: a task fits at the lowest
  // unassigned level iff it meets its deadline with all still-unplaced
  // tasks above it. Audsley's theorem: if no task fits at this level,
  // no assignment exists.
  std::vector<std::size_t> lowest_first;
  for (std::size_t level = 0; level < n; ++level) {
    bool found = false;
    for (std::size_t cand = 0; cand < n && !found; ++cand) {
      if (placed[cand]) continue;
      // Order: all unplaced-except-cand above, cand, then the already
      // placed ones below (their identity does not matter for cand's
      // response time beyond blocking; include them for completeness).
      std::vector<std::size_t> order;
      for (std::size_t i = 0; i < n; ++i) {
        if (!placed[i] && i != cand) order.push_back(i);
      }
      order.push_back(cand);
      for (auto it = lowest_first.rbegin(); it != lowest_first.rend(); ++it) {
        order.push_back(*it);
      }
      const auto rt = response_time_under(ts, order, cand);
      if (rt && *rt <= ts[cand].d) {
        placed[cand] = true;
        lowest_first.push_back(cand);
        found = true;
      }
    }
    if (!found) return std::nullopt;
  }
  std::vector<std::size_t> highest_first(lowest_first.rbegin(), lowest_first.rend());
  return highest_first;
}

}  // namespace rtg::rt
