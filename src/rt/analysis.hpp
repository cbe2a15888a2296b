// analysis.hpp — schedulability analysis for the process model.
//
// Implements the classical uniprocessor results the paper leans on as
// its process-based baseline ([MOK 83], Liu & Layland):
//   * Liu–Layland utilization bound for rate-monotonic priorities;
//   * exact response-time analysis for fixed priorities (with blocking
//     terms for monitor critical sections);
//   * exact EDF schedulability via the processor-demand criterion for
//     constrained-deadline periodic sets;
//   * the simple EDF utilization test (U <= 1) for implicit deadlines.
#pragma once

#include <optional>
#include <vector>

#include "rt/task.hpp"

namespace rtg::rt {

/// Liu–Layland bound n(2^{1/n} - 1). Returns 1.0 for n == 0.
[[nodiscard]] double liu_layland_bound(std::size_t n);

/// Sufficient RM test: utilization() <= liu_layland_bound(n).
[[nodiscard]] bool rm_utilization_test(const TaskSet& ts);

/// Priority assignment orders for fixed-priority analysis.
enum class PriorityOrder {
  kRateMonotonic,      ///< smaller p = higher priority
  kDeadlineMonotonic,  ///< smaller d = higher priority
};

/// Index permutation of tasks sorted by descending priority under the
/// given order (stable; ties by index).
[[nodiscard]] std::vector<std::size_t> priority_order(const TaskSet& ts, PriorityOrder order);

/// Exact fixed-priority response-time analysis (Joseph & Pandya
/// iteration) with blocking from lower-priority critical sections.
/// Returns the worst-case response time per task, or nullopt for a task
/// whose iteration exceeds its deadline (unschedulable). Requires
/// constrained deadlines (d <= p); throws otherwise.
[[nodiscard]] std::vector<std::optional<Time>> response_times(const TaskSet& ts,
                                                              PriorityOrder order);

/// True iff every task's worst-case response time is <= its deadline.
[[nodiscard]] bool fixed_priority_schedulable(const TaskSet& ts, PriorityOrder order);

/// EDF exact test for synchronous periodic sets with constrained
/// deadlines: demand bound function h(t) = Σ_i max(0, floor((t - d_i)/p_i)
/// + 1) c_i must satisfy h(t) <= t for all absolute deadlines t up to
/// min(H, L), where H is the hyperperiod and L the synchronous busy
/// period (least fixed point of L = Σ ceil(L/p_i) c_i). A first
/// violation always lies inside the busy period (Ripoll, Crespo & Mok
/// 1996), so the verdict equals the full-hyperperiod check while the
/// work is bounded by the deadlines inside L.
/// Throws std::invalid_argument if some d_i > p_i.
[[nodiscard]] bool edf_schedulable(const TaskSet& ts);

/// Demand bound function h(t) for the task set at time t.
[[nodiscard]] Time demand_bound(const TaskSet& ts, Time t);

/// EDF utilization test for implicit deadlines (d == p): U <= 1.
[[nodiscard]] bool edf_utilization_test(const TaskSet& ts);

/// Audsley's optimal priority assignment: returns a priority order
/// (task indices, highest priority first) under which every task meets
/// its deadline per response-time analysis, or nullopt if no
/// fixed-priority assignment works. Optimal for constrained deadlines:
/// if any assignment is feasible, one is found. Requires d <= p.
[[nodiscard]] std::optional<std::vector<std::size_t>> audsley_assignment(
    const TaskSet& ts);

/// Exact fixed-priority response time of the task at `which` given an
/// explicit priority order (highest first). Blocking terms from
/// lower-priority critical sections included. nullopt = exceeds its
/// deadline.
[[nodiscard]] std::optional<Time> response_time_under(const TaskSet& ts,
                                                      const std::vector<std::size_t>& order,
                                                      std::size_t which);

}  // namespace rtg::rt
