#include "core/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rtg::core {

namespace {

// Enough periods that `replicas` stacked greedy embeddings starting in
// the first period all resolve.
std::size_t ft_unroll_budget(const TaskGraph& tg, std::size_t replicas) {
  return (2 * tg.size() + 2) * std::max<std::size_t>(replicas, 1);
}

// Earliest combined finish of `replicas` pairwise-disjoint embeddings
// starting at or after t (greedy: peel embeddings earliest-first; an
// upper bound in general, exact for single-op and chain task graphs
// where earliest-disjoint-first is optimal).
std::optional<Time> disjoint_completion(const TaskGraph& tg,
                                        std::span<const ScheduledOp> ops, Time t,
                                        std::size_t replicas,
                                        std::vector<bool>& used_scratch) {
  used_scratch.assign(ops.size(), false);
  Time finish = t;
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto witness = find_earliest_embedding(tg, ops, t, used_scratch);
    if (!witness) return std::nullopt;
    finish = std::max(finish, witness->finish);
    for (std::size_t idx : witness->assignment) used_scratch[idx] = true;
  }
  return finish;
}

}  // namespace

std::optional<Time> fault_tolerant_latency(const StaticSchedule& sched,
                                           const TaskGraph& tg, std::size_t replicas) {
  if (replicas == 0) return 0;
  if (replicas == 1) return schedule_latency(sched, tg);
  if (tg.empty()) return 0;
  if (sched.length() == 0) return std::nullopt;

  const Time period = sched.length();
  const std::vector<ScheduledOp> unrolled =
      unroll_ops(sched, ft_unroll_budget(tg, replicas));

  std::vector<Time> candidates{0};
  for (const ScheduledOp& op : sched.ops()) {
    if (op.start + 1 < period) candidates.push_back(op.start + 1);
  }

  Time latency = 0;
  std::vector<bool> scratch;
  for (Time t : candidates) {
    const auto finish = disjoint_completion(tg, unrolled, t, replicas, scratch);
    if (!finish) return std::nullopt;
    latency = std::max(latency, *finish - t);
  }
  return latency;
}

GraphModel harden_model(const GraphModel& model, std::size_t k) {
  GraphModel hardened(model.comm());
  for (const TimingConstraint& c : model.constraints()) {
    const Time d = c.deadline / static_cast<Time>(k + 1);
    if (d < 1) {
      throw std::invalid_argument("harden_model: constraint '" + c.name +
                                  "' deadline too small for k=" + std::to_string(k));
    }
    TimingConstraint copy = c;
    copy.deadline = d;
    // Hardened constraints run continuously so that every original
    // window splits into k+1 served sub-windows.
    copy.kind = ConstraintKind::kAsynchronous;
    hardened.add_constraint(std::move(copy));
  }
  return hardened;
}

HardenedResult harden_and_schedule(const GraphModel& model, std::size_t k,
                                   const HeuristicOptions& options) {
  HardenedResult result;
  GraphModel hardened;
  try {
    hardened = harden_model(model, k);
  } catch (const std::invalid_argument& e) {
    result.failure_reason = e.what();
    return result;
  }
  const HeuristicResult h = latency_schedule(hardened, options);
  result.scheduled_model = h.scheduled_model;
  if (!h.success) {
    result.failure_reason = h.failure_reason;
    return result;
  }
  result.schedule = h.schedule;
  result.utilization = h.schedule->utilization();

  bool all_ok = true;
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    // The hardened scheduled model's task graph i is the (pipelined)
    // original graph; verify k+1 disjoint executions inside the
    // ORIGINAL deadline.
    const auto ft = fault_tolerant_latency(
        *result.schedule, result.scheduled_model.constraint(i).task_graph, k + 1);
    result.ft_latency.push_back(ft);
    if (!ft || *ft > model.constraint(i).deadline) all_ok = false;
  }
  if (!all_ok) {
    result.failure_reason = "fault-tolerant latency verification failed";
    return result;
  }
  result.success = true;
  return result;
}

std::vector<ScheduledOp> inject_overruns(std::span<const ScheduledOp> ops,
                                         const OverrunModel& overruns,
                                         std::size_t* overrun_count) {
  sim::Rng rng(overruns.seed);
  std::vector<ScheduledOp> out;
  out.reserve(ops.size());
  std::size_t count = 0;
  Time cursor = 0;
  for (const ScheduledOp& op : ops) {
    ScheduledOp actual = op;
    actual.start = std::max(op.start, cursor);
    if (rng.chance(overruns.probability_for(op.elem))) {
      const double mag = std::max(1.0, overruns.magnitude_for(op.elem));
      actual.duration = static_cast<Time>(
          std::ceil(static_cast<double>(op.duration) * mag));
      ++count;
    }
    cursor = actual.finish();
    out.push_back(actual);
  }
  if (overrun_count != nullptr) *overrun_count = count;
  return out;
}

}  // namespace rtg::core
