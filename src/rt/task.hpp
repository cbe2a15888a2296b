// task.hpp — process-based task model ([MOK 83] substrate).
//
// The paper's baseline synthesis maps each timing constraint onto a
// periodic or sporadic *process*; the resulting process sets are then
// analyzed and scheduled with the classical results of Mok's thesis
// (EDF, least-laxity, utilization bounds). This module defines that
// process model: tasks with computation time c, period (or minimum
// separation) p, and relative deadline d.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rtg::rt {

using sim::Time;

/// How a task's instances arrive.
enum class Arrival : std::uint8_t {
  kPeriodic,  ///< released exactly every p slots starting at time 0
  kSporadic,  ///< released at arbitrary instants >= p apart
};

/// A real-time task (process). Invariants: c >= 1, p >= 1, d >= 1.
struct Task {
  std::string name;
  Time c = 1;  ///< worst-case computation time (slots)
  Time p = 1;  ///< period / minimum separation (slots)
  Time d = 1;  ///< relative deadline (slots)
  Arrival arrival = Arrival::kPeriodic;
  /// Longest non-preemptible critical section inside the task body
  /// (monitor call), used as a blocking term in analysis. 0 = none.
  Time critical_section = 0;

  [[nodiscard]] double utilization() const {
    return static_cast<double>(c) / static_cast<double>(p);
  }
  [[nodiscard]] double density() const {
    return static_cast<double>(c) / static_cast<double>(d);
  }
};

/// An ordered collection of tasks.
class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(std::vector<Task> tasks);

  /// Validates invariants and appends. Throws std::invalid_argument on
  /// non-positive c/p/d or d-less-than-c being allowed (d < c is permitted —
  /// such a task is trivially unschedulable and analysis reports so).
  std::size_t add(Task t);

  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  [[nodiscard]] const Task& operator[](std::size_t i) const { return tasks_.at(i); }
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

  /// Σ c_i / p_i.
  [[nodiscard]] double utilization() const;
  /// Σ c_i / min(p_i, d_i).
  [[nodiscard]] double density() const;
  /// lcm of all periods; 1 when empty. Throws std::overflow_error when
  /// the lcm does not fit in Time.
  [[nodiscard]] Time hyperperiod() const;
  /// Largest relative deadline; 0 when empty.
  [[nodiscard]] Time max_deadline() const;
  /// True iff every task has d <= p (constrained deadlines).
  [[nodiscard]] bool constrained_deadlines() const;

 private:
  std::vector<Task> tasks_;
};

/// lcm with overflow detection.
[[nodiscard]] Time lcm_checked(Time a, Time b);

}  // namespace rtg::rt
