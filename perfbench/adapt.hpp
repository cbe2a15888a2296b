// adapt.hpp — copies rtgraph values into the checker's plain types,
// through public accessors only. No engine function is called here.
#pragma once

#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "oracle.hpp"
#include "sim/trace.hpp"

namespace perfbench {

inline oracle::TaskGraph to_oracle(const rtg::core::TaskGraph& tg) {
  oracle::TaskGraph out;
  for (auto l : tg.labels()) out.labels.push_back(static_cast<std::uint32_t>(l));
  for (std::uint32_t v = 0; v < tg.size(); ++v) {
    for (auto w : tg.skeleton().successors(v)) {
      out.edges.emplace_back(v, static_cast<std::uint32_t>(w));
    }
  }
  return out;
}

inline oracle::Model to_oracle(const rtg::core::GraphModel& m) {
  oracle::Model out;
  for (rtg::core::ElementId e = 0; e < m.comm().size(); ++e) {
    out.weight.push_back(m.comm().weight(e));
    out.pipelinable.push_back(m.comm().pipelinable(e));
  }
  for (const auto& c : m.constraints()) {
    out.constraints.push_back(
        oracle::Constraint{to_oracle(c.task_graph), c.period, c.deadline, c.periodic()});
  }
  return out;
}

// Walks the entries (execution boundaries are explicit there); does not
// use StaticSchedule::ops().
inline oracle::Schedule to_oracle(const rtg::core::StaticSchedule& s) {
  oracle::Schedule out;
  oracle::Time t = 0;
  for (const auto& e : s.entries()) {
    if (e.elem != rtg::core::kIdleEntry) {
      out.execs.push_back(oracle::Exec{static_cast<std::uint32_t>(e.elem), t, e.duration});
    }
    t += e.duration;
  }
  out.length = t;
  return out;
}

inline std::vector<std::int64_t> to_slots(const rtg::sim::ExecutionTrace& trace) {
  std::vector<std::int64_t> out;
  out.reserve(trace.size());
  for (auto s : trace.slots()) {
    out.push_back(s == rtg::sim::kIdle ? -1 : static_cast<std::int64_t>(s));
  }
  return out;
}

}  // namespace perfbench
