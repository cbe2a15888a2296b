#include "core/static_schedule.hpp"

#include <stdexcept>

namespace rtg::core {

void StaticSchedule::push_execution(ElementId e, Time duration) {
  if (e == kIdleEntry) {
    throw std::invalid_argument("StaticSchedule::push_execution: idle sentinel");
  }
  if (duration < 1) {
    throw std::invalid_argument("StaticSchedule::push_execution: duration < 1");
  }
  entries_.push_back(ScheduleEntry{e, duration});
  length_ += duration;
  busy_ += duration;
}

void StaticSchedule::push_idle(Time count) {
  if (count < 1) {
    throw std::invalid_argument("StaticSchedule::push_idle: count < 1");
  }
  if (!entries_.empty() && entries_.back().elem == kIdleEntry) {
    entries_.back().duration += count;
  } else {
    entries_.push_back(ScheduleEntry{kIdleEntry, count});
  }
  length_ += count;
}

double StaticSchedule::utilization() const {
  if (length_ == 0) return 0.0;
  return static_cast<double>(busy_) / static_cast<double>(length_);
}

std::vector<ScheduledOp> StaticSchedule::ops() const {
  std::vector<ScheduledOp> result;
  Time t = 0;
  for (const ScheduleEntry& entry : entries_) {
    if (entry.elem != kIdleEntry) {
      result.push_back(ScheduledOp{entry.elem, t, entry.duration});
    }
    t += entry.duration;
  }
  return result;
}

std::vector<ScheduledOp> StaticSchedule::ops_of(ElementId e) const {
  std::vector<ScheduledOp> result;
  for (const ScheduledOp& op : ops()) {
    if (op.elem == e) result.push_back(op);
  }
  return result;
}

sim::ExecutionTrace StaticSchedule::to_trace(std::size_t repetitions) const {
  sim::ExecutionTrace trace;
  for (std::size_t r = 0; r < repetitions; ++r) {
    for (const ScheduleEntry& entry : entries_) {
      if (entry.elem == kIdleEntry) {
        trace.append_idle(static_cast<std::size_t>(entry.duration));
      } else {
        trace.append_run(static_cast<sim::Slot>(entry.elem),
                         static_cast<std::size_t>(entry.duration));
      }
    }
  }
  return trace;
}

std::vector<std::string> StaticSchedule::validate(const CommGraph& g) const {
  std::vector<std::string> diags;
  for (const ScheduleEntry& entry : entries_) {
    if (entry.elem == kIdleEntry) continue;
    if (!g.has_element(entry.elem)) {
      diags.push_back("unknown element id " + std::to_string(entry.elem));
      continue;
    }
    if (entry.duration != g.weight(entry.elem)) {
      diags.push_back("execution of '" + g.name(entry.elem) + "' takes " +
                      std::to_string(entry.duration) + " slots but weight is " +
                      std::to_string(g.weight(entry.elem)));
    }
  }
  return diags;
}

std::string StaticSchedule::to_string(const CommGraph& g) const {
  std::string out;
  for (const ScheduleEntry& entry : entries_) {
    if (!out.empty()) out.push_back(' ');
    if (entry.elem == kIdleEntry) {
      for (Time i = 0; i < entry.duration; ++i) {
        if (i > 0) out.push_back(' ');
        out.push_back('.');
      }
    } else {
      if (g.has_element(entry.elem)) {
        out += g.name(entry.elem);
      } else {
        out += 'e';
        out += std::to_string(entry.elem);
      }
      if (entry.duration > 1) {
        out += '[';
        out += std::to_string(entry.duration);
        out += ']';
      }
    }
  }
  return out;
}

}  // namespace rtg::core
