#include "core/fault_injection.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace rtg::core {

namespace {

// Decision-type tags fold into the hash so the same (spec, time) pair
// draws independently for different questions.
constexpr std::uint64_t kTagSlot = 1;
constexpr std::uint64_t kTagFate = 2;
constexpr std::uint64_t kTagJitter = 3;

constexpr bool in_window(const FaultSpec& spec, Time t) {
  return t >= spec.begin && t < spec.end;
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSlotLoss: return "slotloss";
    case FaultKind::kElementFail: return "fail";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kArrivalJitter: return "jitter";
    case FaultKind::kClockDrift: return "drift";
    case FaultKind::kProcessorFail: return "procfail";
    case FaultKind::kLinkFail: return "linkfail";
    case FaultKind::kLinkDegrade: return "linkdegrade";
  }
  return "unknown";
}

std::string_view execution_fate_name(ExecutionFate fate) {
  switch (fate) {
    case ExecutionFate::kOk: return "ok";
    case ExecutionFate::kSlotLost: return "slot-lost";
    case ExecutionFate::kElementDown: return "element-down";
    case ExecutionFate::kDropped: return "dropped";
    case ExecutionFate::kCorrupted: return "corrupted";
  }
  return "unknown";
}

std::vector<std::string> validate_fault_plan(const FaultPlan& plan,
                                             const GraphModel& model) {
  std::vector<std::string> issues;
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    const FaultSpec& f = plan.faults[i];
    const std::string where =
        "fault " + std::to_string(i) + " (" + std::string(fault_kind_name(f.kind)) + ")";
    if (f.begin < 0) issues.push_back(where + ": negative window begin");
    if (f.end <= f.begin) issues.push_back(where + ": empty window (end <= begin)");
    const bool stochastic = f.kind == FaultKind::kSlotLoss ||
                            f.kind == FaultKind::kCorrupt ||
                            f.kind == FaultKind::kDrop;
    if (stochastic && (f.rate < 0.0 || f.rate > 1.0)) {
      issues.push_back(where + ": rate must be in [0, 1]");
    }
    if (f.element != kAnyElement && !model.comm().has_element(f.element)) {
      issues.push_back(where + ": unknown element id " + std::to_string(f.element));
    }
    switch (f.kind) {
      case FaultKind::kElementFail:
        if (f.element == kAnyElement) {
          issues.push_back(where + ": needs a concrete element");
        }
        if (f.magnitude < 1) issues.push_back(where + ": repair must be >= 1 slot");
        break;
      case FaultKind::kClockDrift:
        if (f.magnitude < 1) issues.push_back(where + ": tick spacing must be >= 1");
        break;
      case FaultKind::kProcessorFail:
      case FaultKind::kLinkFail:
        if (f.resource == kAnyResource) {
          issues.push_back(where + ": needs a concrete platform resource");
        }
        if (f.magnitude < 1) issues.push_back(where + ": repair must be >= 1 slot");
        break;
      case FaultKind::kLinkDegrade:
        if (f.resource == kAnyResource) {
          issues.push_back(where + ": needs a concrete platform resource");
        }
        if (f.magnitude < 1) {
          issues.push_back(where + ": bandwidth divisor must be >= 1");
        }
        break;
      case FaultKind::kArrivalJitter: {
        if (f.magnitude < 0) issues.push_back(where + ": max shift must be >= 0");
        if (f.constraint != kAnyConstraint) {
          if (f.constraint >= model.constraint_count()) {
            issues.push_back(where + ": unknown constraint index " +
                             std::to_string(f.constraint));
          } else if (model.constraint(f.constraint).periodic()) {
            issues.push_back(where + ": constraint '" +
                             model.constraint(f.constraint).name +
                             "' is periodic; jitter applies to asynchronous streams");
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return issues;
}

std::vector<std::string> validate_fault_plan(const FaultPlan& plan,
                                             const GraphModel& model,
                                             const PlatformNames& names) {
  std::vector<std::string> issues = validate_fault_plan(plan, model);
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    const FaultSpec& f = plan.faults[i];
    if (!is_platform_fault(f.kind) || f.resource == kAnyResource) continue;
    const std::string where =
        "fault " + std::to_string(i) + " (" + std::string(fault_kind_name(f.kind)) + ")";
    const std::size_t limit = f.kind == FaultKind::kProcessorFail
                                  ? names.processors.size()
                                  : names.links.size();
    const char* what = f.kind == FaultKind::kProcessorFail ? "processor" : "link";
    if (f.resource >= limit) {
      issues.push_back(where + ": " + what + " index " + std::to_string(f.resource) +
                       " out of range (platform has " + std::to_string(limit) + ")");
    }
  }
  return issues;
}

// ---------------------------------------------------------------------------
// FaultInjector

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

double FaultInjector::unit_draw(std::size_t spec, std::uint64_t a,
                                std::uint64_t b) const {
  std::uint64_t state = plan_.seed;
  std::uint64_t h = sim::splitmix64(state);
  state ^= (static_cast<std::uint64_t>(spec) + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= sim::splitmix64(state);
  state ^= a * 0xbf58476d1ce4e5b9ULL;
  h ^= sim::splitmix64(state);
  state ^= b * 0x94d049bb133111ebULL;
  h ^= sim::splitmix64(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultInjector::slot_lost(Time t) const {
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    if (f.kind != FaultKind::kSlotLoss || !in_window(f, t)) continue;
    if (f.rate >= 1.0) return true;
    if (unit_draw(i, static_cast<std::uint64_t>(t), kTagSlot) < f.rate) return true;
  }
  return false;
}

bool FaultInjector::element_down(ElementId e, Time t) const {
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != FaultKind::kElementFail) continue;
    if (f.element != kAnyElement && f.element != e) continue;
    if (t >= f.begin && t < f.begin + f.magnitude) return true;
  }
  return false;
}

bool FaultInjector::processor_down(std::size_t proc, Time t) const {
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != FaultKind::kProcessorFail || f.resource != proc) continue;
    if (t >= f.begin && t < f.begin + f.magnitude) return true;
  }
  return false;
}

bool FaultInjector::link_down(std::size_t link, Time t) const {
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != FaultKind::kLinkFail || f.resource != link) continue;
    if (t >= f.begin && t < f.begin + f.magnitude) return true;
  }
  return false;
}

Time FaultInjector::link_degrade(std::size_t link, Time t) const {
  Time factor = 1;
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != FaultKind::kLinkDegrade || f.resource != link) continue;
    if (in_window(f, t) && f.magnitude > 1) factor *= f.magnitude;
  }
  return factor;
}

bool FaultInjector::has_platform_faults() const {
  for (const FaultSpec& f : plan_.faults) {
    if (is_platform_fault(f.kind)) return true;
  }
  return false;
}

std::vector<Time> FaultInjector::platform_event_times(Time horizon) const {
  std::vector<Time> times;
  auto push = [&](Time t) {
    if (t > 0 && t < horizon) times.push_back(t);
  };
  for (const FaultSpec& f : plan_.faults) {
    switch (f.kind) {
      case FaultKind::kProcessorFail:
      case FaultKind::kLinkFail:
        push(f.begin);
        if (f.magnitude > 0 && f.begin <= horizon - f.magnitude) {
          push(f.begin + f.magnitude);
        }
        break;
      case FaultKind::kLinkDegrade:
        push(f.begin);
        if (f.end != kOpenEnd) push(f.end);
        break;
      default:
        break;
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

ExecutionFate FaultInjector::fate(ElementId e, Time start, Time duration) const {
  for (Time t = start; t < start + duration; ++t) {
    if (element_down(e, t)) return ExecutionFate::kElementDown;
  }
  for (Time t = start; t < start + duration; ++t) {
    if (slot_lost(t)) return ExecutionFate::kSlotLost;
  }
  const std::uint64_t key = (static_cast<std::uint64_t>(e) << 3) | kTagFate;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    if (f.kind != FaultKind::kDrop && f.kind != FaultKind::kCorrupt) continue;
    if (f.element != kAnyElement && f.element != e) continue;
    if (!in_window(f, start)) continue;
    if (f.rate >= 1.0 || unit_draw(i, static_cast<std::uint64_t>(start), key) < f.rate) {
      return f.kind == FaultKind::kDrop ? ExecutionFate::kDropped
                                        : ExecutionFate::kCorrupted;
    }
  }
  return ExecutionFate::kOk;
}

Time FaultInjector::drift_before(Time t) const {
  Time drift = 0;
  for (const FaultSpec& f : plan_.faults) {
    if (f.kind != FaultKind::kClockDrift || f.magnitude < 1) continue;
    const Time hi = std::min(t, f.end);
    if (hi > f.begin) drift += (hi - f.begin) / f.magnitude;
  }
  return drift;
}

Time FaultInjector::arrival_shift(std::size_t ci, std::size_t index,
                                  Time nominal) const {
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    if (f.kind != FaultKind::kArrivalJitter || !in_window(f, nominal)) continue;
    if (f.constraint != kAnyConstraint && f.constraint != ci) continue;
    if (f.magnitude <= 0) return 0;
    const std::uint64_t key = (static_cast<std::uint64_t>(index) << 3) | kTagJitter;
    const double u = unit_draw(i, static_cast<std::uint64_t>(ci), key);
    return std::min<Time>(static_cast<Time>(u * static_cast<double>(f.magnitude + 1)),
                          f.magnitude);
  }
  return 0;
}

ConstraintArrivals FaultInjector::apply_arrivals(const GraphModel& model,
                                                 const ConstraintArrivals& arrivals) const {
  ConstraintArrivals out = arrivals;
  for (std::size_t ci = 0; ci < model.constraint_count() && ci < out.size(); ++ci) {
    const TimingConstraint& c = model.constraint(ci);
    if (c.periodic() || out[ci].empty()) continue;
    std::vector<Time>& stream = out[ci];
    for (std::size_t k = 0; k < stream.size(); ++k) {
      stream[k] += arrival_shift(ci, k, stream[k]);
    }
    std::sort(stream.begin(), stream.end());
    Time prev = std::numeric_limits<Time>::min();
    for (Time& t : stream) {
      if (prev != std::numeric_limits<Time>::min() && t - prev < c.period) {
        t = prev + c.period;
      }
      prev = t;
    }
  }
  return out;
}

FaultedTimeline FaultInjector::apply(std::span<const ScheduledOp> nominal,
                                     Time horizon) const {
  FaultedTimeline out;
  out.ops.reserve(nominal.size());
  out.fate.reserve(nominal.size());
  Time cursor = 0;
  for (const ScheduledOp& op : nominal) {
    Time s = op.start + drift_before(op.start);
    s = std::max(s, cursor);
    cursor = s + op.duration;
    const ExecutionFate f = fate(op.elem, s, op.duration);
    out.ops.push_back(ScheduledOp{op.elem, s, op.duration});
    out.fate.push_back(f);
    if (f == ExecutionFate::kOk) {
      out.valid.push_back(out.ops.back());
    } else if (s < horizon) {
      out.events.push_back(FaultEvent{f, op.elem, s, op.duration});
      out.counters.count(f);
    }
  }
  out.counters.drift_slots = drift_before(horizon);
  return out;
}

std::function<sim::Slot(Time, sim::Slot)> FaultInjector::make_slot_filter(
    const CommGraph& comm, FaultCounters* counters) const {
  std::vector<Time> weights(comm.size(), 1);
  for (ElementId e = 0; e < comm.size(); ++e) {
    if (comm.has_element(e)) weights[e] = comm.weight(e);
  }
  struct State {
    sim::Slot cur = sim::kIdle;
    Time remaining = 0;
    bool valid = true;
  };
  return [inj = *this, weights = std::move(weights), counters,
          st = State{}](Time t, sim::Slot s) mutable -> sim::Slot {
    if (s == sim::kIdle || s >= weights.size()) {
      st.cur = sim::kIdle;
      st.remaining = 0;
      return s;
    }
    if (s != st.cur || st.remaining == 0) {
      st.cur = s;
      st.remaining = weights[s];
      const ExecutionFate f = inj.fate(s, t, weights[s]);
      st.valid = f == ExecutionFate::kOk;
      if (counters != nullptr) counters->count(f);
    }
    --st.remaining;
    return st.valid ? s : sim::kIdle;
  };
}

// ---------------------------------------------------------------------------
// Plan parsing

namespace {

struct LineParser {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool done() const { return pos >= tokens.size(); }
  [[nodiscard]] const std::string& next() { return tokens[pos++]; }

  bool parse_time(const std::string& tok, Time& out) {
    try {
      std::size_t used = 0;
      const long long v = std::stoll(tok, &used);
      if (used != tok.size()) throw std::invalid_argument(tok);
      out = static_cast<Time>(v);
      return true;
    } catch (const std::exception&) {
      error = "expected an integer, got '" + tok + "'";
      return false;
    }
  }

  bool parse_rate(const std::string& tok, double& out) {
    try {
      std::size_t used = 0;
      out = std::stod(tok, &used);
      if (used != tok.size()) throw std::invalid_argument(tok);
      return true;
    } catch (const std::exception&) {
      error = "expected a number, got '" + tok + "'";
      return false;
    }
  }
};

}  // namespace

FaultPlanParse parse_fault_plan(std::string_view text, const GraphModel& model) {
  return parse_fault_plan(text, model, PlatformNames{});
}

FaultPlanParse parse_fault_plan(std::string_view text, const GraphModel& model,
                                const PlatformNames& names) {
  FaultPlanParse result;
  FaultPlan plan;
  std::istringstream lines{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& msg) {
    result.errors.push_back("line " + std::to_string(line_no) + ": " + msg);
  };
  while (std::getline(lines, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    LineParser lp;
    std::istringstream words{line};
    std::string word;
    while (words >> word) lp.tokens.push_back(word);
    if (lp.tokens.empty()) continue;

    const std::string directive = lp.next();
    if (directive == "seed") {
      Time v = 0;
      if (lp.done() || !lp.parse_time(lp.next(), v) || v < 0) {
        fail("seed needs a non-negative integer");
        continue;
      }
      plan.seed = static_cast<std::uint64_t>(v);
      if (!lp.done()) fail("trailing tokens after seed");
      continue;
    }

    FaultSpec spec;
    bool needs_element = false;
    bool needs_constraint = false;
    bool needs_processor = false;
    bool needs_link = false;
    if (directive == "slotloss") {
      spec.kind = FaultKind::kSlotLoss;
    } else if (directive == "fail") {
      spec.kind = FaultKind::kElementFail;
      needs_element = true;
    } else if (directive == "corrupt") {
      spec.kind = FaultKind::kCorrupt;
      needs_element = true;
    } else if (directive == "drop") {
      spec.kind = FaultKind::kDrop;
      needs_element = true;
    } else if (directive == "jitter") {
      spec.kind = FaultKind::kArrivalJitter;
      needs_constraint = true;
    } else if (directive == "drift") {
      spec.kind = FaultKind::kClockDrift;
    } else if (directive == "procfail") {
      spec.kind = FaultKind::kProcessorFail;
      needs_processor = true;
    } else if (directive == "linkfail") {
      spec.kind = FaultKind::kLinkFail;
      needs_link = true;
    } else if (directive == "linkdegrade") {
      spec.kind = FaultKind::kLinkDegrade;
      needs_link = true;
    } else {
      fail("unknown directive '" + directive + "'");
      continue;
    }

    bool ok = true;
    if (needs_element) {
      if (lp.done()) {
        fail(directive + " needs an element name (or '*')");
        continue;
      }
      const std::string name = lp.next();
      if (name != "*") {
        const auto id = model.comm().find(name);
        if (!id) {
          fail("unknown element '" + name + "'");
          ok = false;
        } else {
          spec.element = *id;
        }
      }
    }
    if (needs_processor || needs_link) {
      const char* what = needs_processor ? "processor" : "link";
      if (lp.done()) {
        fail(directive + " needs a " + std::string(what) + " name");
        continue;
      }
      const std::string name = lp.next();
      const std::vector<std::string>& pool =
          needs_processor ? names.processors : names.links;
      if (pool.empty()) {
        fail(directive + ": no platform in scope (declare one in the spec or map first)");
        ok = false;
      } else {
        const auto it = std::find(pool.begin(), pool.end(), name);
        if (it == pool.end()) {
          fail("unknown " + std::string(what) + " '" + name + "'");
          ok = false;
        } else {
          spec.resource = static_cast<std::size_t>(it - pool.begin());
        }
      }
    }
    if (needs_constraint) {
      if (lp.done()) {
        fail("jitter needs a constraint name (or '*')");
        continue;
      }
      const std::string name = lp.next();
      if (name != "*") {
        const auto idx = model.find_constraint(name);
        if (!idx) {
          fail("unknown constraint '" + name + "'");
          ok = false;
        } else {
          spec.constraint = *idx;
        }
      }
    }

    bool saw_repair = false, saw_every = false, saw_max = false, saw_at = false;
    bool saw_factor = false;
    while (ok && !lp.done()) {
      const std::string key = lp.next();
      if (lp.done()) {
        fail("'" + key + "' needs a value");
        ok = false;
        break;
      }
      const std::string value = lp.next();
      if (key == "rate") {
        ok = lp.parse_rate(value, spec.rate);
      } else if (key == "from") {
        ok = lp.parse_time(value, spec.begin);
      } else if (key == "to") {
        ok = lp.parse_time(value, spec.end);
      } else if (key == "at") {
        ok = lp.parse_time(value, spec.begin);
        saw_at = true;
      } else if (key == "repair") {
        ok = lp.parse_time(value, spec.magnitude);
        saw_repair = true;
      } else if (key == "max") {
        ok = lp.parse_time(value, spec.magnitude);
        saw_max = true;
      } else if (key == "every") {
        ok = lp.parse_time(value, spec.magnitude);
        saw_every = true;
      } else if (key == "factor") {
        ok = lp.parse_time(value, spec.magnitude);
        saw_factor = true;
      } else {
        lp.error = "unknown option '" + key + "'";
        ok = false;
      }
      if (!ok) fail(lp.error.empty() ? "bad value for '" + key + "'" : lp.error);
    }
    if (!ok) continue;
    if (spec.kind == FaultKind::kElementFail && (!saw_at || !saw_repair)) {
      fail("fail needs 'at <t>' and 'repair <slots>'");
      continue;
    }
    if (spec.kind == FaultKind::kArrivalJitter && !saw_max) {
      fail("jitter needs 'max <slots>'");
      continue;
    }
    if (spec.kind == FaultKind::kClockDrift && !saw_every) {
      fail("drift needs 'every <slots>'");
      continue;
    }
    if ((spec.kind == FaultKind::kProcessorFail || spec.kind == FaultKind::kLinkFail) &&
        (!saw_at || !saw_repair)) {
      fail(directive + " needs 'at <t>' and 'repair <slots>'");
      continue;
    }
    if (spec.kind == FaultKind::kLinkDegrade && !saw_factor) {
      fail("linkdegrade needs 'factor <divisor>'");
      continue;
    }
    // A failure window is [at, at + repair); keep `end` open so window
    // checks in element_down (which use magnitude) see the full range.
    plan.faults.push_back(spec);
  }

  for (const std::string& issue : validate_fault_plan(plan, model, names)) {
    result.errors.push_back("plan: " + issue);
  }
  if (result.errors.empty()) result.plan = std::move(plan);
  return result;
}

}  // namespace rtg::core
