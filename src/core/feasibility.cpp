#include "core/feasibility.hpp"

#include "core/bounds.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "rt/task.hpp"  // lcm_checked

namespace rtg::core {

namespace {

// Slot encoding inside the game window: (element << 8) | phase for the
// phase-th slot of an execution, or one of two sentinels. Weights must
// fit in 8 bits.
constexpr std::uint32_t kSlotIdle = 0xFFFFFFFFu;
constexpr std::uint32_t kSlotPreStart = 0xFFFFFFFEu;

std::uint32_t encode_slot(ElementId e, Time phase) {
  return (static_cast<std::uint32_t>(e) << 8) |
         static_cast<std::uint32_t>(phase & 0xFF);
}

// Decodes the trailing `d` slots of the window into the complete
// executions they contain (partial executions at the cut are dropped),
// with starts relative to the window beginning. Appends into `ops`
// (cleared first) so the caller's scratch buffer is reused across the
// millions of window checks a search performs.
void window_ops(const std::deque<std::uint32_t>& window, Time d, const CommGraph& comm,
                std::vector<ScheduledOp>& ops) {
  ops.clear();
  const std::size_t n = window.size();
  const std::size_t begin = n - static_cast<std::size_t>(d);
  std::size_t i = begin;
  while (i < n) {
    const std::uint32_t s = window[i];
    if (s == kSlotIdle || s == kSlotPreStart) {
      ++i;
      continue;
    }
    const ElementId e = s >> 8;
    const Time phase = static_cast<Time>(s & 0xFF);
    const Time w = comm.weight(e);
    if (phase != 0) {
      // Execution started before the window; skip its remainder.
      ++i;
      continue;
    }
    // Check the full run 0..w-1 lies inside the window.
    if (i + static_cast<std::size_t>(w) <= n) {
      bool complete = true;
      for (Time k = 0; k < w; ++k) {
        if (window[i + static_cast<std::size_t>(k)] != encode_slot(e, k)) {
          complete = false;
          break;
        }
      }
      if (complete) {
        ops.push_back(ScheduledOp{e, static_cast<Time>(i - begin), w});
        i += static_cast<std::size_t>(w);
        continue;
      }
    }
    ++i;
  }
}

struct GameContext {
  const GraphModel& model;
  Time max_deadline = 0;   // D: window size
  Time periodic_lcm = 1;   // Hp: clock modulus for periodic constraints
  bool has_periodic = false;

  std::deque<std::uint32_t> window;  // always exactly D slots
  Time clock = 0;                    // total slots emitted
  // Decoded-window arena reused across the millions of window checks
  // one search performs.
  mutable std::vector<ScheduledOp> ops_scratch;

  explicit GameContext(const GraphModel& m) : model(m) {
    for (const TimingConstraint& c : m.constraints()) {
      max_deadline = std::max(max_deadline, c.deadline);
      if (c.periodic()) {
        has_periodic = true;
        periodic_lcm = rt::lcm_checked(periodic_lcm, c.period);
      }
    }
    window.assign(static_cast<std::size_t>(max_deadline), kSlotPreStart);
  }

  // Checks every window that closes at the current clock. Returns false
  // on the first violation.
  [[nodiscard]] bool windows_ok() const {
    for (const TimingConstraint& c : model.constraints()) {
      if (clock < c.deadline) continue;
      if (c.periodic()) {
        // Invocation windows [kp, kp+d] close when clock == kp + d.
        if ((clock - c.deadline) % c.period != 0) continue;
      }
      window_ops(window, c.deadline, model.comm(), ops_scratch);
      if (!window_contains_execution(c.task_graph, ops_scratch, 0, c.deadline)) {
        return false;
      }
    }
    return true;
  }

  // Emits one slot; returns false if some closing window is violated
  // (the slot stays emitted either way — the caller unwinds).
  bool emit(std::uint32_t slot, std::vector<std::uint32_t>& evicted) {
    evicted.push_back(window.front());
    window.pop_front();
    window.push_back(slot);
    ++clock;
    return windows_ok();
  }

  // Undoes `count` emitted slots using the saved evictions.
  void unwind(std::vector<std::uint32_t>& evicted, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      window.pop_back();
      window.push_front(evicted.back());
      evicted.pop_back();
      --clock;
    }
  }

  // State key: the window contents plus the periodic clock phase.
  [[nodiscard]] std::string key() const {
    std::string k;
    k.reserve((window.size() + 1) * sizeof(std::uint32_t));
    auto put = [&k](std::uint32_t v) {
      k.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    for (std::uint32_t s : window) put(s);
    put(static_cast<std::uint32_t>(clock % periodic_lcm));
    return k;
  }
};

// One DFS frame: the op choice index we will try next (an index into
// `order`; order.size() = idle).
struct Frame {
  std::string key;         // state this frame expands
  std::size_t next_choice = 0;
  std::vector<ElementId> order;  // elements, least-recently-executed first
  // Op taken to *arrive* at this state (duration 0 marks the root).
  ElementId arrived_elem = kIdleEntry;
  Time arrived_dur = 0;
  std::vector<std::uint32_t> evicted;  // for unwinding arrival slots
};

// Branching order heuristic: elements whose last complete execution in
// the window is oldest (or absent) first. This biases the DFS towards
// round-robin-like strings — exactly the shape of feasible cycles — and
// does not affect soundness or completeness, only the visit order.
std::vector<ElementId> choice_order(const GameContext& ctx, std::size_t n_elements,
                                    BranchOrder order_kind) {
  std::vector<ElementId> static_order(n_elements);
  for (ElementId e = 0; e < n_elements; ++e) static_order[e] = e;
  if (order_kind == BranchOrder::kStaticId) return static_order;

  std::vector<std::int64_t> last_finish(n_elements, -1);
  const auto& window = ctx.window;
  std::size_t i = 0;
  while (i < window.size()) {
    const std::uint32_t s = window[i];
    if (s == kSlotIdle || s == kSlotPreStart) {
      ++i;
      continue;
    }
    const ElementId e = s >> 8;
    const Time phase = static_cast<Time>(s & 0xFF);
    const Time w = ctx.model.comm().weight(e);
    if (phase == 0 && i + static_cast<std::size_t>(w) <= window.size()) {
      bool complete = true;
      for (Time k = 0; k < w; ++k) {
        if (window[i + static_cast<std::size_t>(k)] != encode_slot(e, k)) {
          complete = false;
          break;
        }
      }
      if (complete) {
        last_finish[e] = static_cast<std::int64_t>(i) + w;
        i += static_cast<std::size_t>(w);
        continue;
      }
    }
    ++i;
  }
  std::vector<ElementId> order(n_elements);
  for (ElementId e = 0; e < n_elements; ++e) order[e] = e;
  std::stable_sort(order.begin(), order.end(), [&](ElementId a, ElementId b) {
    return last_finish[a] < last_finish[b];
  });
  return order;
}

// Serial verification options for candidate cycles: the schedules are
// tiny, and the search may itself run on a batch worker, so a pool per
// candidate would only add overhead.
constexpr VerifyOptions kSerialVerify{1, nullptr};

// Verifies a candidate cycle against the model, trying every
// entry-boundary rotation when periodic constraints may need alignment.
// Returns the accepted (possibly rotated) schedule.
std::optional<StaticSchedule> accept_cycle(const GraphModel& model, StaticSchedule sched,
                                           bool try_rotations) {
  auto verified = [&](const StaticSchedule& s) {
    return verify_schedule(s, model, kSerialVerify).feasible;
  };
  if (verified(sched)) return sched;
  if (!try_rotations) return std::nullopt;
  // Try every rotation at an entry boundary.
  const auto& entries = sched.entries();
  for (std::size_t r = 1; r < entries.size(); ++r) {
    StaticSchedule rot;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const ScheduleEntry& entry = entries[(r + i) % entries.size()];
      if (entry.elem == kIdleEntry) {
        rot.push_idle(entry.duration);
      } else {
        rot.push_execution(entry.elem, entry.duration);
      }
    }
    if (verified(rot)) return rot;
  }
  return std::nullopt;
}

// Best-of-N cycle ranking: lowest busy fraction, then shortest.
bool leaner_cycle(const StaticSchedule& a, const StaticSchedule& b) {
  if (a.utilization() != b.utilization()) return a.utilization() < b.utilization();
  return a.length() < b.length();
}

// The game search: a single-threaded DFS over the game's state graph.
// Its visit order, and so its status under a budget, states_explored
// and witness, depend only on the model and the options.
ExactResult search_game(const GraphModel& model, const ExactOptions& options) {
  GameContext ctx(model);
  const std::size_t n_elements = model.comm().size();

  enum : std::uint8_t { kGrey = 1, kBlack = 2 };
  std::unordered_map<std::string, std::uint8_t> color;
  std::unordered_map<std::string, std::size_t> grey_depth;  // key -> frame index

  std::vector<Frame> path;
  path.push_back(Frame{ctx.key(), 0, choice_order(ctx, n_elements, options.order), kIdleEntry, 0, {}});
  color[path.back().key] = kGrey;
  grey_depth[path.back().key] = 0;

  ExactResult result;
  result.states_explored = 1;

  // Best-of-N cycle collection (cycle_candidates > 1): keep the cycle
  // with the lowest busy fraction, then the shortest.
  std::optional<StaticSchedule> best_cycle;
  std::size_t cycles_found = 0;
  auto record_cycle = [&](StaticSchedule sched) {
    ++cycles_found;
    if (!best_cycle || leaner_cycle(sched, *best_cycle)) {
      best_cycle = std::move(sched);
    }
  };
  auto finish_feasible = [&]() {
    result.status = FeasibilityStatus::kFeasible;
    result.schedule = std::move(best_cycle);
    return result;
  };

  auto extract_cycle = [&](std::size_t from_frame, ElementId closing_elem,
                           Time closing_dur) {
    StaticSchedule sched;
    for (std::size_t i = from_frame + 1; i < path.size(); ++i) {
      if (path[i].arrived_elem == kIdleEntry) {
        sched.push_idle(path[i].arrived_dur);
      } else {
        sched.push_execution(path[i].arrived_elem, path[i].arrived_dur);
      }
    }
    if (closing_elem == kIdleEntry) {
      sched.push_idle(closing_dur);
    } else {
      sched.push_execution(closing_elem, closing_dur);
    }
    return sched;
  };

  std::size_t cancel_tick = 0;
  while (!path.empty()) {
    if ((++cancel_tick & 63) == 0) {
      if (options.progress != nullptr) {
        options.progress->fetch_add(1, std::memory_order_relaxed);
      }
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) {
        if (best_cycle) return finish_feasible();
        result.status = FeasibilityStatus::kUnknown;
        result.cancelled = true;
        return result;
      }
    }
    Frame& frame = path.back();
    if (frame.next_choice > n_elements) {
      // Exhausted: blacken and backtrack.
      color[frame.key] = kBlack;
      grey_depth.erase(frame.key);
      const std::size_t dur = static_cast<std::size_t>(frame.arrived_dur);
      Frame done = std::move(path.back());
      path.pop_back();
      if (!path.empty()) {
        ctx.unwind(done.evicted, dur);
      }
      continue;
    }

    const std::size_t choice = frame.next_choice++;
    const bool is_idle = choice == n_elements;
    const ElementId elem = is_idle ? kIdleEntry : frame.order[choice];
    const Time dur = is_idle ? 1 : model.comm().weight(elem);

    // Emit the op slot by slot; abort on a violated window.
    std::vector<std::uint32_t> evicted;
    bool valid = true;
    Time emitted = 0;
    for (Time k = 0; k < dur; ++k) {
      const std::uint32_t slot = is_idle ? kSlotIdle : encode_slot(elem, k);
      ++emitted;
      if (!ctx.emit(slot, evicted)) {
        valid = false;
        break;
      }
    }
    if (!valid) {
      ctx.unwind(evicted, static_cast<std::size_t>(emitted));
      continue;
    }

    const std::string key = ctx.key();
    const auto it = color.find(key);
    if (it != color.end() && it->second == kGrey) {
      // Cycle found: candidate feasible static schedule. For async-only
      // models the cycle is feasible by construction; we verify
      // regardless (and try rotations for periodic alignment).
      StaticSchedule sched = extract_cycle(grey_depth[key], elem, dur);
      if (auto accepted = accept_cycle(model, std::move(sched), ctx.has_periodic)) {
        record_cycle(std::move(*accepted));
        if (cycles_found >= options.cycle_candidates) {
          return finish_feasible();
        }
      }
      // Keep searching (more candidates wanted, or cycle not accepted).
      ctx.unwind(evicted, static_cast<std::size_t>(dur));
      continue;
    }
    if (it != color.end() && it->second == kBlack) {
      ctx.unwind(evicted, static_cast<std::size_t>(dur));
      continue;
    }

    // Fresh state: descend.
    if (result.states_explored >= options.state_budget) {
      if (best_cycle) return finish_feasible();
      result.status = FeasibilityStatus::kUnknown;
      return result;
    }
    ++result.states_explored;
    color[key] = kGrey;
    grey_depth[key] = path.size();
    path.push_back(
        Frame{key, 0, choice_order(ctx, n_elements, options.order), elem, dur, std::move(evicted)});
  }

  if (best_cycle) return finish_feasible();
  result.status = FeasibilityStatus::kInfeasible;
  return result;
}

}  // namespace

ExactResult exact_feasible(const GraphModel& model, const ExactOptions& options) {
  if (model.constraint_count() == 0) {
    ExactResult r;
    r.status = FeasibilityStatus::kFeasible;
    r.schedule = StaticSchedule{};
    r.schedule->push_idle(1);
    return r;
  }
  for (ElementId e = 0; e < model.comm().size(); ++e) {
    if (model.comm().weight(e) > 255) {
      throw std::invalid_argument("exact_feasible: element weight exceeds 255");
    }
  }

  // Analytic early-out: necessary conditions refute without search.
  if (!refute_feasibility(model).empty()) {
    ExactResult r;
    r.status = FeasibilityStatus::kInfeasible;
    return r;
  }

  return search_game(model, options);
}

namespace {

bool brute_rec(const GraphModel& model, Time remaining, StaticSchedule& partial,
               std::optional<StaticSchedule>& found) {
  if (found) return true;
  if (remaining == 0) {
    if (verify_schedule(partial, model, kSerialVerify).feasible) {
      found = partial;
      return true;
    }
    return false;
  }
  for (ElementId e = 0; e < model.comm().size(); ++e) {
    const Time w = model.comm().weight(e);
    if (w > remaining) continue;
    StaticSchedule next = partial;
    next.push_execution(e, w);
    if (brute_rec(model, remaining - w, next, found)) return true;
  }
  StaticSchedule next = partial;
  next.push_idle(1);
  return brute_rec(model, remaining - 1, next, found);
}

}  // namespace

std::optional<StaticSchedule> brute_force_schedule(const GraphModel& model, Time len) {
  if (len < 1) return std::nullopt;
  StaticSchedule partial;
  std::optional<StaticSchedule> found;
  brute_rec(model, len, partial, found);
  return found;
}

}  // namespace rtg::core
