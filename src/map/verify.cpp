#include "map/verify.hpp"

#include <algorithm>
#include <set>
#include <thread>

#include "core/latency.hpp"
#include "rt/task.hpp"  // lcm_checked

namespace rtg::map {

namespace {

using core::ScheduledOp;
using core::StaticSchedule;
using core::TaskGraph;
using core::UnrollIndex;

// Everything one completion query needs, shared read-only by workers.
struct SeamWorld {
  const TaskGraph* tg = nullptr;
  const std::vector<StaticSchedule>* schedules = nullptr;
  const std::vector<ProcId>* assignment = nullptr;
  const CommSchedule* comm = nullptr;
  std::vector<core::OpId> topo;

  // Indexed path: one UnrollIndex per non-empty processor schedule.
  std::vector<UnrollIndex> index;
  // Flat path: materialized unrolled ops per processor.
  std::vector<std::vector<ScheduledOp>> flat;
  bool use_flat = false;
};

// Greedy distributed completion of the task graph within the window
// starting at `t`; returns the makespan or nullopt. When `witness` is
// non-null the concrete placement is recorded.
std::optional<Time> completion(const SeamWorld& world, Time t, std::size_t* seeks,
                               GlobalWitness* witness) {
  const TaskGraph& tg = *world.tg;
  std::vector<Time> finish(tg.size(), 0);
  Time makespan = t;
  if (witness) {
    witness->window_begin = t;
    witness->ops.assign(tg.size(), WitnessOp{});
    witness->hops.clear();
  }
  for (core::OpId v : world.topo) {
    const ElementId ev = tg.label(v);
    const std::size_t pv = world.assignment->at(ev);
    Time ready = t;
    for (core::OpId u : tg.skeleton().predecessors(v)) {
      const ElementId eu = tg.label(u);
      if (world.assignment->at(eu) == pv) {
        ready = std::max(ready, finish[u]);
      } else {
        const std::size_t msg = world.comm->find_message(eu, ev);
        if (msg == CommSchedule::npos) return std::nullopt;
        // The transmission must also lie inside the window: send >= t.
        const Time msg_ready = std::max(finish[u], t);
        const Time arrive = world.comm->arrival(msg, msg_ready);
        if (witness) {
          const auto& [li, si] = world.comm->slot_of[msg];
          const Time duration = world.comm->links[li].slots[si].duration;
          witness->hops.push_back(MessageHop{msg, u, v, arrive - duration, arrive});
        }
        ready = std::max(ready, arrive);
      }
    }
    // First execution of ev on processor pv starting at or after ready.
    std::optional<ScheduledOp> placed;
    if (world.use_flat) {
      for (const ScheduledOp& op : world.flat[pv]) {
        if (op.elem == ev && op.start >= ready) {
          placed = op;
          break;
        }
      }
    } else if (world.index[pv].size() > 0) {
      if (seeks) ++*seeks;
      const std::size_t idx =
          world.index[pv].first_at_or_after(ev, ready, world.index[pv].size());
      if (idx != UnrollIndex::npos) placed = world.index[pv].op(idx);
    }
    if (!placed) return std::nullopt;
    finish[v] = placed->finish();
    makespan = std::max(makespan, finish[v]);
    if (witness) witness->ops[v] = WitnessOp{v, pv, placed->start, placed->finish()};
  }
  if (witness) witness->makespan = makespan;
  return makespan;
}

struct ChunkResult {
  bool failed = false;
  Time max_latency = 0;
  Time best_t = 0;  ///< smallest window start attaining max_latency
  bool any = false;
  SeamStats stats;
};

void run_chunk(const SeamWorld& world, const std::vector<Time>& candidates,
               std::size_t begin, std::size_t end, const SeamOptions& options,
               std::atomic<bool>& abort, ChunkResult& out) {
  for (std::size_t i = begin; i < end; ++i) {
    if (abort.load(std::memory_order_relaxed)) return;
    if (options.cancel && options.cancel->load(std::memory_order_relaxed)) {
      abort.store(true, std::memory_order_relaxed);
      return;
    }
    if (options.progress) {
      options.progress->fetch_add(1, std::memory_order_relaxed);
    }
    const Time t = candidates[i];
    const auto finish = completion(world, t, &out.stats.index_seeks, nullptr);
    ++out.stats.windows;
    if (!finish) {
      out.failed = true;
      abort.store(true, std::memory_order_relaxed);
      return;
    }
    const Time latency = *finish - t;
    if (!out.any || latency > out.max_latency) {
      out.any = true;
      out.max_latency = latency;
      out.best_t = t;
    }
  }
}

}  // namespace

std::optional<Time> distributed_latency(const TaskGraph& tg,
                                        const std::vector<StaticSchedule>& schedules,
                                        const std::vector<ProcId>& assignment,
                                        const CommSchedule& comm,
                                        const SeamOptions& options) {
  if (options.cancelled) *options.cancelled = false;
  if (tg.empty()) {
    if (options.witness) *options.witness = GlobalWitness{};
    return 0;
  }

  // Common cycle of every processor schedule and every active link.
  Time cycle = 1;
  for (const LinkSchedule& table : comm.links) {
    if (!table.slots.empty()) cycle = rt::lcm_checked(cycle, table.cycle);
  }
  for (const StaticSchedule& s : schedules) {
    if (s.length() == 0) continue;
    cycle = rt::lcm_checked(cycle, s.length());
  }
  const std::size_t horizon_cycles = 2 * tg.size() + 2;
  const Time horizon = static_cast<Time>(horizon_cycles) * cycle;

  SeamWorld world;
  world.tg = &tg;
  world.schedules = &schedules;
  world.assignment = &assignment;
  world.comm = &comm;
  world.topo = tg.topological_ops();
  world.use_flat = options.flat_reference;
  if (world.use_flat) {
    world.flat.resize(schedules.size());
  } else {
    world.index.resize(schedules.size());
  }
  for (std::size_t p = 0; p < schedules.size(); ++p) {
    if (schedules[p].length() == 0) continue;
    const std::size_t reps =
        static_cast<std::size_t>(horizon / schedules[p].length()) + 1;
    if (world.use_flat) {
      world.flat[p] = core::unroll_ops(schedules[p], reps);
    } else {
      world.index[p] = UnrollIndex(schedules[p], reps);
    }
  }

  // Candidate window starts: 0, every op boundary + 1, and every instant
  // inside a link's occupied slot region (one past each busy tick —
  // with fully-packed tables this is every tick).
  std::set<Time> candidate_set{0};
  for (std::size_t p = 0; p < schedules.size(); ++p) {
    if (schedules[p].length() == 0) continue;
    const Time reps_in_cycle = cycle / schedules[p].length();
    for (Time r = 0; r < reps_in_cycle; ++r) {
      for (const ScheduledOp& op : schedules[p].ops()) {
        const Time s = r * schedules[p].length() + op.start + 1;
        if (s < cycle) candidate_set.insert(s);
      }
    }
  }
  for (const LinkSchedule& table : comm.links) {
    if (table.slots.empty()) continue;
    std::vector<bool> occupied(static_cast<std::size_t>(table.cycle), false);
    for (const SlotAssignment& slot : table.slots) {
      for (Time d = 0; d < slot.duration; ++d) {
        occupied[static_cast<std::size_t>(slot.offset + d)] = true;
      }
    }
    for (Time s = 1; s < cycle; ++s) {
      if (occupied[static_cast<std::size_t>((s - 1) % table.cycle)]) {
        candidate_set.insert(s);
      }
    }
  }
  const std::vector<Time> candidates(candidate_set.begin(), candidate_set.end());

  const std::size_t threads =
      std::min(std::max<std::size_t>(options.n_threads, 1), candidates.size());
  std::atomic<bool> abort{false};
  std::vector<ChunkResult> results(threads);
  if (threads <= 1) {
    run_chunk(world, candidates, 0, candidates.size(), options, abort, results[0]);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const std::size_t per = (candidates.size() + threads - 1) / threads;
    for (std::size_t w = 0; w < threads; ++w) {
      const std::size_t begin = w * per;
      const std::size_t end = std::min(begin + per, candidates.size());
      workers.emplace_back([&, w, begin, end] {
        run_chunk(world, candidates, begin, end, options, abort, results[w]);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  bool failed = false;
  bool any = false;
  Time latency = 0;
  Time best_t = 0;
  SeamStats stats;
  stats.threads_used = threads;
  for (const ChunkResult& r : results) {
    stats += r.stats;
    if (r.failed) failed = true;
    // Chunks cover ascending windows, so the first chunk attaining the
    // running max holds the smallest worst window — deterministic at
    // every thread count.
    if (r.any && (!any || r.max_latency > latency)) {
      any = true;
      latency = r.max_latency;
      best_t = r.best_t;
    }
  }
  if (options.stats) *options.stats += stats;
  if (options.cancel && options.cancel->load(std::memory_order_relaxed)) {
    if (options.cancelled) *options.cancelled = true;
    return std::nullopt;
  }
  if (failed || !any) return std::nullopt;
  if (options.witness) {
    std::size_t seeks = 0;
    (void)completion(world, best_t, &seeks, options.witness);
  }
  return latency;
}

std::optional<std::string> check_witness(const TaskGraph& tg,
                                         const std::vector<StaticSchedule>& schedules,
                                         const std::vector<ProcId>& assignment,
                                         const CommSchedule& comm,
                                         const GlobalWitness& witness) {
  auto fail = [](std::string why) { return std::optional<std::string>(std::move(why)); };
  if (witness.ops.size() != tg.size()) return fail("witness op count mismatch");

  Time latest = witness.window_begin;
  for (core::OpId v = 0; v < tg.size(); ++v) {
    const WitnessOp& w = witness.ops[v];
    const ElementId e = tg.label(v);
    if (w.op != v) return fail("witness ops out of op-id order");
    if (w.proc != assignment.at(e)) return fail("op on the wrong processor");
    if (w.start < witness.window_begin) return fail("op starts before the window");
    if (w.proc >= schedules.size()) return fail("unknown processor");
    const StaticSchedule& sched = schedules[w.proc];
    if (sched.length() == 0) return fail("op placed on an empty schedule");
    // The (start, finish) pair must be a genuine cyclic occurrence of
    // the element on that processor.
    const Time base = w.start % sched.length();
    bool genuine = false;
    for (const ScheduledOp& op : sched.ops()) {
      if (op.elem == e && op.start == base && w.finish - w.start == op.duration) {
        genuine = true;
        break;
      }
    }
    if (!genuine) return fail("op is not a scheduled execution of its element");
    latest = std::max(latest, w.finish);
  }
  if (witness.makespan != latest) return fail("makespan != latest finish");

  for (const graph::Edge& e : tg.skeleton().edges()) {
    const core::OpId u = e.from;
    const core::OpId v = e.to;
    const ElementId eu = tg.label(u);
    const ElementId ev = tg.label(v);
    if (assignment.at(eu) == assignment.at(ev)) {
      if (witness.ops[u].finish > witness.ops[v].start) {
        return fail("same-processor precedence violated");
      }
      continue;
    }
    const std::size_t msg = comm.find_message(eu, ev);
    if (msg == CommSchedule::npos) return fail("crossing edge has no message");
    const MessageHop* hop = nullptr;
    for (const MessageHop& h : witness.hops) {
      if (h.producer == u && h.consumer == v) {
        hop = &h;
        break;
      }
    }
    if (!hop) return fail("crossing edge has no hop in the witness");
    if (hop->message != msg) return fail("hop rides the wrong message");
    const auto& [li, si] = comm.slot_of[msg];
    const LinkSchedule& table = comm.links[li];
    const SlotAssignment& slot = table.slots[si];
    if (hop->send < 0 || hop->send % table.cycle != slot.offset) {
      return fail("hop send is not a slot-run start of its message");
    }
    if (hop->arrive != hop->send + slot.duration) {
      return fail("hop arrival != send + transfer");
    }
    if (hop->send < witness.ops[u].finish || hop->send < witness.window_begin) {
      return fail("hop sent before the producer finished (or before the window)");
    }
    if (hop->arrive > witness.ops[v].start) {
      return fail("consumer starts before the message arrives");
    }
  }
  return std::nullopt;
}

}  // namespace rtg::map
