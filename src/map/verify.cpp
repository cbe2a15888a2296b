#include "map/verify.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "rt/task.hpp"  // lcm_checked
#include "util/thread_pool.hpp"

namespace rtg::map {

using core::ScheduledOp;
using core::StaticSchedule;
using core::TaskGraph;
using core::UnrollIndex;

namespace {

// Candidates per walk chunk. A list of n candidates is cut into
// ceil(n / kChunkCandidates) chunks of (nearly) equal length, so the
// boundaries depend on the list alone and every counter but
// threads_used is the same at every thread count. A chunk costs at most
// one completion that the previous chunk's last one would have
// dominated.
constexpr std::size_t kChunkCandidates = 2048;

}  // namespace

// One task graph's placement plan: its ops in topological order with
// their processors and searchable op prefixes, and per op its
// predecessors, resolved once to "same processor" or a message.
struct SeamContext::Query {
  struct Pred {
    core::OpId op = 0;
    bool local = false;                    ///< same processor: wait for its finish
    std::size_t msg = CommSchedule::npos;  ///< crossing: its message (npos = none)
    Time transfer = 0;                     ///< the message's slot-run duration
  };
  struct Step {
    core::OpId op = 0;
    ElementId elem = 0;
    std::size_t proc = 0;
    std::size_t limit = 0;  ///< searchable prefix of proc's unrolled ops
    std::size_t preds_begin = 0;
    std::size_t preds_end = 0;
  };

  Query(const SeamContext& ctx, const TaskGraph& tg) {
    // The horizon of a task graph of n ops is (2n + 2) cycles, so a
    // completion fails exactly where a context built for it alone would.
    const Time horizon = static_cast<Time>(2 * tg.size() + 2) * ctx.cycle_;
    for (core::OpId v : tg.topological_ops()) {
      Step step;
      step.op = v;
      step.elem = tg.label(v);
      step.proc = ctx.assignment_->at(step.elem);
      if (step.proc < ctx.procs_.size()) {
        const Proc& proc = ctx.procs_[step.proc];
        if (proc.length > 0) {
          step.limit = static_cast<std::size_t>(horizon / proc.length + 1) *
                       proc.ops_per_period;
        }
      }
      step.preds_begin = preds.size();
      for (core::OpId u : tg.skeleton().predecessors(v)) {
        Pred pred;
        pred.op = u;
        const ElementId eu = tg.label(u);
        pred.local = ctx.assignment_->at(eu) == step.proc;
        if (!pred.local) {
          pred.msg = ctx.comm_->find_message(eu, step.elem);
          if (pred.msg != CommSchedule::npos) {
            const auto& [li, si] = ctx.comm_->slot_of[pred.msg];
            pred.transfer = ctx.comm_->links[li].slots[si].duration;
          }
        }
        preds.push_back(pred);
      }
      step.preds_end = preds.size();
      steps.push_back(step);
    }
  }

  std::vector<Step> steps;
  std::vector<Pred> preds;
};

struct SeamContext::Completion {
  Time makespan = 0;
  /// Earliest op start placed. No send precedes it: a message leaves
  /// after its producer, an op of the same completion, finished.
  Time earliest = 0;
};

SeamContext::SeamContext(const std::vector<StaticSchedule>& schedules,
                         const std::vector<ProcId>& assignment, const CommSchedule& comm,
                         std::size_t max_ops, bool flat_reference)
    : assignment_(&assignment), comm_(&comm), flat_(flat_reference), max_ops_(max_ops) {
  // Common cycle of every processor schedule and every active link.
  for (const LinkSchedule& table : comm.links) {
    if (!table.slots.empty()) cycle_ = rt::lcm_checked(cycle_, table.cycle);
  }
  for (const StaticSchedule& s : schedules) {
    if (s.length() == 0) continue;
    cycle_ = rt::lcm_checked(cycle_, s.length());
  }
  const Time horizon = static_cast<Time>(2 * max_ops + 2) * cycle_;

  // Window starts: 0 and every op start + 1 within the cycle. On the
  // indexed path that is all: a window t in neither set has the same
  // completion as the nearest candidate below it, with a smaller latency
  // (FORMALISM §6).
  std::vector<Time> windows{0};
  procs_.resize(schedules.size());
  for (std::size_t p = 0; p < schedules.size(); ++p) {
    const StaticSchedule& sched = schedules[p];
    if (sched.length() == 0) continue;
    Proc& proc = procs_[p];
    proc.length = sched.length();
    const auto reps = static_cast<std::size_t>(horizon / proc.length) + 1;
    if (flat_) {
      proc.flat = core::unroll_ops(sched, reps);
      proc.ops_per_period = proc.flat.size() / reps;
    } else {
      proc.index = UnrollIndex(sched, reps);
      proc.ops_per_period = proc.index.ops_per_period();
    }
    for (Time shift = 0; shift < cycle_; shift += proc.length) {
      for (std::size_t b = 0; b < proc.ops_per_period; ++b) {
        const Time start = flat_ ? proc.flat[b].start : proc.index.base_start(b);
        if (shift + start + 1 < cycle_) windows.push_back(shift + start + 1);
      }
    }
  }

  if (flat_) {
    // The full set: additionally one past every busy link tick (with
    // fully-packed tables, every tick).
    std::vector<bool> busy_next(static_cast<std::size_t>(cycle_), false);
    for (const LinkSchedule& table : comm.links) {
      if (table.slots.empty()) continue;
      std::vector<bool> occupied(static_cast<std::size_t>(table.cycle), false);
      for (const SlotAssignment& slot : table.slots) {
        for (Time d = 0; d < slot.duration; ++d) {
          occupied[static_cast<std::size_t>(slot.offset + d)] = true;
        }
      }
      for (Time s = 1; s < cycle_; ++s) {
        if (occupied[static_cast<std::size_t>((s - 1) % table.cycle)]) {
          busy_next[static_cast<std::size_t>(s)] = true;
        }
      }
    }
    for (Time s = 1; s < cycle_; ++s) {
      if (busy_next[static_cast<std::size_t>(s)]) windows.push_back(s);
    }
  }
  std::sort(windows.begin(), windows.end());
  windows.erase(std::unique(windows.begin(), windows.end()), windows.end());
  candidates_ = std::move(windows);
}

std::optional<SeamContext::Completion> SeamContext::complete(
    const Query& query, Time t, std::vector<Time>& finish, std::size_t& seeks,
    GlobalWitness* witness) const {
  Completion out{t, std::numeric_limits<Time>::max()};
  if (witness) {
    witness->window_begin = t;
    witness->ops.assign(finish.size(), WitnessOp{});
    witness->hops.clear();
  }
  for (const Query::Step& step : query.steps) {
    Time ready = t;
    for (std::size_t k = step.preds_begin; k < step.preds_end; ++k) {
      const Query::Pred& pred = query.preds[k];
      if (pred.local) {
        ready = std::max(ready, finish[pred.op]);
        continue;
      }
      if (pred.msg == CommSchedule::npos) return std::nullopt;
      // The transmission must also lie inside the window: send >= t.
      const Time arrive = comm_->arrival(pred.msg, std::max(finish[pred.op], t));
      if (witness) {
        witness->hops.push_back(
            MessageHop{pred.msg, pred.op, step.op, arrive - pred.transfer, arrive});
      }
      ready = std::max(ready, arrive);
    }
    // First execution of the op's element on its processor starting at
    // or after `ready`, within the op's searchable prefix.
    std::optional<ScheduledOp> placed;
    if (step.proc < procs_.size() && procs_[step.proc].ops_per_period > 0) {
      const Proc& proc = procs_[step.proc];
      if (flat_) {
        for (std::size_t i = 0; i < step.limit; ++i) {
          const ScheduledOp& op = proc.flat[i];
          if (op.elem == step.elem && op.start >= ready) {
            placed = op;
            break;
          }
        }
      } else {
        ++seeks;
        const std::size_t idx =
            proc.index.first_at_or_after(step.elem, ready, step.limit);
        if (idx != UnrollIndex::npos) placed = proc.index.op(idx);
      }
    }
    if (!placed) return std::nullopt;
    finish[step.op] = placed->finish();
    out.makespan = std::max(out.makespan, finish[step.op]);
    out.earliest = std::min(out.earliest, placed->start);
    if (witness) {
      witness->ops[step.op] =
          WitnessOp{step.op, step.proc, placed->start, placed->finish()};
    }
  }
  if (witness) witness->makespan = out.makespan;
  return out;
}

std::optional<Time> SeamContext::latency(const TaskGraph& tg,
                                         const SeamOptions& options) const {
  if (options.flat_reference != flat_) {
    throw std::invalid_argument(
        "SeamContext::latency: flat_reference differs from the context's");
  }
  if (options.cancelled) *options.cancelled = false;
  if (tg.empty()) {
    if (options.witness) *options.witness = GlobalWitness{};
    return 0;
  }
  if (tg.size() > max_ops_) {
    throw std::invalid_argument(
        "SeamContext::latency: task graph exceeds the context's max_ops");
  }
  const Query query(*this, tg);

  // The walk: complete window t, then go on at the first candidate
  // after the completion's earliest placement; every candidate skipped
  // has the same completion and a smaller latency. The flat path
  // completes every candidate.
  struct ChunkResult {
    bool any = false;
    Time max_latency = 0;
    Time best_t = 0;  ///< smallest window start attaining max_latency
    SeamStats stats;
  };
  const std::size_t n = candidates_.size();
  const std::size_t n_chunks = (n + kChunkCandidates - 1) / kChunkCandidates;
  const std::size_t width = n / n_chunks;
  const std::size_t extra = n % n_chunks;
  std::vector<ChunkResult> results(n_chunks);
  // A chunk stops once a chunk before it failed: the result is nullopt
  // and only chunks up to the first failing one are counted, so the
  // counters do not depend on which chunks ran at the same time.
  std::atomic<std::size_t> first_failed{n_chunks};
  const std::size_t threads = std::max<std::size_t>(options.n_threads, 1);
  util::parallel_for(n_chunks, util::resolve_threads(threads), [&](std::size_t ci) {
    const std::size_t begin = ci * width + std::min(ci, extra);
    const std::size_t end = begin + width + (ci < extra ? 1 : 0);
    ChunkResult r;
    std::vector<Time> finish(tg.size(), 0);
    for (std::size_t i = begin; i < end;) {
      if (first_failed.load(std::memory_order_relaxed) < ci) break;
      if (options.cancel && options.cancel->load(std::memory_order_relaxed)) break;
      if (options.progress) options.progress->fetch_add(1, std::memory_order_relaxed);
      const Time t = candidates_[i];
      const auto done = complete(query, t, finish, r.stats.index_seeks, nullptr);
      ++r.stats.windows;
      if (!done) {
        std::size_t seen = first_failed.load(std::memory_order_relaxed);
        while (ci < seen && !first_failed.compare_exchange_weak(seen, ci)) {
        }
        break;
      }
      const Time latency = done->makespan - t;
      if (!r.any || latency > r.max_latency) {
        r.any = true;
        r.max_latency = latency;
        r.best_t = t;
      }
      if (flat_) {
        ++i;
      } else {
        const auto first = candidates_.begin();
        i = static_cast<std::size_t>(
            std::upper_bound(first + static_cast<std::ptrdiff_t>(i) + 1,
                             first + static_cast<std::ptrdiff_t>(end), done->earliest) -
            first);
      }
    }
    results[ci] = r;
  });

  const std::size_t failed_chunk = first_failed.load();
  bool any = false;
  Time latency = 0;
  Time best_t = 0;
  SeamStats stats;
  stats.candidates = n;
  stats.threads_used = std::min(threads, n_chunks);
  for (std::size_t ci = 0; ci < n_chunks && ci <= failed_chunk; ++ci) {
    const ChunkResult& r = results[ci];
    stats += r.stats;
    // Chunks cover ascending windows, so the first chunk attaining the
    // running max holds the smallest worst window.
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
  if (failed_chunk < n_chunks || !any) return std::nullopt;
  if (options.witness) {
    std::vector<Time> finish(tg.size(), 0);
    std::size_t seeks = 0;
    (void)complete(query, best_t, finish, seeks, options.witness);
  }
  return latency;
}

std::optional<Time> distributed_latency(const TaskGraph& tg,
                                        const std::vector<StaticSchedule>& schedules,
                                        const std::vector<ProcId>& assignment,
                                        const CommSchedule& comm,
                                        const SeamOptions& options) {
  return SeamContext(schedules, assignment, comm, tg.size(), options.flat_reference)
      .latency(tg, options);
}

std::optional<std::string> check_witness(const TaskGraph& tg,
                                         const std::vector<StaticSchedule>& schedules,
                                         const std::vector<ProcId>& assignment,
                                         const CommSchedule& comm,
                                         const GlobalWitness& witness) {
  auto fail = [](std::string why) { return std::optional<std::string>(std::move(why)); };
  if (witness.ops.size() != tg.size()) return fail("witness op count mismatch");

  // Each processor's executions, materialized on first use.
  std::vector<std::optional<std::vector<ScheduledOp>>> base_ops(schedules.size());
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
    if (!base_ops[w.proc]) base_ops[w.proc] = sched.ops();
    bool genuine = false;
    for (const ScheduledOp& op : *base_ops[w.proc]) {
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
