#include "core/latency.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "rt/task.hpp"  // lcm_checked
#include "util/thread_pool.hpp"

namespace rtg::core {

namespace {

constexpr Time kInf = std::numeric_limits<Time>::max();

// Monotone-hint walks longer than this bail out to a binary-search
// re-seed: a sweep in ascending window order rarely advances a cursor
// more than a couple of occurrences per query, so a long walk means the
// query order is degenerate (e.g. a shuffled parallel part) and the
// O(log) probe is cheaper. The re-seed lands on the identical pick.
constexpr std::size_t kMaxHintWalk = 32;

// Greedy earliest-finish embedding for task graphs without repeated
// element labels. Processing ops of `tg` in topological order and
// picking, for each, the earliest execution of its element that starts
// after all predecessors finish is optimal: each choice minimizes that
// op's finish, finishes propagate monotonically to successors, and no
// two task-graph ops compete for the same execution.
std::optional<EmbeddingWitness> greedy_embedding(const TaskGraph& tg,
                                                 std::span<const ScheduledOp> ops,
                                                 Time window_begin,
                                                 const std::vector<bool>& excluded) {
  const auto topo = tg.topological_ops();
  std::vector<Time> finish(tg.size(), 0);
  EmbeddingWitness witness;
  witness.assignment.assign(tg.size(), 0);

  Time makespan = window_begin;
  for (OpId v : topo) {
    Time ready = window_begin;
    for (OpId u : tg.skeleton().predecessors(v)) {
      ready = std::max(ready, finish[u]);
    }
    const ElementId want = tg.label(v);
    // Find the first available op of `want` with start >= ready.
    auto it = std::lower_bound(ops.begin(), ops.end(), ready,
                               [](const ScheduledOp& op, Time t) { return op.start < t; });
    bool found = false;
    for (; it != ops.end(); ++it) {
      const std::size_t idx = static_cast<std::size_t>(it - ops.begin());
      if (it->elem == want && (excluded.empty() || !excluded[idx])) {
        finish[v] = it->finish();
        makespan = std::max(makespan, finish[v]);
        witness.assignment[v] = idx;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  witness.finish = makespan;
  return witness;
}

// Branch-and-bound embedding for task graphs where an element labels
// several ops (executions must be assigned injectively). Worst case
// exponential — consistent with the general problem's hardness — but
// effective for the small task graphs of real constraints.
struct BnbSearch {
  const TaskGraph& tg;
  std::span<const ScheduledOp> ops;
  Time window_begin;
  const std::vector<bool>& excluded;
  std::vector<OpId> topo;
  std::vector<Time> finish;        // per task-graph op
  std::vector<std::size_t> chosen; // per task-graph op, current path
  std::vector<bool> used;          // per schedule op
  Time best = kInf;
  std::vector<std::size_t> best_assignment;

  void rec(std::size_t k, Time makespan) {
    if (makespan >= best) return;
    if (k == topo.size()) {
      best = makespan;
      best_assignment = chosen;
      return;
    }
    const OpId v = topo[k];
    Time ready = window_begin;
    for (OpId u : tg.skeleton().predecessors(v)) {
      ready = std::max(ready, finish[u]);
    }
    const ElementId want = tg.label(v);
    auto it = std::lower_bound(ops.begin(), ops.end(), ready,
                               [](const ScheduledOp& op, Time t) { return op.start < t; });
    for (; it != ops.end(); ++it) {
      if (it->elem != want) continue;
      if (it->start >= best) break;  // any later choice is no better
      const std::size_t idx = static_cast<std::size_t>(it - ops.begin());
      if (used[idx]) continue;
      if (!excluded.empty() && excluded[idx]) continue;
      used[idx] = true;
      finish[v] = it->finish();
      chosen[v] = idx;
      rec(k + 1, std::max(makespan, finish[v]));
      used[idx] = false;
    }
  }
};

std::optional<EmbeddingWitness> bnb_embedding(const TaskGraph& tg,
                                              std::span<const ScheduledOp> ops,
                                              Time window_begin,
                                              const std::vector<bool>& excluded) {
  BnbSearch search{tg,
                   ops,
                   window_begin,
                   excluded,
                   tg.topological_ops(),
                   std::vector<Time>(tg.size(), 0),
                   std::vector<std::size_t>(tg.size(), 0),
                   std::vector<bool>(ops.size(), false),
                   kInf,
                   {}};
  search.rec(0, window_begin);
  if (search.best == kInf) return std::nullopt;
  return EmbeddingWitness{search.best, std::move(search.best_assignment)};
}

}  // namespace

std::optional<EmbeddingWitness> find_earliest_embedding(const TaskGraph& tg,
                                                        std::span<const ScheduledOp> ops,
                                                        Time window_begin,
                                                        const std::vector<bool>& used) {
  if (tg.empty()) return EmbeddingWitness{window_begin, {}};
  if (tg.has_repeated_labels()) {
    return bnb_embedding(tg, ops, window_begin, used);
  }
  return greedy_embedding(tg, ops, window_begin, used);
}

std::optional<Time> earliest_embedding_finish(const TaskGraph& tg,
                                              std::span<const ScheduledOp> ops,
                                              Time window_begin) {
  const auto witness = find_earliest_embedding(tg, ops, window_begin);
  if (!witness) return std::nullopt;
  return witness->finish;
}

bool window_contains_execution(const TaskGraph& tg, std::span<const ScheduledOp> ops,
                               Time begin, Time end) {
  const auto finish = earliest_embedding_finish(tg, ops, begin);
  return finish.has_value() && *finish <= end;
}

std::vector<ScheduledOp> unroll_ops(const StaticSchedule& sched, std::size_t periods) {
  const std::vector<ScheduledOp> base = sched.ops();
  const Time period = sched.length();
  std::vector<ScheduledOp> result;
  result.reserve(base.size() * periods);
  for (std::size_t r = 0; r < periods; ++r) {
    const Time shift = static_cast<Time>(r) * period;
    for (const ScheduledOp& op : base) {
      result.push_back(ScheduledOp{op.elem, op.start + shift, op.duration});
    }
  }
  return result;
}

UnrollIndex::UnrollIndex(const StaticSchedule& sched, std::size_t periods)
    : period_(sched.length()), periods_(periods) {
  // One pass over the entries builds the SoA columns directly — same
  // starts as sched.ops(), without materializing a ScheduledOp vector.
  const std::vector<ScheduleEntry>& entries = sched.entries();
  std::size_t n = 0;
  ElementId max_elem = 0;
  for (const ScheduleEntry& entry : entries) {
    if (entry.elem == kIdleEntry) continue;
    ++n;
    max_elem = std::max(max_elem, entry.elem);
  }
  starts_.reserve(n);
  durations_.reserve(n);
  elems_.reserve(n);
  Time t = 0;
  for (const ScheduleEntry& entry : entries) {
    if (entry.elem != kIdleEntry) {
      elems_.push_back(entry.elem);
      starts_.push_back(t);
      durations_.push_back(entry.duration);
    }
    t += entry.duration;
  }
  elem_count_ = n == 0 ? 0 : static_cast<std::size_t>(max_elem) + 1;

  // Counting sort into per-element occurrence rows; base ops are in
  // start order, so each row comes out in start order too, and the
  // parallel occ_starts_ column gives the searches contiguous Time data.
  occ_offsets_.assign(elem_count_ + 1, 0);
  for (const ElementId e : elems_) ++occ_offsets_[static_cast<std::size_t>(e) + 1];
  for (std::size_t e = 1; e <= elem_count_; ++e) occ_offsets_[e] += occ_offsets_[e - 1];
  occ_idx_.resize(n);
  occ_starts_.resize(n);
  occ_rank_.resize(n);
  std::vector<std::size_t> cursor(occ_offsets_.begin(),
                                  occ_offsets_.begin() +
                                      static_cast<std::ptrdiff_t>(elem_count_));
  for (std::size_t i = 0; i < n; ++i) {
    const auto e = static_cast<std::size_t>(elems_[i]);
    const std::size_t pos = cursor[e]++;
    occ_idx_[pos] = i;
    occ_starts_[pos] = starts_[i];
    occ_rank_[i] = pos - occ_offsets_[e];
  }
}

std::size_t UnrollIndex::occurrence_count(ElementId e) const {
  const auto bucket = static_cast<std::size_t>(e);
  return bucket < elem_count_ ? occ_offsets_[bucket + 1] - occ_offsets_[bucket] : 0;
}

std::span<const std::size_t> UnrollIndex::occurrences(ElementId e) const {
  const auto bucket = static_cast<std::size_t>(e);
  if (bucket >= elem_count_) return {};
  return {occ_idx_.data() + occ_offsets_[bucket],
          occ_offsets_[bucket + 1] - occ_offsets_[bucket]};
}

std::size_t UnrollIndex::first_at_or_after(ElementId e, Time t, std::size_t limit,
                                           std::size_t* row_skips) const {
  const auto bucket = static_cast<std::size_t>(e);
  if (elems_.empty() || period_ <= 0 || bucket >= elem_count_) return npos;
  const std::size_t row_begin = occ_offsets_[bucket];
  const std::size_t row_end = occ_offsets_[bucket + 1];
  if (row_begin == row_end) return npos;
  if (t < 0) t = 0;
  const std::size_t opp = elems_.size();
  // Cycle k covers starts in [k * period, (k+1) * period); every
  // occurrence in an earlier cycle starts before t, so the first match
  // is in cycle t / period (or the following one).
  std::size_t cycle = static_cast<std::size_t>(t / period_);
  const Time r = t - static_cast<Time>(cycle) * period_;
  // Row gates: a window at or before the row's first start takes the
  // row head, one past its last start wraps to the next cycle's head —
  // both without a binary search over the row's start column.
  std::size_t pos = row_begin;
  if (r <= occ_starts_[row_begin]) {
    if (row_skips != nullptr) ++*row_skips;
  } else if (r > occ_starts_[row_end - 1]) {
    ++cycle;
    if (row_skips != nullptr) ++*row_skips;
  } else {
    const Time* col = occ_starts_.data();
    pos = static_cast<std::size_t>(std::lower_bound(col + row_begin, col + row_end, r) - col);
  }
  const std::size_t idx = cycle * opp + occ_idx_[pos];
  return idx < std::min(limit, size()) ? idx : npos;
}

std::size_t UnrollIndex::next_occurrence(std::size_t idx, std::size_t limit) const {
  const std::size_t opp = elems_.size();
  const std::size_t base_idx = idx % opp;
  std::size_t cycle = idx / opp;
  const auto bucket = static_cast<std::size_t>(base_elem(base_idx));
  const std::size_t row_begin = occ_offsets_[bucket];
  const std::size_t row_end = occ_offsets_[bucket + 1];
  const std::size_t rank = occ_rank_[base_idx];
  std::size_t next_base;
  if (row_begin + rank + 1 < row_end) {
    next_base = occ_idx_[row_begin + rank + 1];
  } else {
    ++cycle;
    next_base = occ_idx_[row_begin];
  }
  const std::size_t next = cycle * opp + next_base;
  return next < std::min(limit, size()) ? next : npos;
}

EmbeddingKernel::EmbeddingKernel(const TaskGraph& tg, const UnrollIndex& index,
                                 std::size_t periods_limit, util::Arena* arena)
    : tg_(&tg),
      index_(&index),
      limit_(periods_limit == 0
                 ? index.size()
                 : std::min(index.size(), periods_limit * index.ops_per_period())),
      repeated_(tg.has_repeated_labels()),
      topo_(tg.topological_ops()),
      arena_(arena != nullptr ? arena : &own_arena_) {
  const std::size_t n = tg.size();
  finish_ = arena_->allocate<Time>(n);
  chosen_ = arena_->allocate<std::size_t>(n);
  best_assignment_ = arena_->allocate<std::size_t>(n);
  hint_ = arena_->allocate<SeekHint>(n);
  for (std::size_t i = 0; i < n; ++i) {
    finish_[i] = 0;
    chosen_[i] = 0;
    hint_[i] = SeekHint{};
  }
}

// Fills a hint from a fresh index probe; used on the first query of a
// sweep, after a backwards window jump, whenever the previous pick
// exhausted the prefix, and when a linear walk exceeds its step bound.
// The division to decompose the flat index is paid only here, off the
// steady-state path.
void EmbeddingKernel::seed_hint(SeekHint& h, ElementId e, Time ready) {
  ++counters_.index_seeks;
  h.idx = index_->first_at_or_after(e, ready, limit_, &counters_.bitset_skips);
  if (h.idx == UnrollIndex::npos) return;
  const std::size_t base_idx = h.idx % index_->ops_per_period();
  h.cycle = h.idx / index_->ops_per_period();
  h.rank = index_->occurrence_rank(base_idx);
  h.start = index_->base_start(base_idx) + static_cast<Time>(h.cycle) * index_->period();
  h.finish = h.start + index_->base_duration(base_idx);
}

// Indexed greedy / branch-and-bound. Candidate executions of an element
// are enumerated in the same (start) order as the flat scan visits
// them, so picks and pruning decisions — and hence finishes and witness
// assignments — are bit-identical to the reference kernels above.
bool EmbeddingKernel::solve(Time window_begin, const std::vector<bool>& excluded) {
  ++counters_.queries;
  if (warm_) {
    ++counters_.arena_reuses;
  } else {
    warm_ = true;
  }
  if (tg_->empty()) {
    result_finish_ = window_begin;
    return true;
  }
  if (repeated_) {
    if (used_words_ == nullptr) {
      // Word-granular availability bitset; backtracking restores every
      // bit, so this zero-fill happens once per kernel, not per query.
      used_words_ = arena_->allocate_zeroed<std::uint64_t>(limit_ / 64 + 1);
    }
    best_ = kInf;
    bnb_rec(0, window_begin, window_begin, excluded);
    if (best_ == kInf) return false;
    result_finish_ = best_;
    return true;
  }
  // Monotone seek hints: the verify engines issue a group's queries in
  // ascending window order, and the greedy pick for each op is monotone
  // in the window begin (ready times only grow), so the previous pick
  // is a sound lower bound — advance linearly from it instead of binary
  // searching. Amortized O(1) seeks per query over a sweep. Hints are
  // bypassed (and left untouched) under exclusion masks or when the
  // window moves backwards; the picks are identical either way.
  const bool plain = excluded.empty();
  const bool monotone = plain && (!hints_primed_ || window_begin >= last_begin_);
  if (plain) {
    hints_primed_ = true;
    last_begin_ = window_begin;
  }
  const std::size_t opp = index_->ops_per_period();
  const Time index_period = index_->period();
  Time makespan = window_begin;
  for (OpId v : topo_) {
    Time ready = window_begin;
    for (OpId u : tg_->skeleton().predecessors(v)) {
      ready = std::max(ready, finish_[u]);
    }
    if (plain) {
      SeekHint& h = hint_[v];
      if (!monotone || h.idx == UnrollIndex::npos) {
        seed_hint(h, tg_->label(v), ready);
      } else if (h.start < ready) {
        // Steady-state advance: walk the element's occurrence row with
        // (cycle, rank) arithmetic only. Visits executions in exactly
        // next_occurrence order, so the pick is unchanged. Bounded —
        // after kMaxHintWalk steps the walk re-seeds via binary search,
        // keeping degenerate (non-ascending-dense) sweeps O(log).
        const std::span<const std::size_t> row =
            index_->occurrences(tg_->label(v));
        std::size_t steps = 0;
        do {
          if (++steps > kMaxHintWalk) {
            seed_hint(h, tg_->label(v), ready);
            break;
          }
          ++counters_.index_seeks;
          if (++h.rank == row.size()) {
            h.rank = 0;
            ++h.cycle;
          }
          const std::size_t base_idx = row[h.rank];
          h.idx = h.cycle * opp + base_idx;
          if (h.idx >= limit_) {
            h.idx = UnrollIndex::npos;
            break;
          }
          h.start =
              index_->base_start(base_idx) + static_cast<Time>(h.cycle) * index_period;
          h.finish = h.start + index_->base_duration(base_idx);
        } while (h.start < ready);
      }
      if (h.idx == UnrollIndex::npos) return false;
      finish_[v] = h.finish;
      chosen_[v] = h.idx;
    } else {
      std::size_t idx = index_->first_at_or_after(tg_->label(v), ready, limit_,
                                                  &counters_.bitset_skips);
      ++counters_.index_seeks;
      while (idx != UnrollIndex::npos && excluded[idx]) {
        idx = index_->next_occurrence(idx, limit_);
        ++counters_.index_seeks;
      }
      if (idx == UnrollIndex::npos) return false;
      finish_[v] = index_->op(idx).finish();
      chosen_[v] = idx;
    }
    makespan = std::max(makespan, finish_[v]);
  }
  result_finish_ = makespan;
  return true;
}

void EmbeddingKernel::bnb_rec(std::size_t k, Time makespan, Time window_begin,
                              const std::vector<bool>& excluded) {
  if (makespan >= best_) return;
  if (k == topo_.size()) {
    best_ = makespan;
    std::copy(chosen_, chosen_ + topo_.size(), best_assignment_);
    return;
  }
  const OpId v = topo_[k];
  Time ready = window_begin;
  for (OpId u : tg_->skeleton().predecessors(v)) {
    ready = std::max(ready, finish_[u]);
  }
  std::size_t idx = index_->first_at_or_after(tg_->label(v), ready, limit_,
                                              &counters_.bitset_skips);
  ++counters_.index_seeks;
  while (idx != UnrollIndex::npos) {
    const ScheduledOp op = index_->op(idx);
    if (op.start >= best_) break;  // any later choice is no better
    if (!used_test(idx) && (excluded.empty() || !excluded[idx])) {
      used_flip(idx);
      finish_[v] = op.finish();
      chosen_[v] = idx;
      bnb_rec(k + 1, std::max(makespan, finish_[v]), window_begin, excluded);
      used_flip(idx);
    }
    idx = index_->next_occurrence(idx, limit_);
    ++counters_.index_seeks;
  }
}

std::optional<Time> EmbeddingKernel::finish_at(Time window_begin) {
  static const std::vector<bool> kNoExclusions;
  if (!solve(window_begin, kNoExclusions)) return std::nullopt;
  return result_finish_;
}

std::optional<EmbeddingWitness> EmbeddingKernel::witness_at(
    Time window_begin, const std::vector<bool>& excluded) {
  if (!solve(window_begin, excluded)) return std::nullopt;
  EmbeddingWitness witness;
  witness.finish = result_finish_;
  if (!tg_->empty()) {
    const std::size_t* src = repeated_ ? best_assignment_ : chosen_;
    witness.assignment.assign(src, src + tg_->size());
  }
  return witness;
}

std::vector<ScheduledOp> ops_from_trace(const sim::ExecutionTrace& trace,
                                        const CommGraph& comm) {
  std::vector<ScheduledOp> ops;
  std::size_t i = 0;
  const std::size_t n = trace.size();
  while (i < n) {
    const sim::Slot s = trace[i];
    if (s == sim::kIdle) {
      ++i;
      continue;
    }
    if (!comm.has_element(s)) {
      throw std::invalid_argument("ops_from_trace: unknown element id " +
                                  std::to_string(s));
    }
    std::size_t run = 0;
    while (i + run < n && trace[i + run] == s) ++run;
    const Time w = comm.weight(s);
    const std::size_t complete = run / static_cast<std::size_t>(w);
    for (std::size_t k = 0; k < complete; ++k) {
      ops.push_back(ScheduledOp{s, static_cast<Time>(i) + static_cast<Time>(k) * w, w});
    }
    i += run;
  }
  return ops;
}

std::optional<Time> finite_trace_latency(std::span<const ScheduledOp> ops, Time horizon,
                                         const TaskGraph& tg) {
  if (tg.empty()) return 0;
  if (horizon <= 0) return std::nullopt;

  // completion(t) at the left endpoints of its constancy regions.
  std::vector<Time> candidates{0};
  for (const ScheduledOp& op : ops) {
    if (op.start + 1 <= horizon) candidates.push_back(op.start + 1);
  }
  struct Point {
    Time t;
    Time completion;  // kInf when no embedding at or after t
  };
  std::vector<Point> points;
  points.reserve(candidates.size());
  for (Time t : candidates) {
    const auto finish = earliest_embedding_finish(tg, ops, t);
    points.push_back(Point{t, finish && *finish <= horizon ? *finish : kInf});
  }

  // Smallest k such that for every t with t + k <= horizon:
  // completion(t) <= t + k. Checked via the candidate points: for a
  // point (t, c), the requirement applies to all window starts t' in
  // [t, next_t) with t' + k <= horizon and demands c <= t' + k; the
  // binding case is t' = t. Points with c == kInf forbid any window of
  // length k starting at t, i.e. require t + k > horizon.
  auto feasible = [&](Time k) {
    for (const Point& point : points) {
      if (point.t + k > horizon) continue;  // window does not fit
      if (point.completion == kInf || point.completion - point.t > k) return false;
    }
    return true;
  };
  // feasible(k) is monotone in k only while windows still fit; it is in
  // fact monotone overall (larger k both relaxes the bound and drops
  // trailing windows), so binary search applies.
  Time lo = 1, hi = horizon;
  if (!feasible(hi)) return std::nullopt;
  while (lo < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

namespace {

// Number of unrolled periods sufficient for any embedding query with a
// window start inside the first period: in the greedy construction each
// task-graph op waits at most two periods past its ready time (one to
// reach the next occurrence of its element, one more when competing
// occurrences are exhausted), so 2|C| + 2 periods always suffice.
std::size_t unroll_budget(const TaskGraph& tg) { return 2 * tg.size() + 2; }

// Window starts at which completion(t) can change, one list per label
// set: for a task graph over the elements of `label_sets[k]`,
// completion(t), the earliest finish of an embedding starting at or
// after t, depends only on which executions of those elements start at
// or after t, so it is a step function that jumps only at t = s + 1 for
// such a start s. Its maximum of completion(t) - t over one period is
// therefore attained at 0 or at one of those points (FORMALISM §3).
// Each list is ascending and unique, since `ops` are in start order
// with distinct starts; all lists come from one pass over `ops`.
std::vector<std::vector<Time>> jump_points(
    std::span<const ScheduledOp> ops, Time period,
    std::span<const std::span<const ElementId>> label_sets) {
  std::vector<std::vector<std::size_t>> sets_of;  // element -> label sets holding it
  for (std::size_t k = 0; k < label_sets.size(); ++k) {
    for (const ElementId e : label_sets[k]) {
      if (e >= sets_of.size()) sets_of.resize(e + 1);
      if (sets_of[e].empty() || sets_of[e].back() != k) sets_of[e].push_back(k);
    }
  }
  std::vector<std::vector<Time>> lists(label_sets.size(), std::vector<Time>{0});
  for (const ScheduledOp& op : ops) {
    if (op.start + 1 >= period || op.elem >= sets_of.size()) continue;
    for (const std::size_t k : sets_of[op.elem]) lists[k].push_back(op.start + 1);
  }
  return lists;
}

// True iff every element of tg occurs at least once in the schedule.
bool covers_elements(const StaticSchedule& sched, const TaskGraph& tg) {
  std::vector<bool> present;
  for (const ScheduledOp& op : sched.ops()) {
    if (op.elem >= present.size()) present.resize(op.elem + 1, false);
    present[op.elem] = true;
  }
  for (ElementId e : tg.labels()) {
    if (e >= present.size() || !present[e]) return false;
  }
  return true;
}

}  // namespace

std::optional<Time> schedule_latency(const StaticSchedule& sched, const TaskGraph& tg) {
  if (tg.empty()) return 0;
  if (sched.length() == 0 || !covers_elements(sched, tg)) return std::nullopt;

  const Time period = sched.length();
  const UnrollIndex index(sched, unroll_budget(tg));
  EmbeddingKernel kernel(tg, index);

  // By cyclicity only window starts in [0, period) matter.
  const std::span<const ElementId> labels = tg.labels();
  const std::vector<Time> starts =
      std::move(jump_points(sched.ops(), period, std::span(&labels, 1)).front());
  Time latency = 0;
  for (Time t : starts) {
    const auto finish = kernel.finish_at(t);
    if (!finish) return std::nullopt;  // cannot happen if covers_elements
    latency = std::max(latency, *finish - t);
  }
  return latency;
}

bool periodic_satisfied(const StaticSchedule& sched, const TaskGraph& tg, Time p,
                        Time d) {
  if (p < 1 || d < 1) {
    throw std::invalid_argument("periodic_satisfied: p and d must be >= 1");
  }
  if (tg.empty()) return true;
  if (sched.length() == 0 || !covers_elements(sched, tg)) return false;

  const Time period = sched.length();
  const Time cycle = rt::lcm_checked(period, p);
  // Invocations at t = 0, p, ..., cycle - p repeat identically afterwards.
  const std::size_t periods_needed =
      static_cast<std::size_t>(cycle / period) + unroll_budget(tg);
  const UnrollIndex index(sched, periods_needed);
  EmbeddingKernel kernel(tg, index);
  for (Time t = 0; t < cycle; t += p) {
    const auto finish = kernel.finish_at(t);
    if (!finish || *finish > t + d) return false;
  }
  return true;
}

namespace {

// Flat-scan reference verifier: the pre-index serial path, one
// constraint at a time over materialized unroll_ops with linear element
// scans, no memo. Kept (behind VerifyOptions::flat_reference) to pin
// the legacy behavior for the differential suite. It queries the full
// jump set J (every execution start + 1), not the per-label-set
// jump_points, so it independently checks that narrowing.
std::optional<Time> schedule_latency_flat(const StaticSchedule& sched,
                                          const TaskGraph& tg) {
  if (tg.empty()) return 0;
  if (sched.length() == 0 || !covers_elements(sched, tg)) return std::nullopt;
  const Time period = sched.length();
  const std::vector<ScheduledOp> unrolled = unroll_ops(sched, unroll_budget(tg));
  std::vector<Time> candidates{0};
  for (const ScheduledOp& op : sched.ops()) {
    if (op.start + 1 < period) candidates.push_back(op.start + 1);
  }
  Time latency = 0;
  for (Time t : candidates) {
    const auto finish = earliest_embedding_finish(tg, unrolled, t);
    if (!finish) return std::nullopt;
    latency = std::max(latency, *finish - t);
  }
  return latency;
}

bool periodic_satisfied_flat(const StaticSchedule& sched, const TaskGraph& tg, Time p,
                             Time d) {
  if (p < 1 || d < 1) {
    throw std::invalid_argument("periodic_satisfied: p and d must be >= 1");
  }
  if (tg.empty()) return true;
  if (sched.length() == 0 || !covers_elements(sched, tg)) return false;
  const Time period = sched.length();
  const Time cycle = rt::lcm_checked(period, p);
  const std::size_t periods_needed =
      static_cast<std::size_t>(cycle / period) + unroll_budget(tg);
  const std::vector<ScheduledOp> unrolled = unroll_ops(sched, periods_needed);
  for (Time t = 0; t < cycle; t += p) {
    const auto finish = earliest_embedding_finish(tg, unrolled, t);
    if (!finish || *finish > t + d) return false;
  }
  return true;
}

FeasibilityReport verify_flat(const StaticSchedule& sched, const GraphModel& model) {
  FeasibilityReport report;
  report.feasible = true;
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const TimingConstraint& c = model.constraint(i);
    ConstraintVerdict verdict;
    verdict.constraint = i;
    if (c.periodic()) {
      verdict.satisfied =
          periodic_satisfied_flat(sched, c.task_graph, c.period, c.deadline);
    } else {
      verdict.latency = schedule_latency_flat(sched, c.task_graph);
      verdict.satisfied = verdict.latency.has_value() && *verdict.latency <= c.deadline;
    }
    report.feasible = report.feasible && verdict.satisfied;
    report.verdicts.push_back(verdict);
  }
  return report;
}

// Structural fingerprint of a task graph. Constraints whose task graphs
// are structurally identical (same op count, labels, and edges) produce
// identical embedding queries over identical op spans, so they share
// memo entries under one id.
std::string task_graph_fingerprint(const TaskGraph& tg) {
  std::string key;
  auto put = [&key](std::uint64_t v) {
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(tg.size());
  for (OpId v = 0; v < tg.size(); ++v) {
    put(tg.label(v));
    const auto& succ = tg.skeleton().successors(v);
    put(succ.size());
    for (OpId s : succ) put(s);
  }
  return key;
}

// Plan of one constraint: either a fixed verdict (degenerate cases
// answered without embedding queries) or a batch of independent
// window-begin queries over a prefix of one shared unroll. The offset
// list lives in the plan-wide pool (offsets_id) — async constraints
// share one list per distinct label set, periodic constraints one per
// period.
struct ConstraintPlan {
  std::size_t tg_id = 0;
  std::size_t periods = 0;  // op-span prefix length, in periods
  std::size_t offsets_id = static_cast<std::size_t>(-1);
  std::optional<ConstraintVerdict> fixed;
};

struct VerifyPlan {
  std::vector<ConstraintPlan> plans;
  std::vector<const TaskGraph*> tg_of_id;
  std::vector<std::vector<Time>> offset_pool;  // deduplicated offset lists
  std::size_t max_periods = 0;
  std::size_t work_units = 0;  // total non-fixed (constraint, offset) units

  // Window begins of plan i, sorted ascending (non-fixed plans only).
  [[nodiscard]] std::span<const Time> offsets_of(std::size_t i) const {
    return offset_pool[plans[i].offsets_id];
  }
};

VerifyPlan build_verify_plan(const StaticSchedule& sched, const GraphModel& model) {
  // Argument validation mirrors the legacy paths: any malformed
  // periodic constraint makes verification throw, so throw up front.
  for (const TimingConstraint& c : model.constraints()) {
    if (c.periodic() && (c.period < 1 || c.deadline < 1)) {
      throw std::invalid_argument("periodic_satisfied: p and d must be >= 1");
    }
  }

  const Time period = sched.length();
  VerifyPlan out;
  out.plans.resize(model.constraint_count());
  std::unordered_map<std::string, std::size_t> tg_ids;

  // One materialization of the schedule's executions serves element
  // coverage checks and async offset lists for every constraint.
  const std::vector<ScheduledOp> ops = sched.ops();
  std::vector<bool> present;
  for (const ScheduledOp& op : ops) {
    if (op.elem >= present.size()) present.resize(op.elem + 1, false);
    present[op.elem] = true;
  }
  const auto covered = [&present](const TaskGraph& tg) {
    for (ElementId e : tg.labels()) {
      if (e >= present.size() || !present[e]) return false;
    }
    return true;
  };

  // Offset-list pooling: an async list depends only on the schedule and
  // the constraint's label set (its jump points), a periodic list only
  // on the period p — so each distinct list is built exactly once. The
  // async lists are filled after the loop, all in one pass over `ops`.
  std::map<std::vector<ElementId>, std::size_t> async_ids;  // label set -> pool id
  std::vector<std::pair<Time, std::size_t>> periodic_ids;
  const auto async_offsets_id = [&](const TaskGraph& tg) -> std::size_t {
    std::vector<ElementId> label_set = tg.labels();
    std::sort(label_set.begin(), label_set.end());
    label_set.erase(std::unique(label_set.begin(), label_set.end()), label_set.end());
    const auto [it, inserted] = async_ids.emplace(std::move(label_set), out.offset_pool.size());
    if (inserted) out.offset_pool.emplace_back();
    return it->second;
  };
  const auto periodic_offsets_id = [&](Time p, Time cycle) -> std::size_t {
    for (const auto& [key, id] : periodic_ids) {
      if (key == p) return id;
    }
    std::vector<Time> offsets;
    offsets.reserve(static_cast<std::size_t>(cycle / p));
    for (Time t = 0; t < cycle; t += p) offsets.push_back(t);
    out.offset_pool.push_back(std::move(offsets));
    periodic_ids.emplace_back(p, out.offset_pool.size() - 1);
    return out.offset_pool.size() - 1;
  };

  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const TimingConstraint& c = model.constraint(i);
    ConstraintPlan& plan = out.plans[i];
    ConstraintVerdict fixed;
    fixed.constraint = i;
    if (c.task_graph.empty()) {
      if (!c.periodic()) fixed.latency = 0;
      fixed.satisfied = c.periodic() || 0 <= c.deadline;
      plan.fixed = fixed;
      continue;
    }
    if (period == 0 || !covered(c.task_graph)) {
      fixed.satisfied = false;
      plan.fixed = fixed;
      continue;
    }
    const auto [it, inserted] =
        tg_ids.emplace(task_graph_fingerprint(c.task_graph), out.tg_of_id.size());
    if (inserted) out.tg_of_id.push_back(&c.task_graph);
    plan.tg_id = it->second;
    if (c.periodic()) {
      const Time cycle = rt::lcm_checked(period, c.period);
      plan.periods =
          static_cast<std::size_t>(cycle / period) + unroll_budget(c.task_graph);
      plan.offsets_id = periodic_offsets_id(c.period, cycle);
    } else {
      plan.periods = unroll_budget(c.task_graph);
      plan.offsets_id = async_offsets_id(c.task_graph);
    }
    out.max_periods = std::max(out.max_periods, plan.periods);
  }

  std::vector<std::span<const ElementId>> label_sets;
  for (const auto& [label_set, id] : async_ids) label_sets.emplace_back(label_set);
  std::vector<std::vector<Time>> async_lists = jump_points(ops, period, label_sets);
  std::size_t k = 0;
  for (const auto& [label_set, id] : async_ids) out.offset_pool[id] = std::move(async_lists[k++]);

  for (const ConstraintPlan& plan : out.plans) {
    if (!plan.fixed) out.work_units += out.offset_pool[plan.offsets_id].size();
  }
  return out;
}

// Deduplicated query table: one slot per distinct (tg_id, periods,
// window begin). Plans are grouped by (tg_id, periods); each group's
// offset lists (sorted ascending by construction) merge into unique
// slots, and slot(i, j) maps plan i's j-th offset to its slot. Groups
// whose members all reference one pooled offset list — every async
// group — skip the merge, and plans whose list *is* the group's slot
// list are identity-mapped (a base offset instead of a materialized
// per-offset vector). Slots of one group are contiguous, so a serial
// executor reuses one kernel per group and parallel workers fill
// disjoint slots lock-free.
struct Query {
  std::size_t tg_id = 0;
  std::size_t periods = 0;
  Time t = 0;
};

struct QueryTable {
  std::vector<Query> queries;
  std::vector<std::size_t> unit_base;   // per plan: identity-map base slot
  std::vector<std::size_t> idx_offset;  // per plan: npos = identity mapping
  std::vector<std::size_t> idx_pool;    // flat storage for explicit maps

  [[nodiscard]] std::size_t slot(std::size_t i, std::size_t j) const {
    return idx_offset[i] == static_cast<std::size_t>(-1)
               ? unit_base[i] + j
               : idx_pool[idx_offset[i] + j];
  }
};

QueryTable build_query_table(const VerifyPlan& plan) {
  QueryTable out;
  out.unit_base.assign(plan.plans.size(), 0);
  out.idx_offset.assign(plan.plans.size(), static_cast<std::size_t>(-1));
  std::vector<std::pair<std::size_t, std::size_t>> group_keys;  // (tg_id, periods)
  std::vector<std::vector<std::size_t>> group_plans;
  for (std::size_t i = 0; i < plan.plans.size(); ++i) {
    const ConstraintPlan& p = plan.plans[i];
    if (p.fixed) continue;
    const auto key = std::make_pair(p.tg_id, p.periods);
    std::size_t g = group_keys.size();
    for (std::size_t j = 0; j < group_keys.size(); ++j) {
      if (group_keys[j] == key) {
        g = j;
        break;
      }
    }
    if (g == group_keys.size()) {
      group_keys.push_back(key);
      group_plans.emplace_back();
    }
    group_plans[g].push_back(i);
  }
  std::vector<Time> merged;
  std::vector<Time> scratch;
  for (std::size_t g = 0; g < group_keys.size(); ++g) {
    const std::vector<std::size_t>& members = group_plans[g];
    // Pool fast path: members referencing one shared offset list (all
    // async constraints of a group, duplicated periodic constraints)
    // need no merge at all — the pool list is the slot list.
    bool uniform = true;
    for (const std::size_t i : members) {
      if (plan.plans[i].offsets_id != plan.plans[members.front()].offsets_id) {
        uniform = false;
        break;
      }
    }
    std::span<const Time> slots;
    if (uniform) {
      slots = plan.offsets_of(members.front());
    } else {
      // Each plan's offset list is sorted and unique by construction,
      // so the group's slots come from a linear merge, not a sort.
      merged.clear();
      for (const std::size_t i : members) {
        const std::span<const Time> offsets = plan.offsets_of(i);
        if (merged.empty()) {
          merged.assign(offsets.begin(), offsets.end());
          continue;
        }
        if (merged.size() == offsets.size() &&
            std::equal(merged.begin(), merged.end(), offsets.begin())) {
          continue;
        }
        scratch.clear();
        scratch.reserve(merged.size() + offsets.size());
        std::merge(merged.begin(), merged.end(), offsets.begin(), offsets.end(),
                   std::back_inserter(scratch));
        scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
        merged.swap(scratch);
      }
      slots = merged;
    }
    const std::size_t base = out.queries.size();
    for (const Time t : slots) {
      out.queries.push_back(Query{group_keys[g].first, group_keys[g].second, t});
    }
    for (const std::size_t i : members) {
      const std::span<const Time> offsets = plan.offsets_of(i);
      if (offsets.data() == slots.data() && offsets.size() == slots.size()) {
        out.unit_base[i] = base;  // identity mapping, nothing materialized
        continue;
      }
      out.idx_offset[i] = out.idx_pool.size();
      std::size_t pos = 0;  // both lists sorted: a single forward walk
      for (const Time t : offsets) {
        while (slots[pos] < t) ++pos;
        out.idx_pool.push_back(base + pos);
      }
    }
  }
  return out;
}

// Reduces per-query finishes into the report with commutative
// operations (max / conjunction), so verdicts are independent of which
// worker answered which unit. `fixed_of(i)` may pre-empt a constraint,
// `finish_of(i, j)` yields the j-th offset's finish (kInf = none), and
// `include(i, j)` filters offsets (the incremental path drops the
// edited window; full verification includes everything).
template <typename FixedFn, typename FinishFn, typename IncludeFn>
FeasibilityReport reduce_report(const VerifyPlan& plan, const GraphModel& model,
                                FixedFn&& fixed_of, FinishFn&& finish_of,
                                IncludeFn&& include) {
  FeasibilityReport report;
  report.feasible = true;
  for (std::size_t i = 0; i < plan.plans.size(); ++i) {
    ConstraintVerdict verdict;
    if (const auto fixed = fixed_of(i)) {
      verdict = *fixed;
    } else {
      verdict.constraint = i;
      const TimingConstraint& c = model.constraint(i);
      const std::span<const Time> offsets = plan.offsets_of(i);
      if (c.periodic()) {
        bool all_met = true;
        for (std::size_t j = 0; j < offsets.size(); ++j) {
          if (!include(i, j)) continue;
          const Time finish = finish_of(i, j);
          if (finish == kInf || finish > offsets[j] + c.deadline) all_met = false;
        }
        verdict.satisfied = all_met;
      } else {
        std::optional<Time> worst;
        bool any_missing = false;
        for (std::size_t j = 0; j < offsets.size(); ++j) {
          if (!include(i, j)) continue;
          const Time finish = finish_of(i, j);
          if (finish == kInf) {
            any_missing = true;
          } else {
            const Time lag = finish - offsets[j];
            if (!worst || lag > *worst) worst = lag;
          }
        }
        verdict.latency = any_missing ? std::nullopt : worst;
        verdict.satisfied =
            verdict.latency.has_value() && *verdict.latency <= c.deadline;
      }
    }
    report.feasible = report.feasible && verdict.satisfied;
    report.verdicts.push_back(verdict);
  }
  return report;
}

// Full reduce over a memoized finish table (serial and parallel paths).
FeasibilityReport reduce_full(const VerifyPlan& plan, const QueryTable& table,
                              const std::vector<Time>& memo, const GraphModel& model) {
  return reduce_report(
      plan, model,
      [&](std::size_t i) { return plan.plans[i].fixed; },
      [&](std::size_t i, std::size_t j) { return memo[table.slot(i, j)]; },
      [](std::size_t, std::size_t) { return true; });
}

void fill_stats(VerifyStats* stats, const VerifyPlan& plan, const QueryTable& table,
                const KernelCounters& counters, std::size_t threads_used,
                std::size_t arena_peak) {
  if (stats == nullptr) return;
  stats->embedding_queries = table.queries.size();
  stats->memo_hits = plan.work_units - table.queries.size();
  stats->work_units = plan.work_units;
  stats->index_seeks = counters.index_seeks;
  stats->incremental_hits = 0;
  stats->arena_reuses = counters.arena_reuses;
  stats->bitset_skips = counters.bitset_skips;
  stats->arena_bytes_peak = arena_peak;
  stats->threads_used = threads_used;
}

// A report signalling cooperative cancellation: no verdicts, not
// feasible, and never confusable with a real INFEASIBLE answer.
FeasibilityReport cancelled_report() {
  FeasibilityReport report;
  report.feasible = false;
  report.cancelled = true;
  return report;
}

bool cancel_requested(const std::atomic<bool>* cancel,
                      std::atomic<std::uint64_t>* progress = nullptr) {
  if (progress != nullptr) progress->fetch_add(1, std::memory_order_relaxed);
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

// Indexed path: one shared read-only UnrollIndex and the query table
// cut into contiguous parts, each filling its own memo slots. A part
// sweeps its queries like one serial pass: one kernel per (tg_id,
// periods) group segment, all backed by one bump arena that resets at
// group switches, so each kernel re-lands on the same warm block. As
// parts are contiguous, each sweeps its group segments in ascending
// window order and the kernels' monotone seek hints amortize exactly as
// in a single pass. (A shuffled deal gives every part a strided
// subsequence whose hint walks re-cover the gaps.) The parts follow the
// requested n_threads, never the host, and every query is pure, so
// results and stats do not depend on which thread ran which part.
FeasibilityReport verify_indexed(const StaticSchedule& sched, const GraphModel& model,
                                 const VerifyPlan& plan, std::size_t n_threads,
                                 VerifyStats* stats, const std::atomic<bool>* cancel,
                                 std::atomic<std::uint64_t>* progress) {
  const QueryTable table = build_query_table(plan);
  const std::size_t n_queries = table.queries.size();
  std::vector<Time> memo(n_queries, kInf);
  KernelCounters counters;
  std::size_t arena_peak = 0;
  std::atomic<bool> abandoned{false};
  if (n_queries != 0) {
    const UnrollIndex index(sched, plan.max_periods);
    const std::size_t n_parts = n_threads <= 1 ? 1 : std::min(n_queries, 4 * n_threads);
    const std::size_t base = n_queries / n_parts;
    const std::size_t extra = n_queries % n_parts;
    std::vector<KernelCounters> part_counters(n_parts);
    std::vector<std::size_t> part_peaks(n_parts, 0);
    const auto run_part = [&](std::size_t pi) {
      const std::size_t begin = pi * base + std::min(pi, extra);
      const std::size_t end = begin + base + (pi < extra ? 1 : 0);
      util::Arena arena;
      std::optional<EmbeddingKernel> kernel;
      std::size_t cur_tg = UnrollIndex::npos;
      std::size_t cur_periods = 0;
      for (std::size_t q = begin; q < end; ++q) {
        if (((q - begin) & 63) == 0 && cancel_requested(cancel, progress)) {
          abandoned = true;
          break;
        }
        const Query& query = table.queries[q];
        if (!kernel || query.tg_id != cur_tg || query.periods != cur_periods) {
          if (kernel) {
            part_counters[pi] += kernel->counters();
            kernel.reset();  // before the arena reset: its scratch dies with it
            arena.reset();
          }
          kernel.emplace(*plan.tg_of_id[query.tg_id], index, query.periods, &arena);
          cur_tg = query.tg_id;
          cur_periods = query.periods;
        }
        const auto finish = kernel->finish_at(query.t);
        memo[q] = finish ? *finish : kInf;
      }
      if (kernel) part_counters[pi] += kernel->counters();
      part_peaks[pi] = arena.bytes_peak();
    };
    util::parallel_for(n_parts, util::resolve_threads(n_threads), run_part);
    for (const KernelCounters& c : part_counters) counters += c;
    for (const std::size_t peak : part_peaks) arena_peak = std::max(arena_peak, peak);
  }
  // A part that saw the cancel flag left its memo slots unanswered, so
  // the table cannot be reduced to a trustworthy verdict.
  if (abandoned) return cancelled_report();
  fill_stats(stats, plan, table, counters, n_threads, arena_peak);
  return reduce_full(plan, table, memo, model);
}

}  // namespace

FeasibilityReport verify_schedule(const StaticSchedule& sched, const GraphModel& model) {
  return verify_schedule(sched, model, VerifyOptions{});
}

FeasibilityReport verify_schedule(const StaticSchedule& sched, const GraphModel& model,
                                  const VerifyOptions& options) {
  if (options.flat_reference) {
    if (options.stats != nullptr) {
      *options.stats = VerifyStats{};
      options.stats->threads_used = 1;
    }
    return verify_flat(sched, model);
  }
  const VerifyPlan plan = build_verify_plan(sched, model);
  std::size_t n_threads = options.n_threads;
  if (n_threads == 0) {
    // Small-work cutoff: fanning out a tiny plan costs more than it
    // saves, as does any fan-out on a single-core host, so auto mode
    // stays serial there.
    const std::size_t hw = util::resolve_threads(0);
    n_threads = (hw <= 1 || plan.work_units < serial_parallel_cutoff()) ? 1 : hw;
  }
  return verify_indexed(sched, model, plan, n_threads, options.stats, options.cancel,
                        options.progress);
}

std::size_t serial_parallel_cutoff() { return 4096; }

// ---------------------------------------------------------------------------
// IncrementalVerifier

struct IncrementalVerifier::Impl {
  VerifyPlan plan;
  QueryTable table;
  UnrollIndex index;
  std::vector<CachedQuery> memo;  // per query: finish + witness assignment
  // Kernel scratch, warm across the session's drop probes: reset at the
  // start of each verify_drop / baseline rebuild, never mid-call.
  util::Arena arena;

  // Pending candidate state (valid between verify_drop and commit_drop).
  bool pending = false;
  StaticSchedule candidate;
  std::size_t dropped_base = 0;  // dropped op's index within one period
  ElementId dropped_elem = 0;
  Time dropped_offset = 0;  // the window begin that disappears (start + 1)
  std::unordered_map<std::size_t, CachedQuery> overrides;  // re-queried slots
  std::vector<char> force_unsat;  // per constraint: coverage lost
  FeasibilityReport candidate_report;
};

namespace {

// Fingerprints per tg_id, for matching query slots across plan rebuilds
// (tg ids themselves can shift when a constraint turns fixed).
std::vector<std::string> plan_fingerprints(const VerifyPlan& plan) {
  std::vector<std::string> out;
  out.reserve(plan.tg_of_id.size());
  for (const TaskGraph* tg : plan.tg_of_id) out.push_back(task_graph_fingerprint(*tg));
  return out;
}

}  // namespace

IncrementalVerifier::IncrementalVerifier(const GraphModel& model) : model_(&model) {}

void IncrementalVerifier::rebuild_baseline(const StaticSchedule& sched) {
  auto impl = std::make_shared<Impl>();
  impl->plan = build_verify_plan(sched, *model_);
  impl->table = build_query_table(impl->plan);
  impl->memo.assign(impl->table.queries.size(), CachedQuery{});
  KernelCounters counters;
  if (!impl->table.queries.empty()) {
    impl->index = UnrollIndex(sched, impl->plan.max_periods);
    std::optional<EmbeddingKernel> kernel;
    std::size_t cur_tg = UnrollIndex::npos;
    std::size_t cur_periods = 0;
    for (std::size_t q = 0; q < impl->table.queries.size(); ++q) {
      const Query& query = impl->table.queries[q];
      if (!kernel || query.tg_id != cur_tg || query.periods != cur_periods) {
        if (kernel) {
          counters += kernel->counters();
          kernel.reset();
          impl->arena.reset();
        }
        kernel.emplace(*impl->plan.tg_of_id[query.tg_id], impl->index, query.periods,
                       &impl->arena);
        cur_tg = query.tg_id;
        cur_periods = query.periods;
      }
      auto witness = kernel->witness_at(query.t);
      if (witness) {
        impl->memo[q] = CachedQuery{witness->finish, std::move(witness->assignment)};
      } else {
        impl->memo[q] = CachedQuery{kInf, {}};
      }
    }
    if (kernel) counters += kernel->counters();
  }
  stats_.embedding_queries += impl->table.queries.size();
  stats_.memo_hits += impl->plan.work_units - impl->table.queries.size();
  stats_.work_units += impl->plan.work_units;
  stats_.index_seeks += counters.index_seeks;
  stats_.arena_reuses += counters.arena_reuses;
  stats_.bitset_skips += counters.bitset_skips;
  stats_.arena_bytes_peak = std::max(stats_.arena_bytes_peak, impl->arena.bytes_peak());
  stats_.threads_used = 1;
  report_ = reduce_report(
      impl->plan, *model_, [&](std::size_t i) { return impl->plan.plans[i].fixed; },
      [&](std::size_t i, std::size_t j) {
        return impl->memo[impl->table.slot(i, j)].finish;
      },
      [](std::size_t, std::size_t) { return true; });
  committed_ = sched;
  impl_ = std::move(impl);
}

const FeasibilityReport& IncrementalVerifier::verify(const StaticSchedule& sched) {
  rebuild_baseline(sched);
  return report_;
}

const FeasibilityReport& IncrementalVerifier::verify_drop(
    const StaticSchedule& candidate, std::size_t entry) {
  if (!impl_) throw std::logic_error("IncrementalVerifier::verify_drop before verify");
  const auto& entries = committed_.entries();
  if (entry >= entries.size() || entries[entry].elem == kIdleEntry) {
    throw std::invalid_argument("verify_drop: entry is not an execution");
  }
  if (candidate.length() != committed_.length()) {
    throw std::invalid_argument("verify_drop: candidate changes the schedule length");
  }
  Impl& im = *impl_;
  im.pending = false;
  im.overrides.clear();
  im.force_unsat.assign(im.plan.plans.size(), 0);
  im.arena.reset();  // probe kernels below re-land on the warm block

  std::size_t base = 0;
  for (std::size_t i = 0; i < entry; ++i) {
    if (entries[i].elem != kIdleEntry) ++base;
  }
  im.dropped_base = base;
  im.dropped_elem = entries[entry].elem;
  const std::vector<ScheduledOp> committed_ops = committed_.ops();
  im.dropped_offset = committed_ops.at(base).start + 1;

  std::size_t remaining = 0;
  for (const ScheduledOp& op : committed_ops) {
    if (op.elem == im.dropped_elem) ++remaining;
  }
  --remaining;  // the dropped execution itself
  const bool coverage_lost = remaining == 0;

  auto tg_uses_elem = [&](const TaskGraph& tg) {
    const auto& labels = tg.labels();
    return std::find(labels.begin(), labels.end(), im.dropped_elem) != labels.end();
  };
  // A task graph whose labels avoid the dropped element sees the exact
  // same executions in the candidate — every one of its windows is a
  // cache hit. If the last occurrence of the element went away, every
  // constraint over it fails outright, again with no queries.
  std::vector<char> tg_affected(im.plan.tg_of_id.size(), 0);
  for (std::size_t g = 0; g < im.plan.tg_of_id.size(); ++g) {
    tg_affected[g] = !coverage_lost && tg_uses_elem(*im.plan.tg_of_id[g]) ? 1 : 0;
  }
  if (coverage_lost) {
    for (std::size_t i = 0; i < im.plan.plans.size(); ++i) {
      if (!im.plan.plans[i].fixed &&
          tg_uses_elem(*im.plan.tg_of_id[im.plan.plans[i].tg_id])) {
        im.force_unsat[i] = 1;
      }
    }
  }

  // Re-query only windows whose cached witness used the dropped
  // execution (in any unrolled cycle). Dropping shrinks availability,
  // so a witness that avoided it stays optimal and an embedding-free
  // window stays embedding-free — those are served from the cache.
  std::size_t hits = 0;
  std::size_t recomputed = 0;
  KernelCounters counters;
  std::optional<UnrollIndex> cand_index;
  std::map<std::pair<std::size_t, std::size_t>, EmbeddingKernel> kernels;
  const std::size_t opp = im.index.ops_per_period();
  for (std::size_t q = 0; q < im.table.queries.size(); ++q) {
    const Query& query = im.table.queries[q];
    if (!tg_affected[query.tg_id]) {
      ++hits;
      continue;
    }
    const CachedQuery& cached = im.memo[q];
    if (cached.finish == kInf) {
      ++hits;
      continue;
    }
    bool uses_dropped = false;
    for (const std::size_t idx : cached.assignment) {
      if (idx % opp == im.dropped_base) {
        uses_dropped = true;
        break;
      }
    }
    if (!uses_dropped) {
      ++hits;
      continue;
    }
    if (!cand_index) cand_index.emplace(candidate, im.plan.max_periods);
    const auto key = std::make_pair(query.tg_id, query.periods);
    auto it = kernels.find(key);
    if (it == kernels.end()) {
      it = kernels
               .emplace(std::piecewise_construct, std::forward_as_tuple(key),
                        std::forward_as_tuple(*im.plan.tg_of_id[query.tg_id],
                                              *cand_index, query.periods, &im.arena))
               .first;
    }
    auto witness = it->second.witness_at(query.t);
    if (witness) {
      im.overrides[q] = CachedQuery{witness->finish, std::move(witness->assignment)};
    } else {
      im.overrides[q] = CachedQuery{kInf, {}};
    }
    ++recomputed;
  }
  for (const auto& [key, kernel] : kernels) counters += kernel.counters();

  stats_.incremental_hits += hits;
  stats_.embedding_queries += recomputed;
  stats_.work_units += hits + recomputed;
  stats_.index_seeks += counters.index_seeks;
  stats_.arena_reuses += counters.arena_reuses;
  stats_.bitset_skips += counters.bitset_skips;
  stats_.arena_bytes_peak = std::max(stats_.arena_bytes_peak, im.arena.bytes_peak());

  im.candidate_report = reduce_report(
      im.plan, *model_,
      [&](std::size_t i) -> std::optional<ConstraintVerdict> {
        if (im.plan.plans[i].fixed) return im.plan.plans[i].fixed;
        if (im.force_unsat[i]) {
          ConstraintVerdict verdict;
          verdict.constraint = i;
          verdict.satisfied = false;
          return verdict;
        }
        return std::nullopt;
      },
      [&](std::size_t i, std::size_t j) {
        const std::size_t q = im.table.slot(i, j);
        const auto it = im.overrides.find(q);
        return it != im.overrides.end() ? it->second.finish : im.memo[q].finish;
      },
      [&](std::size_t i, std::size_t j) {
        // The dropped execution's window begin disappears from the
        // candidate's async offset lists (only lists of label sets that
        // hold the dropped element contain it); periodic invocation
        // instants are schedule-independent.
        return model_->constraint(i).periodic() ||
               im.plan.offsets_of(i)[j] != im.dropped_offset;
      });

  im.pending = true;
  im.candidate = candidate;
  return im.candidate_report;
}

void IncrementalVerifier::commit_drop() {
  if (!impl_ || !impl_->pending) {
    throw std::logic_error("IncrementalVerifier::commit_drop without a candidate");
  }
  Impl& old = *impl_;
  auto next = std::make_shared<Impl>();
  next->plan = build_verify_plan(old.candidate, *model_);
  next->table = build_query_table(next->plan);
  next->memo.assign(next->table.queries.size(), CachedQuery{});

  if (!next->table.queries.empty()) {
    next->index = UnrollIndex(old.candidate, next->plan.max_periods);
    // Carry the cache over: every new query existed in the old table
    // (offsets only shrink: the dropped start leaves the lists that
    // held it and no other), keyed by task-graph fingerprint because tg
    // ids can shift when a constraint turned fixed. Cached witnesses
    // from the old view remap into the shortened period (base indices
    // above the dropped op shift down by one); re-queried slots are
    // already candidate-indexed.
    const std::vector<std::string> old_fp = plan_fingerprints(old.plan);
    const std::vector<std::string> new_fp = plan_fingerprints(next->plan);
    std::map<std::tuple<std::string, std::size_t, Time>, std::size_t> old_slot;
    for (std::size_t q = 0; q < old.table.queries.size(); ++q) {
      const Query& query = old.table.queries[q];
      old_slot.emplace(std::make_tuple(old_fp[query.tg_id], query.periods, query.t), q);
    }
    const std::size_t old_opp = old.index.ops_per_period();
    const std::size_t new_opp = next->index.ops_per_period();
    for (std::size_t nq = 0; nq < next->table.queries.size(); ++nq) {
      const Query& query = next->table.queries[nq];
      const std::size_t oq =
          old_slot.at(std::make_tuple(new_fp[query.tg_id], query.periods, query.t));
      const auto it = old.overrides.find(oq);
      if (it != old.overrides.end()) {
        next->memo[nq] = std::move(it->second);
        continue;
      }
      CachedQuery remapped;
      remapped.finish = old.memo[oq].finish;
      remapped.assignment.reserve(old.memo[oq].assignment.size());
      for (const std::size_t idx : old.memo[oq].assignment) {
        const std::size_t cycle = idx / old_opp;
        const std::size_t base = idx % old_opp;
        remapped.assignment.push_back(cycle * new_opp + base -
                                      (base > old.dropped_base ? 1 : 0));
      }
      next->memo[nq] = std::move(remapped);
    }
  }

  report_ = std::move(old.candidate_report);
  committed_ = std::move(old.candidate);
  impl_ = std::move(next);
}

}  // namespace rtg::core
