// latency.hpp — latency analysis of traces and static schedules.
//
// Central definitions from the paper:
//   * An execution trace F has latency k w.r.t. a timing constraint
//     (C, p, d) iff F contains an execution of C in every time interval
//     of length >= k.
//   * A static schedule L has latency k iff the trace obtained by
//     repeating L round-robin ad infinitum has latency k.
//   * L is feasible w.r.t. the asynchronous constraints T_a iff its
//     latency w.r.t. every (C, p, d) in T_a is at most d.
//
// An *execution of C* inside an interval is an embedding: an injective
// map from C's operations to complete executions in the trace, all
// inside the interval, such that for every edge u -> v of C the image
// of u finishes no later than the image of v starts (the output of u is
// transmitted before v runs).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "util/arena.hpp"

namespace rtg::core {

/// Work-unit count below which auto-mode (n_threads == 0) verification
/// stays serial: a fixed 4096, so whether a plan goes parallel depends
/// only on the plan. See docs/PERF.md.
[[nodiscard]] std::size_t serial_parallel_cutoff();

/// Earliest finish time over all embeddings of `tg` into `ops` whose
/// executions all start at or after `window_begin`. `ops` must be
/// sorted by start time and non-overlapping. Returns nullopt when no
/// embedding exists within the given ops.
///
/// Exact for all task graphs: greedy (provably optimal) when no element
/// labels two ops of `tg`, branch-and-bound otherwise.
[[nodiscard]] std::optional<Time> earliest_embedding_finish(
    const TaskGraph& tg, std::span<const ScheduledOp> ops, Time window_begin);

/// True iff the interval [begin, end) of the given op sequence contains
/// a complete execution of `tg` (every execution inside the interval).
[[nodiscard]] bool window_contains_execution(const TaskGraph& tg,
                                             std::span<const ScheduledOp> ops,
                                             Time begin, Time end);

/// An embedding witness: the finish time plus, per task-graph op (in op
/// id order), the index into `ops` of the execution it mapped to.
struct EmbeddingWitness {
  Time finish = 0;
  std::vector<std::size_t> assignment;
};

/// Like earliest_embedding_finish, but returns the witness and supports
/// an exclusion mask: ops with used[i] == true are unavailable (pass an
/// empty span for no exclusions).
[[nodiscard]] std::optional<EmbeddingWitness> find_earliest_embedding(
    const TaskGraph& tg, std::span<const ScheduledOp> ops, Time window_begin,
    const std::vector<bool>& used = {});

/// Flattens `periods` consecutive repetitions of the schedule into an
/// absolute-time op sequence (period r's ops shifted by r * length).
[[nodiscard]] std::vector<ScheduledOp> unroll_ops(const StaticSchedule& sched,
                                                  std::size_t periods);

/// An indexed *virtual* unroll of a static schedule: one period of ops
/// is materialized, cycle k's copies are derived arithmetically
/// (start + k * period), and a per-element index maps (element, time)
/// to the next execution of that element in O(log occurrences) instead
/// of a linear scan over every op. Global op index i corresponds
/// exactly to unroll_ops(sched, periods)[i], so witness assignments
/// against this view are valid positions into the public unrolled-op
/// sequence.
///
/// Layout: the base period is stored as parallel columns (start /
/// duration / element); per-element occurrence rows (CSR over base
/// positions) carry their own contiguous start column for the binary
/// searches. Two row gates resolve the common probes before any binary
/// search is paid: a window at or before the row's first start takes
/// the row head, one past its last start wraps to the next cycle's head.
/// The next occurrence of an op is one rank lookup (occurrence_rank).
class UnrollIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  UnrollIndex() = default;
  UnrollIndex(const StaticSchedule& sched, std::size_t periods);

  [[nodiscard]] std::size_t periods() const { return periods_; }
  [[nodiscard]] std::size_t ops_per_period() const { return elems_.size(); }
  [[nodiscard]] std::size_t size() const { return elems_.size() * periods_; }
  [[nodiscard]] Time period() const { return period_; }

  /// The op at global index `idx`; equals unroll_ops(sched, periods)[idx].
  [[nodiscard]] ScheduledOp op(std::size_t idx) const {
    const std::size_t b = idx % elems_.size();
    const Time shift = static_cast<Time>(idx / elems_.size()) * period_;
    return ScheduledOp{base_elem(b), base_start(b) + shift, base_duration(b)};
  }

  /// Executions of `e` within one period.
  [[nodiscard]] std::size_t occurrence_count(ElementId e) const;

  /// Base-op indices of `e`'s executions within one period, start order.
  [[nodiscard]] std::span<const std::size_t> occurrences(ElementId e) const;

  /// Column accessors for the base-period op at base index `idx`
  /// (idx < ops_per_period()).
  [[nodiscard]] Time base_start(std::size_t idx) const { return starts_[idx]; }
  [[nodiscard]] Time base_duration(std::size_t idx) const { return durations_[idx]; }
  [[nodiscard]] ElementId base_elem(std::size_t idx) const { return elems_[idx]; }
  /// The base-period op at base index `idx`, assembled from the columns.
  [[nodiscard]] ScheduledOp base_op(std::size_t idx) const {
    return ScheduledOp{base_elem(idx), base_start(idx), base_duration(idx)};
  }

  /// Rank of base op `idx` within its element's occurrence row.
  [[nodiscard]] std::size_t occurrence_rank(std::size_t idx) const {
    return occ_rank_[idx];
  }

  /// Global index of the first execution of `e` with start >= t and
  /// index < limit, or npos. `limit` caps the searchable op prefix so a
  /// query over k periods of a longer index behaves exactly like a
  /// query over unroll_ops(sched, k). When `row_skips` is non-null it
  /// is bumped for every call the first-/last-start row gates resolved
  /// without a binary search (KernelCounters::bitset_skips).
  [[nodiscard]] std::size_t first_at_or_after(ElementId e, Time t, std::size_t limit,
                                              std::size_t* row_skips = nullptr) const;

  /// Global index of the next execution (start order) of the same
  /// element as op `idx`, below `limit`; npos when exhausted.
  [[nodiscard]] std::size_t next_occurrence(std::size_t idx, std::size_t limit) const;

 private:
  // SoA columns of one period, sorted by start (idle entries dropped).
  std::vector<Time> starts_;
  std::vector<Time> durations_;
  std::vector<ElementId> elems_;

  Time period_ = 0;
  std::size_t periods_ = 0;
  std::size_t elem_count_ = 0;

  // Per-element occurrence rows (CSR over base positions, start order)
  // with a parallel contiguous start column for the binary searches.
  std::vector<std::size_t> occ_offsets_;  // elem -> [begin, end) row bounds
  std::vector<std::size_t> occ_idx_;      // base indices
  std::vector<Time> occ_starts_;          // starts_[occ_idx_[i]]
  std::vector<std::size_t> occ_rank_;     // per base op: rank within its row
};

/// Counters of one EmbeddingKernel; merged into VerifyStats.
struct KernelCounters {
  /// Embedding queries answered.
  std::size_t queries = 0;
  /// Index probes (first_at_or_after + next_occurrence calls).
  std::size_t index_seeks = 0;
  /// Queries that reused the kernel's scratch arena (no allocation).
  std::size_t arena_reuses = 0;
  /// Index seeks the first-/last-start row gates resolved without
  /// paying a binary search. The name is the one `--stats` and
  /// perfbench report.
  std::size_t bitset_skips = 0;

  KernelCounters& operator+=(const KernelCounters& o) {
    queries += o.queries;
    index_seeks += o.index_seeks;
    arena_reuses += o.arena_reuses;
    bitset_skips += o.bitset_skips;
    return *this;
  }
};

/// The indexed embedding kernel: binds one task graph to an UnrollIndex
/// and answers earliest-finish embedding queries for arbitrary window
/// begins. Per query each task-graph op costs O(log occurrences) index
/// seeks over *its element's* executions only, instead of a linear scan
/// over every unrolled op. The topological order and all per-query
/// buffers (finish/chosen/used/witness) live in a bump arena — a shared
/// one handed in by the verify engines (kernels of one worker reuse the
/// same warm blocks) or a kernel-private one — so repeated window
/// queries allocate nothing.
///
/// Results are bit-identical to the flat-scan reference
/// (find_earliest_embedding over unroll_ops(sched, k)): both kernels
/// enumerate candidate executions of an element in start order, so the
/// greedy picks and the branch-and-bound improvement sequence — and
/// therefore finishes *and* witness assignments — coincide.
class EmbeddingKernel {
 public:
  /// Binds `tg` to `index`. Queries see only the first `periods_limit`
  /// periods of the index (0 = all of it). Scratch comes from `arena`
  /// when given (it must outlive the kernel and not be reset while the
  /// kernel is alive), else from a kernel-private arena. Both referents
  /// must outlive the kernel.
  EmbeddingKernel(const TaskGraph& tg, const UnrollIndex& index,
                  std::size_t periods_limit = 0, util::Arena* arena = nullptr);

  EmbeddingKernel(const EmbeddingKernel&) = delete;
  EmbeddingKernel& operator=(const EmbeddingKernel&) = delete;

  /// Earliest finish over embeddings whose executions start at or after
  /// `window_begin`; nullopt when none exists within the op prefix.
  [[nodiscard]] std::optional<Time> finish_at(Time window_begin);

  /// Like finish_at but returns the witness; `excluded` (indexed by
  /// global op index, empty = none) marks unavailable executions.
  [[nodiscard]] std::optional<EmbeddingWitness> witness_at(
      Time window_begin, const std::vector<bool>& excluded = {});

  /// Earliest start over the executions of the embedding the last
  /// successful finish_at / witness_at returned (its window begin for
  /// an empty task graph). Every window begin in (window_begin, start]
  /// has the same earliest finish (FORMALISM §3), which is what lets the
  /// verify walks skip them.
  [[nodiscard]] Time earliest_start() const;

  [[nodiscard]] const KernelCounters& counters() const { return counters_; }

 private:
  [[nodiscard]] bool solve(Time window_begin, const std::vector<bool>& excluded);
  void bnb_rec(std::size_t k, Time makespan, Time window_begin,
               const std::vector<bool>& excluded);

  // BnB availability bitset over the visible op prefix, one bit per
  // global index. Backtracking restores every set bit, so the words
  // stay all-zero between queries — the reset the old vector<bool>
  // scratch paid per kernel is now a single zero-fill at first use,
  // 64x smaller and usually on warm arena memory.
  [[nodiscard]] bool used_test(std::size_t idx) const {
    return (used_words_[idx >> 6] >> (idx & 63)) & 1u;
  }
  void used_flip(std::size_t idx) { used_words_[idx >> 6] ^= 1ull << (idx & 63); }

  const TaskGraph* tg_ = nullptr;
  const UnrollIndex* index_ = nullptr;
  std::size_t limit_ = 0;  // op-count prefix visible to queries
  bool repeated_ = false;
  std::vector<OpId> topo_;  // cached once per kernel

  // Monotone seek hints (greedy, no-exclusion queries only): per op,
  // the execution chosen by the previous query — a sound resume point
  // while window begins ascend, making a sweep's seeks amortized O(1).
  // The cursor is kept decomposed as (cycle, rank within the element's
  // occurrence row) with cached start/finish times, so the steady-state
  // advance is pure add/compare arithmetic — no division. A walk that
  // exceeds a fixed step bound (degenerate sweep order) bails out to a
  // fresh binary-search probe, which lands on the identical pick.
  struct SeekHint {
    std::size_t idx = UnrollIndex::npos;  // flat unrolled index
    std::size_t cycle = 0;
    std::size_t rank = 0;
    Time start = 0;
    Time finish = 0;
  };
  void seed_hint(SeekHint& h, ElementId e, Time ready);

  // Scratch: raw pointers into arena_ (the caller's arena or own_arena_).
  util::Arena own_arena_;
  util::Arena* arena_ = nullptr;
  Time* finish_ = nullptr;                  // per task-graph op
  std::size_t* chosen_ = nullptr;           // per task-graph op, current path
  std::size_t* best_assignment_ = nullptr;  // per task-graph op, best path
  SeekHint* hint_ = nullptr;                // per task-graph op
  std::uint64_t* used_words_ = nullptr;     // BnB only, lazily sized

  Time last_begin_ = 0;
  bool hints_primed_ = false;
  Time best_ = 0;
  Time result_finish_ = 0;
  Time result_start_ = 0;  // greedy path; BnB derives it from best_assignment_
  bool warm_ = false;

  KernelCounters counters_;
};

/// Decodes a raw slot trace into complete executions: each maximal run
/// of element e splits into floor(run / weight(e)) back-to-back
/// executions; a trailing partial run is dropped. Slots with unknown
/// element ids throw std::invalid_argument.
[[nodiscard]] std::vector<ScheduledOp> ops_from_trace(const sim::ExecutionTrace& trace,
                                                      const CommGraph& comm);

/// Latency of a *finite* trace prefix w.r.t. `tg`: the smallest k such
/// that every window [t, t+k] fully inside [0, horizon] contains an
/// execution of `tg`. Unlike schedule_latency there is no cyclic
/// extension — this measures what an observed trace (e.g. from the
/// process-model simulator) actually guaranteed over its span.
/// Returns nullopt when no k <= horizon works (some execution-free
/// window of every length exists, e.g. an element never ran).
[[nodiscard]] std::optional<Time> finite_trace_latency(std::span<const ScheduledOp> ops,
                                                       Time horizon,
                                                       const TaskGraph& tg);

/// Latency of the cyclic schedule w.r.t. task graph `tg`: the smallest
/// k such that every window of length >= k of the round-robin trace
/// contains an execution of `tg`. Returns nullopt when the latency is
/// infinite (no such k), e.g. when an element of `tg` never appears.
[[nodiscard]] std::optional<Time> schedule_latency(const StaticSchedule& sched,
                                                   const TaskGraph& tg);

/// True iff the periodic constraint (tg, p, d) is satisfied by the
/// cyclic schedule: for every invocation instant t = 0, p, 2p, ... the
/// window [t, t+d] contains an execution of `tg`. Checked exactly over
/// one combined cycle lcm(schedule length, p).
[[nodiscard]] bool periodic_satisfied(const StaticSchedule& sched, const TaskGraph& tg,
                                      Time p, Time d);

/// Per-constraint verification result.
struct ConstraintVerdict {
  std::size_t constraint = 0;
  /// For asynchronous constraints: the measured latency (nullopt =
  /// infinite). For periodic constraints: unset.
  std::optional<Time> latency;
  bool satisfied = false;

  friend bool operator==(const ConstraintVerdict&, const ConstraintVerdict&) = default;
};

/// Full feasibility report for a schedule against a model: latency <= d
/// for every asynchronous constraint and invocation-window containment
/// for every periodic constraint.
struct FeasibilityReport {
  std::vector<ConstraintVerdict> verdicts;
  bool feasible = false;
  /// True when verification was abandoned early through
  /// VerifyOptions::cancel. A cancelled report carries no verdicts and
  /// must never be treated as an INFEASIBLE answer.
  bool cancelled = false;

  friend bool operator==(const FeasibilityReport&, const FeasibilityReport&) = default;
};

/// Counters filled by the verification engine. They depend on the plan
/// alone, so every one but threads_used is the same at every thread
/// count; the flat-scan reference path leaves everything but
/// threads_used zero.
struct VerifyStats {
  /// Embedding queries actually computed.
  std::size_t embedding_queries = 0;
  /// Work units answered without a query of their own: windows a walk
  /// skipped because an earlier query's embedding dominates them
  /// (FORMALISM §3), and constraints sharing a walk with a structurally
  /// identical one (the IncrementalVerifier: windows served from its
  /// memo table). Always work_units - embedding_queries.
  std::size_t memo_hits = 0;
  /// Work units: per async constraint its jump points |J_C|, per
  /// periodic constraint its invocations over lcm(P, p).
  std::size_t work_units = 0;
  /// UnrollIndex occurrence probes issued by the embedding kernels.
  std::size_t index_seeks = 0;
  /// Windows answered from an IncrementalVerifier witness cache.
  std::size_t incremental_hits = 0;
  /// Kernel queries that reused a warm scratch arena (no allocation).
  std::size_t arena_reuses = 0;
  /// Index seeks resolved by a first-/last-start row gate without a
  /// binary search (summed across kernels and threads; see
  /// KernelCounters::bitset_skips).
  std::size_t bitset_skips = 0;
  /// High-water mark of live scratch-arena bytes, maxed across workers.
  std::size_t arena_bytes_peak = 0;
  /// Thread count the walk chunks ran with (1 = serial path, including
  /// the auto mode's small-work / single-core fallback).
  std::size_t threads_used = 0;

  VerifyStats& operator+=(const VerifyStats& other) {
    embedding_queries += other.embedding_queries;
    memo_hits += other.memo_hits;
    work_units += other.work_units;
    index_seeks += other.index_seeks;
    incremental_hits += other.incremental_hits;
    arena_reuses += other.arena_reuses;
    bitset_skips += other.bitset_skips;
    arena_bytes_peak = std::max(arena_bytes_peak, other.arena_bytes_peak);
    threads_used = std::max(threads_used, other.threads_used);
    return *this;
  }
};

struct VerifyOptions {
  /// Threads for the walk chunks. Each walk (the constraints over one
  /// task graph and op prefix) is cut into chunks whose boundaries
  /// depend on the plan alone; the chunks run on the process-wide
  /// compute pool (util::parallel_for), at most
  /// util::resolve_threads(n_threads) at a time, the caller included.
  /// 0 = auto: the hardware concurrency, except that single-core hosts
  /// and plans below serial_parallel_cutoff() work units run serially.
  /// 1 = every chunk in turn on the calling thread.
  std::size_t n_threads = 0;
  /// Optional engine counters.
  VerifyStats* stats = nullptr;
  /// Testing-only: run the pre-index flat-scan serial verifier (linear
  /// scans over materialized unroll_ops). Pins the legacy behavior for
  /// the differential suite; n_threads is ignored.
  bool flat_reference = false;
  /// Cooperative cancellation: when non-null and set, the engine stops
  /// at its next poll (every 64 queries of a walk chunk) and returns a
  /// report with cancelled = true (and no verdicts). The service layer
  /// points this at a per-job flag to enforce deadlines on long
  /// verifications.
  const std::atomic<bool>* cancel = nullptr;
  /// Liveness beacon: when non-null the engine bumps it (relaxed) at
  /// every cancellation poll, so a watchdog can tell a slow-but-alive
  /// verification (counter advancing) from a wedged one (frozen).
  std::atomic<std::uint64_t>* progress = nullptr;
};

/// Verifies with the default options (auto thread count). Each group of
/// constraints over one task graph is an ascending walk over its
/// candidate windows that queries only the windows no earlier embedding
/// dominates (FORMALISM §3). The result is bit-identical at every
/// thread count: walk chunks are pure, their boundaries depend on the
/// plan alone, and their lags are reduced with commutative operations
/// (max / conjunction).
[[nodiscard]] FeasibilityReport verify_schedule(const StaticSchedule& sched,
                                                const GraphModel& model);

[[nodiscard]] FeasibilityReport verify_schedule(const StaticSchedule& sched,
                                                const GraphModel& model,
                                                const VerifyOptions& options);

/// Incremental re-verification session for schedule edit loops
/// (optimize's drop/shave passes, the heuristic's refinement).
///
/// The session holds a *committed* baseline schedule plus, per
/// (constraint, window-offset) embedding query, the cached finish and
/// witness assignment. verify_drop() checks a candidate obtained from
/// the baseline by replacing one execution entry with idle time of the
/// same length — the edit optimize's compaction performs, which keeps
/// every other execution's slot times. Because dropping an execution
/// only *shrinks* availability, a cached witness that never mapped onto
/// the dropped execution (in any unrolled cycle) stays optimal, and a
/// window with no embedding stays embedding-free; only windows whose
/// witness actually used the dropped execution are re-queried. The
/// produced report is bit-identical to verify_schedule(candidate).
///
/// Reports for rejected candidates leave the baseline untouched;
/// commit_drop() promotes the last candidate, remapping cached witness
/// indices into the shortened unrolled-op view.
class IncrementalVerifier {
 public:
  explicit IncrementalVerifier(const GraphModel& model);

  /// Full verification of `sched`; commits it as the baseline and
  /// primes the witness cache. Invalidates any pending candidate.
  const FeasibilityReport& verify(const StaticSchedule& sched);

  /// Verifies `candidate`, which must equal the baseline with execution
  /// entry `entry` (an index into the baseline's entries()) replaced by
  /// idle time of equal duration. Throws std::invalid_argument when
  /// `entry` is not an execution or the lengths disagree.
  const FeasibilityReport& verify_drop(const StaticSchedule& candidate,
                                       std::size_t entry);

  /// Commits the last verify_drop candidate as the new baseline.
  /// Throws std::logic_error when no candidate is pending.
  void commit_drop();

  /// Report for the committed baseline.
  [[nodiscard]] const FeasibilityReport& report() const { return report_; }

  /// Cumulative engine counters across the session (incremental_hits
  /// counts windows served from the witness cache).
  [[nodiscard]] const VerifyStats& stats() const { return stats_; }

 private:
  struct CachedQuery {
    Time finish = 0;  // kInfTime = no embedding
    std::vector<std::size_t> assignment;
  };
  struct Impl;

  void rebuild_baseline(const StaticSchedule& sched);

  const GraphModel* model_ = nullptr;
  std::shared_ptr<Impl> impl_;  // plan + query table + index + memo
  StaticSchedule committed_;
  FeasibilityReport report_;
  VerifyStats stats_;
};

}  // namespace rtg::core
