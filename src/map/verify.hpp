// verify.hpp — cross-shard (seam) verification of mapped deployments.
//
// A mapped system is verified in two layers:
//
//   1. Per processor, core::verify_schedule checks the shard's local
//      schedule against its projected sub-constraints — the
//      single-processor problem the paper's decomposition reduces to
//      (deploy.hpp drives this).
//   2. Across processors, the seam check (here) measures the exact
//      end-to-end latency of a task graph against the set of cyclic
//      processor schedules plus the communication slot tables: the
//      smallest k such that every window of length >= k contains a
//      distributed execution — ops on their assigned processors, every
//      cross edge riding a message slot that starts after the producer
//      finishes (and after the window opens) and arrives before the
//      consumer starts. This is what proves the local schedules
//      *compose*, not just that each one works in isolation.
//
// A SeamContext holds everything the check needs that depends only on
// the deployment (the common cycle, one core::UnrollIndex per
// processor, the sorted candidate windows), so a deployment's
// constraints share one. Each check is an ascending walk over the
// candidates: the greedy completion from window t places nothing
// before its earliest op start s (a message leaves only after its
// producer finished), so every window in (t, s] has the same
// completion and a smaller latency, and the walk jumps to the first
// candidate after s (FORMALISM §6). The
// `flat_reference` path recomputes everything with independent linear
// scans over materialized unrolled ops, walks the full candidate set
// without jumps — the repo's differential convention — and the two are
// bit-identical, as is the result at any thread count (walk chunks
// depend on the candidate list alone; the reduction is max with
// any-failure short-circuit).
//
// A successful seam check can emit a GlobalWitness — concrete
// (processor, start, finish) rows per task-graph op plus (send, arrive)
// rows per crossing — for the worst window, and check_witness()
// re-validates such a witness against the raw schedules and slot
// tables with no shared code, closing the loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "map/comm_schedule.hpp"

namespace rtg::map {

/// One task-graph op's placement in a distributed execution.
struct WitnessOp {
  core::OpId op = 0;
  ProcId proc = 0;
  Time start = 0;
  Time finish = 0;

  friend bool operator==(const WitnessOp&, const WitnessOp&) = default;
};

/// One crossing edge's message transmission.
struct MessageHop {
  std::size_t message = 0;  ///< index into CommSchedule::messages
  core::OpId producer = 0;  ///< task-graph op that emitted it
  core::OpId consumer = 0;
  Time send = 0;    ///< slot-run start (>= producer finish, >= window)
  Time arrive = 0;  ///< send + transfer duration

  friend bool operator==(const MessageHop&, const MessageHop&) = default;
};

/// A concrete distributed execution for one (worst) window.
struct GlobalWitness {
  Time window_begin = 0;
  Time makespan = 0;  ///< latest finish; latency = makespan - window_begin
  std::vector<WitnessOp> ops;    ///< one per task-graph op, op-id order
  std::vector<MessageHop> hops;  ///< one per crossing edge, edge order

  friend bool operator==(const GlobalWitness&, const GlobalWitness&) = default;
};

/// Seam-check counters, summed over checks. Every counter but
/// threads_used is the same at every thread count.
struct SeamStats {
  /// Candidate windows in the walked lists (one list per check: the
  /// narrowed set on the indexed path, the full set on the flat path).
  std::size_t candidates = 0;
  /// Windows completed. The indexed walk skips the dominated ones, so
  /// this is at most `candidates`; on the flat path it is all of them
  /// (until a failure).
  std::size_t windows = 0;
  std::size_t index_seeks = 0;  ///< UnrollIndex probes (indexed path)
  std::size_t threads_used = 1;

  SeamStats& operator+=(const SeamStats& other) {
    candidates += other.candidates;
    windows += other.windows;
    index_seeks += other.index_seeks;
    threads_used = std::max(threads_used, other.threads_used);
    return *this;
  }
};

struct SeamOptions {
  /// Worker threads for the walk chunks. 0 or 1 = serial; results and
  /// counters (but threads_used) are identical at every count.
  std::size_t n_threads = 1;
  /// Recompute with independent linear scans (no UnrollIndex) over the
  /// full candidate set, without jumps; the monolithic reference for
  /// the differential suite. A SeamContext takes it at construction.
  bool flat_reference = false;
  /// When non-null, receives the witness of the worst window (the
  /// smallest window start among those attaining the latency). Only
  /// written when the latency is finite.
  GlobalWitness* witness = nullptr;
  SeamStats* stats = nullptr;
  const std::atomic<bool>* cancel = nullptr;
  std::atomic<std::uint64_t>* progress = nullptr;
  /// Set to true when the run was abandoned through `cancel` (the
  /// nullopt result then means "unknown", not "infinite").
  bool* cancelled = nullptr;
};

/// The deployment-dependent half of the seam check: the common cycle
/// of every processor schedule and active link, one UnrollIndex (or,
/// on the flat path, one materialized unrolled-op list) per processor,
/// and the sorted candidate windows within one cycle — 0 and every op
/// start + 1 on the indexed path (the only windows that can be
/// undominated); additionally every busy link tick + 1 on the flat
/// path. Built once per (schedules, assignment, comm) and queried per
/// task graph; it keeps references to `assignment` and `comm`, which
/// must outlive it.
class SeamContext {
 public:
  /// `max_ops` is the largest task graph that will be queried: the
  /// index covers its horizon, (2 * max_ops + 2) cycles.
  SeamContext(const std::vector<core::StaticSchedule>& schedules,
              const std::vector<ProcId>& assignment, const CommSchedule& comm,
              std::size_t max_ops, bool flat_reference = false);

  /// Exact end-to-end latency of `tg` (at most `max_ops` ops); nullopt
  /// = infinite (or cancelled, see SeamOptions::cancelled). Exact for
  /// task graphs without repeated labels (greedy completion); may
  /// over-approximate otherwise. Throws std::invalid_argument when `tg`
  /// exceeds `max_ops` or `options.flat_reference` differs from the
  /// context's.
  [[nodiscard]] std::optional<Time> latency(const core::TaskGraph& tg,
                                            const SeamOptions& options = {}) const;

  [[nodiscard]] Time cycle() const { return cycle_; }
  [[nodiscard]] const std::vector<Time>& candidates() const { return candidates_; }

 private:
  struct Proc {
    core::UnrollIndex index;               // indexed path
    std::vector<core::ScheduledOp> flat;   // flat path
    std::size_t ops_per_period = 0;
    Time length = 0;
  };
  struct Query;       // one task graph's placement plan (verify.cpp)
  struct Completion;  // makespan and earliest placement of one window

  // Greedy distributed completion of the query's task graph within the
  // window starting at `t`, reusing `finish` as scratch; nullopt when
  // some op or message cannot be placed. When `witness` is non-null
  // the concrete placement is recorded.
  [[nodiscard]] std::optional<Completion> complete(const Query& query, Time t,
                                                   std::vector<Time>& finish,
                                                   std::size_t& seeks,
                                                   GlobalWitness* witness) const;

  const std::vector<ProcId>* assignment_;
  const CommSchedule* comm_;
  bool flat_;
  std::size_t max_ops_;
  Time cycle_ = 1;
  std::vector<Proc> procs_;
  std::vector<Time> candidates_;
};

/// Exact end-to-end latency of `tg` against the processor schedules and
/// the communication slot tables: SeamContext(schedules, assignment,
/// comm, tg.size(), options.flat_reference).latency(tg, options).
[[nodiscard]] std::optional<Time> distributed_latency(
    const core::TaskGraph& tg, const std::vector<core::StaticSchedule>& schedules,
    const std::vector<ProcId>& assignment, const CommSchedule& comm,
    const SeamOptions& options = {});

/// Independently re-validates a GlobalWitness against the raw schedules
/// and slot tables: every op is a real scheduled execution of its
/// element on its assigned processor; precedence holds (same-processor
/// edges by finish <= start, crossings through a hop whose send is a
/// genuine slot-run start of the right message at or after
/// max(producer finish, window) and whose arrival precedes the
/// consumer); makespan is the latest finish. Returns a diagnostic on
/// the first violation, nullopt when the witness is sound.
[[nodiscard]] std::optional<std::string> check_witness(
    const core::TaskGraph& tg, const std::vector<core::StaticSchedule>& schedules,
    const std::vector<ProcId>& assignment, const CommSchedule& comm,
    const GlobalWitness& witness);

}  // namespace rtg::map
