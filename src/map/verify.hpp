// verify.hpp — cross-shard (seam) verification of mapped deployments.
//
// A mapped system is verified in two layers:
//
//   1. Per processor, the existing core::IncrementalVerifier checks the
//      shard's local schedule against its projected sub-constraints —
//      the single-processor problem the paper's decomposition reduces
//      to (deploy.hpp drives this).
//   2. Across processors, `distributed_latency` (here) measures the
//      exact end-to-end latency of a task graph against the set of
//      cyclic processor schedules plus the communication slot tables:
//      the smallest k such that every window of length >= k contains a
//      distributed execution — ops on their assigned processors, every
//      cross edge riding a message slot that starts after the producer
//      finishes (and after the window opens) and arrives before the
//      consumer starts. This is the seam check: it proves the local
//      schedules *compose*, not just that each one works in isolation.
//
// The indexed fast path resolves "first execution of e at or after t"
// probes through per-processor core::UnrollIndex rows; the
// `flat_reference` path recomputes everything with independent linear
// scans over materialized unrolled ops — the repo's differential
// convention — and the two are bit-identical, as is the result at any
// thread count (per-window results are pure; the reduction is max with
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

struct SeamStats {
  std::size_t windows = 0;      ///< candidate windows examined
  std::size_t index_seeks = 0;  ///< UnrollIndex probes (indexed path)
  std::size_t threads_used = 1;

  SeamStats& operator+=(const SeamStats& other) {
    windows += other.windows;
    index_seeks += other.index_seeks;
    threads_used = std::max(threads_used, other.threads_used);
    return *this;
  }
};

struct SeamOptions {
  /// Worker threads for the candidate-window fan-out. 0 or 1 = serial;
  /// results are bit-identical at every count.
  std::size_t n_threads = 1;
  /// Recompute with independent linear scans (no UnrollIndex); the
  /// monolithic reference for the differential suite.
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

/// Exact end-to-end latency of `tg` against the processor schedules and
/// the communication slot tables; nullopt = infinite (or cancelled, see
/// SeamOptions::cancelled). Exact for task graphs without repeated
/// labels (greedy completion); may over-approximate otherwise.
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
