// service.hpp — the multi-tenant batch verification server.
//
// VerifyService accepts verify / synthesize / monitor jobs and is
// robust by construction, in four layers:
//
//   1. Admission + backpressure (svc/admission): per-tenant token
//      buckets and a bounded global in-flight count. Overload sheds
//      load as explicit kRejected responses with a retry_after hint —
//      submit() never blocks and never silently drops.
//   2. Deadlines, cancellation, retry: every job may carry a wall-clock
//      deadline. Queued jobs past their deadline are expired by the
//      supervisor; running jobs are cooperatively cancelled through the
//      poll hooks threaded into core/latency, core/feasibility and
//      core/heuristic. Transient failures (chaos-injected here; any
//      retryable error in general) re-queue with the exponential
//      backoff policy shared with rt/recovery.
//   3. Worker watchdog + graceful degradation: jobs flow
//      submit -> staging deque -> dispatcher thread -> per-worker
//      SpscRing -> one resident worker thread per ring. The
//      supervisor watches per-worker heartbeats *and* the progress
//      beacons the engines bump at every cancellation poll, so a slow
//      exact search is never mistaken for a wedged worker. A worker
//      with neither signal for stall_grace_ms is marked suspect: the
//      dispatcher routes around it, its queued ring jobs are reclaimed
//      back into staging, and its in-flight job is re-delivered to
//      another worker, bounded by max_redeliveries — an atomic done
//      flag guarantees exactly one response no matter how many
//      deliveries race (monitor ingestion is additionally idempotent
//      per job, so a racing duplicate run cannot double-count a trace).
//      Sustained queue depth degrades exact synthesis to the heuristic
//      (responses carry degraded=true); every mode shift is recorded in
//      the health snapshot.
//   4. Crash-safe result cache (svc/result_cache): deterministic
//      verify/synthesize results are memoized across tenants and — via
//      the checksummed snapshot — across restarts. A corrupt snapshot
//      starts the server cold instead of poisoning it.
//
// Every blocking wait in the service is bounded (wait_for, never
// wait), so no lost notification can deadlock the pipeline.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rt/recovery.hpp"
#include "svc/admission.hpp"
#include "svc/chaos.hpp"
#include "svc/job.hpp"
#include "svc/result_cache.hpp"
#include "util/spsc_ring.hpp"

namespace rtg::svc {

struct ServiceOptions {
  /// Resident worker threads, one per SpscRing feed.
  std::size_t workers = 2;
  /// Capacity of each worker's SpscRing feed.
  std::size_t ring_capacity = 16;
  /// Quotas and the global pending bound.
  AdmissionOptions admission;
  /// Backoff schedule for transient-failure retries (milliseconds in
  /// place of slots; same policy the recovery executive uses).
  rt::BackoffPolicy retry{10, 2.0, 2};
  /// Times a stuck worker's job may be handed to another worker.
  std::size_t max_redeliveries = 2;
  /// Heartbeat age after which a busy worker is presumed stuck.
  std::uint64_t stall_grace_ms = 400;
  std::uint64_t supervisor_period_ms = 10;
  /// Pending depth that enters degraded mode (0 = 3/4 of max_pending)
  /// and the depth that recovers from it (0 = 1/4 of max_pending).
  std::size_t degrade_pending = 0;
  std::size_t recover_pending = 0;
  /// State budget for exact synthesis jobs.
  std::size_t exact_state_budget = 200'000;
  /// Verifier threads per job (workers already run in parallel, so the
  /// default keeps each job serial).
  std::size_t verify_threads = 1;
  std::size_t cache_capacity = 4096;
  /// Snapshot file; empty = in-memory cache only. Loaded (warm start)
  /// at construction, saved at shutdown.
  std::string snapshot_path;
  CacheReadLimits snapshot_limits;
  ChaosPlan chaos;
};

/// A degradation-mode transition, timestamped on the service clock.
struct ModeShift {
  std::uint64_t at_ms = 0;
  int from = 0;
  int to = 0;
  std::size_t pending = 0;  ///< queue depth that motivated it
};

struct ServiceHealth {
  std::size_t pending = 0;
  int mode = 0;  ///< 0 = exact honored, 1 = degraded (heuristic only)
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;  ///< kOk responses
  std::uint64_t expired = 0;
  std::uint64_t invalid = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t redeliveries = 0;
  std::uint64_t stuck_worker_events = 0;
  std::uint64_t degraded_jobs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_size = 0;
  bool snapshot_load_failed = false;  ///< corrupt snapshot; started cold
  bool snapshot_save_failed = false;
  std::vector<ModeShift> mode_shifts;
};

class VerifyService {
 public:
  explicit VerifyService(ServiceOptions options);
  ~VerifyService();
  VerifyService(const VerifyService&) = delete;
  VerifyService& operator=(const VerifyService&) = delete;

  /// Never blocks: a shed job resolves its future immediately with
  /// kRejected; everything else resolves when the job finishes.
  std::future<JobResponse> submit(JobRequest req);

  /// Blocks until no job is pending (queued or running).
  void drain();

  /// Stops accepting, drains, stops all threads, saves the snapshot.
  /// Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] ServiceHealth health() const;

  /// Milliseconds since construction (steady clock).
  [[nodiscard]] std::uint64_t now_ms() const;

  [[nodiscard]] ResultCache& cache() { return cache_; }

 private:
  struct Job {
    JobRequest req;
    std::promise<JobResponse> promise;
    std::atomic<bool> done{false};
    std::atomic<bool> cancel{false};
    std::uint64_t submit_ms = 0;
    std::uint64_t eligible_ms = 0;
    std::uint64_t deadline_at_ms = 0;  ///< 0 = none
    std::atomic<std::uint64_t> runs{0};       ///< deliveries started
    std::atomic<std::uint64_t> attempts{0};   ///< transient failures so far
    std::atomic<std::uint64_t> deliveries{0}; ///< stuck-worker re-queues
    /// kMonitor only: the trace has been folded into the tenant's
    /// stream. Claimed under the tenant mutex so a re-delivered or
    /// retried duplicate run never ingests a second time.
    std::atomic<bool> ingested{false};
    bool deferred = false;
  };
  using JobPtr = std::shared_ptr<Job>;

  struct WorkerState {
    explicit WorkerState(std::size_t cap) : ring(cap) {}
    util::SpscRing<JobPtr> ring;
    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<std::uint64_t> heartbeat_ms{0};
    std::atomic<bool> busy{false};
    /// Engine-side liveness beacon, bumped at every cancellation poll
    /// of the job this worker is running. The supervisor samples it so
    /// a long-but-alive run is never declared stalled.
    std::atomic<std::uint64_t> progress{0};
    /// Supervisor-only beacon bookkeeping (single reader/writer).
    std::uint64_t seen_progress = 0;
    std::uint64_t progress_ms = 0;
    /// Set by the supervisor on a stale heartbeat; routes new work away
    /// and edge-triggers the re-delivery. Cleared by the worker itself.
    std::atomic<bool> suspect{false};
    /// Serializes ring consumption between the worker and the
    /// supervisor's reclaim of a suspect worker's queued jobs; the ring
    /// stays SPSC because at most one popper runs at a time.
    std::mutex pop_mutex;
    std::mutex current_mutex;
    JobPtr current;
  };

  struct TenantState;  // per-tenant StreamingMonitor (service.cpp)

  void dispatcher_loop();
  void supervisor_loop();
  void worker_loop(std::size_t id);
  void run_job(std::size_t id, const JobPtr& job);
  JobResponse execute(Job& job, bool degraded,
                      std::atomic<std::uint64_t>* progress);
  JobResponse execute_monitor(Job& job, std::atomic<std::uint64_t>* progress);
  void finish(const JobPtr& job, JobResponse rsp);
  void requeue(const JobPtr& job, std::uint64_t eligible_ms);

  ServiceOptions options_;
  AdmissionController admission_;
  ResultCache cache_;
  std::chrono::steady_clock::time_point epoch_;
  std::size_t degrade_threshold_ = 0;
  std::size_t recover_threshold_ = 0;

  mutable std::mutex staging_mutex_;
  std::condition_variable staging_cv_;
  std::deque<JobPtr> staging_;

  std::condition_variable drain_cv_;
  std::mutex drain_mutex_;

  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> accepting_{true};
  std::atomic<bool> stopping_{false};
  std::atomic<int> mode_{0};

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::thread> worker_threads_;
  std::thread dispatcher_;
  std::thread supervisor_;

  std::mutex tenants_mutex_;
  std::unordered_map<std::string, std::unique_ptr<TenantState>> tenants_;

  mutable std::mutex health_mutex_;
  ServiceHealth health_;

  bool shut_down_ = false;
  std::mutex shutdown_mutex_;
};

}  // namespace rtg::svc
