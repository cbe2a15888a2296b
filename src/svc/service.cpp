#include "svc/service.hpp"

#include <algorithm>
#include <filesystem>
#include <span>
#include <utility>

#include "core/feasibility.hpp"
#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/pipeline.hpp"
#include "core/schedule_io.hpp"
#include "map/deploy.hpp"
#include "map/fault_tolerance.hpp"
#include "monitor/streaming_monitor.hpp"
#include "monitor/trace_io.hpp"
#include "spec/compile.hpp"

namespace rtg::svc {

namespace {

// Serialized cache value: one status digit, one verdict digit, one
// degraded digit, then the detail bytes.
std::string encode_cached(const JobResponse& rsp) {
  std::string out;
  out.push_back(static_cast<char>('0' + static_cast<int>(rsp.status)));
  out.push_back(rsp.verdict ? '1' : '0');
  out.push_back(rsp.degraded ? '1' : '0');
  out += rsp.detail;
  return out;
}

bool decode_cached(const std::string& bytes, JobResponse& rsp) {
  if (bytes.size() < 3) return false;
  const int status = bytes[0] - '0';
  if (status < 0 || status > static_cast<int>(JobStatus::kFailed)) return false;
  rsp.status = static_cast<JobStatus>(status);
  rsp.verdict = bytes[1] == '1';
  rsp.degraded = bytes[2] == '1';
  rsp.detail = bytes.substr(3);
  return true;
}

std::uint64_t cache_key(const JobRequest& req, bool effective_exact) {
  Fnv1a h;
  h.u64(static_cast<std::uint64_t>(req.kind));
  h.u64(effective_exact ? 1 : 0);
  h.bytes(req.spec);
  h.u64(0x1f);  // domain separator between sections
  h.bytes(req.schedule);
  if (req.kind == JobKind::kMap) {
    h.u64(req.processors);
    h.bytes(req.mapper);
    h.u64(req.tolerate);
  }
  return h.state;
}

}  // namespace

// Per-tenant monitor stream: one StreamingMonitor pinned to the model
// of the first trace the tenant sent; later traces must fingerprint-
// match or they are rejected as kInvalid (verdicts against the wrong
// constraint set would be meaningless). The per-tenant mutex serializes
// ingestion so interleaved monitor jobs cannot tear the stream.
struct VerifyService::TenantState {
  std::mutex mutex;
  std::uint64_t fingerprint = 0;
  std::unique_ptr<core::GraphModel> model;
  std::unique_ptr<monitor::StreamingMonitor> mon;
  std::uint64_t slots_ingested = 0;
};

VerifyService::VerifyService(ServiceOptions options)
    : options_(std::move(options)),
      admission_(options_.admission),
      cache_(options_.cache_capacity),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.workers == 0) options_.workers = 1;
  degrade_threshold_ = options_.degrade_pending != 0
                           ? options_.degrade_pending
                           : std::max<std::size_t>(1, options_.admission.max_pending * 3 / 4);
  recover_threshold_ = options_.recover_pending != 0
                           ? options_.recover_pending
                           : std::max<std::size_t>(1, options_.admission.max_pending / 4);

  if (!options_.snapshot_path.empty() &&
      std::filesystem::exists(options_.snapshot_path)) {
    try {
      cache_.load_snapshot(options_.snapshot_path, options_.snapshot_limits);
    } catch (const CacheError&) {
      // A corrupt snapshot must not kill the server: start cold.
      std::lock_guard<std::mutex> lock(health_mutex_);
      health_.snapshot_load_failed = true;
    }
  }

  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.push_back(std::make_unique<WorkerState>(options_.ring_capacity));
  }
  worker_threads_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    worker_threads_.emplace_back([this, i] { worker_loop(i); });
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

VerifyService::~VerifyService() { shutdown(); }

std::uint64_t VerifyService::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::future<JobResponse> VerifyService::submit(JobRequest req) {
  const std::uint64_t now = now_ms();
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    ++health_.submitted;
  }

  auto job = std::make_shared<Job>();
  job->req = std::move(req);
  job->submit_ms = now;
  std::future<JobResponse> future = job->promise.get_future();

  const auto reject = [&](std::uint64_t retry_after_ms) {
    JobResponse rsp;
    rsp.id = job->req.id;
    rsp.status = JobStatus::kRejected;
    rsp.retry_after_ms = retry_after_ms;
    job->done.store(true);
    job->promise.set_value(std::move(rsp));
    std::lock_guard<std::mutex> lock(health_mutex_);
    ++health_.rejected;
  };

  if (!accepting_.load()) {
    reject(1000);
    return future;
  }

  const AdmissionVerdict verdict =
      admission_.decide(job->req.tenant, now, pending_.load());
  if (verdict.decision == core::AdmissionDecision::kRejected) {
    reject(verdict.retry_after_ms);
    return future;
  }

  job->eligible_ms =
      verdict.decision == core::AdmissionDecision::kDeferred ? verdict.eligible_ms : now;
  job->deferred = verdict.decision == core::AdmissionDecision::kDeferred;
  if (job->req.deadline_ms != 0) {
    job->deadline_at_ms = now + job->req.deadline_ms;
  }
  bool staged = false;
  {
    std::lock_guard<std::mutex> lock(staging_mutex_);
    // Re-checked under the staging lock: shutdown() flips accepting_
    // and then drains, and drain's idle probe takes this same mutex, so
    // a job staged here is guaranteed visible to the drain — the
    // submit/shutdown race can no longer strand a future.
    if (accepting_.load()) {
      pending_.fetch_add(1);
      staging_.push_back(job);
      staged = true;
    }
  }
  if (!staged) {
    reject(1000);
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    if (job->deferred) {
      ++health_.deferred;
    } else {
      ++health_.admitted;
    }
  }
  staging_cv_.notify_one();
  return future;
}

void VerifyService::requeue(const JobPtr& job, std::uint64_t eligible_ms) {
  {
    std::lock_guard<std::mutex> lock(staging_mutex_);
    // eligible_ms is only ever written or read under staging_mutex_
    // once a job can sit in staging_, so a chaos-retry requeue racing a
    // supervisor re-delivery of the same job cannot tear the field.
    job->eligible_ms = eligible_ms;
    staging_.push_back(job);
  }
  staging_cv_.notify_one();
}

void VerifyService::finish(const JobPtr& job, JobResponse rsp) {
  // First completion wins: a re-delivered job may finish on two workers.
  bool expected = false;
  if (!job->done.compare_exchange_strong(expected, true)) return;
  rsp.id = job->req.id;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    switch (rsp.status) {
      case JobStatus::kOk: ++health_.completed; break;
      case JobStatus::kExpired: ++health_.expired; break;
      case JobStatus::kInvalid: ++health_.invalid; break;
      case JobStatus::kFailed: ++health_.failed; break;
      case JobStatus::kRejected: ++health_.rejected; break;
    }
    if (rsp.degraded) ++health_.degraded_jobs;
  }
  job->promise.set_value(std::move(rsp));
  pending_.fetch_sub(1);
  drain_cv_.notify_all();
}

void VerifyService::dispatcher_loop() {
  std::size_t next_worker = 0;
  while (!stopping_.load()) {
    JobPtr job;
    {
      std::unique_lock<std::mutex> lock(staging_mutex_);
      staging_cv_.wait_for(lock, std::chrono::milliseconds(2), [this] {
        return stopping_.load() || !staging_.empty();
      });
      if (stopping_.load()) return;
      const std::uint64_t now = now_ms();
      for (auto it = staging_.begin(); it != staging_.end(); ++it) {
        if ((*it)->done.load()) {
          job = *it;  // already answered (expired in queue); just drop
          staging_.erase(it);
          job.reset();
          break;
        }
        if ((*it)->eligible_ms <= now) {
          job = *it;
          staging_.erase(it);
          break;
        }
      }
    }
    if (!job) continue;

    // Hand to the first non-suspect worker with ring space, round
    // robin. With every ring full the job goes back to staging — the
    // global pending bound was already enforced at admission.
    bool placed = false;
    for (std::size_t k = 0; k < workers_.size(); ++k) {
      const std::size_t w = (next_worker + k) % workers_.size();
      WorkerState& ws = *workers_[w];
      if (ws.suspect.load() && workers_.size() > 1) continue;
      if (ws.ring.try_push(job)) {
        next_worker = w + 1;
        ws.cv.notify_one();
        placed = true;
        break;
      }
    }
    if (!placed) {
      {
        std::lock_guard<std::mutex> lock(staging_mutex_);
        staging_.push_front(std::move(job));
      }
      // All rings full: back off for a moment instead of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

void VerifyService::worker_loop(std::size_t id) {
  WorkerState& ws = *workers_[id];
  JobPtr slot[1];
  for (;;) {
    ws.heartbeat_ms.store(now_ms());
    std::size_t n;
    {
      // The supervisor may reclaim a suspect worker's queued jobs; the
      // pop mutex keeps the ring single-consumer at any instant.
      std::lock_guard<std::mutex> lock(ws.pop_mutex);
      n = ws.ring.pop_batch(std::span<JobPtr>(slot, 1));
    }
    if (n == 0) {
      if (stopping_.load()) return;
      std::unique_lock<std::mutex> lock(ws.mutex);
      ws.cv.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }
    JobPtr job = std::move(slot[0]);
    slot[0].reset();
    if (job->done.load()) continue;  // duplicate delivery, already answered

    ws.busy.store(true);
    {
      std::lock_guard<std::mutex> lock(ws.current_mutex);
      ws.current = job;
    }
    run_job(id, job);
    {
      std::lock_guard<std::mutex> lock(ws.current_mutex);
      ws.current.reset();
    }
    ws.busy.store(false);
    ws.suspect.store(false);  // a finished job proves the worker alive
    ws.heartbeat_ms.store(now_ms());
  }
}

void VerifyService::run_job(std::size_t id, const JobPtr& job) {
  WorkerState& ws = *workers_[id];
  const std::uint64_t run_index = job->runs.fetch_add(1);
  const std::uint64_t started = now_ms();
  ws.heartbeat_ms.store(started);

  // Injected stall: sleep without heartbeating, exactly what a worker
  // wedged in a long syscall looks like to the supervisor.
  if (chaos_should_stall(options_.chaos, job->req.id, run_index)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(options_.chaos.stall_ms));
    if (job->done.load()) return;  // re-delivered and answered while stalled
  }

  const std::uint64_t now = now_ms();
  if (job->deadline_at_ms != 0 && now >= job->deadline_at_ms) {
    JobResponse rsp;
    rsp.status = JobStatus::kExpired;
    rsp.detail = "deadline passed before execution";
    rsp.queue_ms = now - job->submit_ms;
    finish(job, rsp);
    return;
  }

  const bool degraded_mode = mode_.load() != 0;
  const bool effective_exact = job->req.exact && !degraded_mode;
  const bool cacheable = job->req.kind != JobKind::kMonitor;
  const std::uint64_t key = cacheable ? cache_key(job->req, effective_exact) : 0;

  if (cacheable) {
    if (const auto hit = cache_.get(key)) {
      JobResponse rsp;
      if (decode_cached(*hit, rsp)) {
        rsp.cached = true;
        rsp.queue_ms = now - job->submit_ms;
        rsp.run_ms = 0;
        finish(job, rsp);
        return;
      }
    }
  }

  JobResponse rsp =
      job->req.kind == JobKind::kMonitor
          ? execute_monitor(*job, &ws.progress)
          : execute(*job, degraded_mode && job->req.exact, &ws.progress);
  const std::uint64_t done_at = now_ms();
  rsp.queue_ms = started - job->submit_ms;
  rsp.run_ms = done_at - started;

  // Cancellation lands here as kExpired when the deadline motivated it.
  if (rsp.status == JobStatus::kExpired || job->cancel.load()) {
    rsp.status = JobStatus::kExpired;
    finish(job, rsp);
    return;
  }

  // Injected transient failure after a completed run: retry with
  // backoff until the policy is exhausted.
  if (chaos_should_fail(options_.chaos, job->req.id, run_index)) {
    const std::uint64_t attempts = job->attempts.fetch_add(1) + 1;
    if (!options_.retry.exhausted(attempts)) {
      {
        std::lock_guard<std::mutex> lock(health_mutex_);
        ++health_.retries;
      }
      requeue(job, done_at + static_cast<std::uint64_t>(
                                 options_.retry.delay_after(attempts)));
      return;
    }
    JobResponse failed;
    failed.status = JobStatus::kFailed;
    failed.detail = "transient failure; retries exhausted";
    failed.queue_ms = rsp.queue_ms;
    failed.run_ms = rsp.run_ms;
    finish(job, failed);
    return;
  }

  if (cacheable && (rsp.status == JobStatus::kOk || rsp.status == JobStatus::kInvalid)) {
    cache_.put(key, encode_cached(rsp));
  }
  finish(job, rsp);
}

JobResponse VerifyService::execute(Job& job, bool degraded,
                                   std::atomic<std::uint64_t>* progress) {
  JobResponse rsp;
  rsp.degraded = degraded;

  const spec::CompileResult compiled = spec::compile_text(job.req.spec);
  if (!compiled.ok()) {
    rsp.status = JobStatus::kInvalid;
    rsp.detail = compiled.errors.empty() ? "spec error"
                                         : "spec: " + compiled.errors.front().message;
    return rsp;
  }
  const core::GraphModel& model = *compiled.model;

  if (job.req.kind == JobKind::kVerify) {
    // Schedules are expressed against the software-pipelined model —
    // the same convention as spec_compiler --save/--verify, so a saved
    // schedule can be shipped to the service unmodified.
    const core::GraphModel pipelined = core::pipeline_model(model).model;
    const core::ScheduleParseResult parsed =
        core::schedule_from_text(job.req.schedule, pipelined.comm());
    if (!parsed.ok()) {
      rsp.status = JobStatus::kInvalid;
      rsp.detail = parsed.errors.empty() ? "schedule error"
                                         : "schedule: " + parsed.errors.front().message;
      return rsp;
    }
    const core::FeasibilityReport report = core::verify_schedule(
        *parsed.schedule, pipelined,
        core::VerifyOptions{.n_threads = options_.verify_threads,
                            .cancel = &job.cancel,
                            .progress = progress});
    if (report.cancelled) {
      rsp.status = JobStatus::kExpired;
      rsp.detail = "cancelled mid-verification";
      return rsp;
    }
    rsp.status = JobStatus::kOk;
    rsp.verdict = report.feasible;
    std::size_t violated = 0;
    for (const core::ConstraintVerdict& v : report.verdicts) {
      if (!v.satisfied) ++violated;
    }
    rsp.detail = report.feasible
                     ? "feasible"
                     : "infeasible: " + std::to_string(violated) + " of " +
                           std::to_string(report.verdicts.size()) +
                           " constraints violated";
    return rsp;
  }

  if (job.req.kind == JobKind::kMap) {
    // Mapped deployment: the spec's declared platform wins; otherwise
    // the request's processor count buys a shared bus.
    map::Platform platform;
    if (compiled.platform.has_value()) {
      platform = *compiled.platform;
    } else if (job.req.processors > 0) {
      platform = map::Platform::bus(static_cast<std::size_t>(job.req.processors));
    } else {
      rsp.status = JobStatus::kInvalid;
      rsp.detail = "map job needs processors > 0 or a spec-declared platform";
      return rsp;
    }
    map::DeployOptions opts;
    opts.mapper = job.req.mapper.empty() ? "greedy" : job.req.mapper;
    opts.local.n_threads = 1;
    opts.local.cancel = &job.cancel;
    opts.local.progress = progress;
    opts.seam_threads = options_.verify_threads;
    if (job.req.tolerate > 0) {
      // k-tolerant deployment (ISSUE 10): the verdict also demands an
      // admissible MigrationTable entry for every failure set |F| <= k.
      map::TolerantOptions topts;
      topts.k = static_cast<std::size_t>(job.req.tolerate);
      topts.deploy = opts;
      const map::TolerantDeployment td = map::deploy_tolerant(model, platform, topts);
      if (td.cancelled) {
        rsp.status = JobStatus::kExpired;
        rsp.detail = "cancelled mid-deployment";
        return rsp;
      }
      if (!td.success && td.failure_reason.rfind("unknown mapper", 0) == 0) {
        rsp.status = JobStatus::kInvalid;
        rsp.detail = td.failure_reason;
        return rsp;
      }
      rsp.status = JobStatus::kOk;
      rsp.verdict = td.success && td.tolerant;
      if (td.success) {
        rsp.detail = "deployed on " + std::to_string(platform.processors()) +
                     " processors via " + opts.mapper + ", k=" +
                     std::to_string(td.k) + ": " + std::to_string(td.table.size()) +
                     " of " + std::to_string(td.scenarios) +
                     " failure scenarios covered" +
                     (td.tolerant ? "" : " (" + std::to_string(td.uncovered.size()) +
                                             " uncovered)");
      } else {
        rsp.detail = td.failure_reason;
      }
      return rsp;
    }
    const map::Deployment deployment = map::deploy(model, platform, opts);
    if (deployment.cancelled) {
      rsp.status = JobStatus::kExpired;
      rsp.detail = "cancelled mid-deployment";
      return rsp;
    }
    if (!deployment.success && deployment.failure_reason.rfind("unknown mapper", 0) == 0) {
      rsp.status = JobStatus::kInvalid;
      rsp.detail = deployment.failure_reason;
      return rsp;
    }
    rsp.status = JobStatus::kOk;
    rsp.verdict = deployment.success;
    if (deployment.success) {
      const auto margin = deployment.min_margin(deployment.scheduled_model);
      rsp.detail = "deployed on " + std::to_string(platform.processors()) +
                   " processors via " + opts.mapper + ": " +
                   std::to_string(deployment.messages.size()) + " messages, " +
                   std::to_string(deployment.comm.total_slots()) +
                   " link slots, min margin " +
                   (margin ? std::to_string(*margin) : std::string("n/a"));
    } else {
      rsp.detail = deployment.failure_reason;
    }
    return rsp;
  }

  // kSynthesize.
  const bool run_exact = job.req.exact && !degraded;
  if (run_exact) {
    core::ExactOptions opts;
    opts.state_budget = options_.exact_state_budget;
    opts.cancel = &job.cancel;
    opts.progress = progress;
    const core::ExactResult result = core::exact_feasible(model, opts);
    if (result.cancelled && result.status == core::FeasibilityStatus::kUnknown) {
      rsp.status = JobStatus::kExpired;
      rsp.detail = "cancelled mid-search";
      return rsp;
    }
    switch (result.status) {
      case core::FeasibilityStatus::kFeasible:
        rsp.status = JobStatus::kOk;
        rsp.verdict = true;
        rsp.detail = core::schedule_to_text(*result.schedule, model.comm());
        return rsp;
      case core::FeasibilityStatus::kInfeasible:
        rsp.status = JobStatus::kOk;
        rsp.verdict = false;
        rsp.detail = "infeasible";
        return rsp;
      case core::FeasibilityStatus::kUnknown:
        rsp.status = JobStatus::kFailed;
        rsp.detail = "state budget exhausted";
        return rsp;
    }
    rsp.status = JobStatus::kFailed;
    return rsp;
  }

  core::HeuristicOptions opts;
  opts.n_threads = options_.verify_threads;
  opts.cancel = &job.cancel;
  opts.progress = progress;
  const core::HeuristicResult result = core::latency_schedule(model, opts);
  if (!result.success && result.failure_reason == "cancelled") {
    rsp.status = JobStatus::kExpired;
    rsp.detail = "cancelled mid-synthesis";
    return rsp;
  }
  rsp.status = JobStatus::kOk;
  rsp.verdict = result.success;
  rsp.detail = result.success
                   ? core::schedule_to_text(*result.schedule,
                                            result.scheduled_model.comm())
                   : result.failure_reason;
  return rsp;
}

JobResponse VerifyService::execute_monitor(
    Job& job, std::atomic<std::uint64_t>* progress) {
  JobResponse rsp;

  const spec::CompileResult compiled = spec::compile_text(job.req.spec);
  if (!compiled.ok()) {
    rsp.status = JobStatus::kInvalid;
    rsp.detail = compiled.errors.empty() ? "spec error"
                                         : "spec: " + compiled.errors.front().message;
    return rsp;
  }

  monitor::RttFile file;
  try {
    file = monitor::read_trace_buffer(job.req.trace);
  } catch (const monitor::RttError& e) {
    rsp.status = JobStatus::kInvalid;
    rsp.detail = e.what();
    return rsp;
  }

  // Traces are captured from the synthesized (software-pipelined)
  // schedule, so the fingerprint binds to the pipelined model — same
  // convention as spec_compiler --emit-trace and trace_replay.
  const core::GraphModel pipelined = core::pipeline_model(*compiled.model).model;
  const std::uint64_t fp = monitor::model_fingerprint(pipelined);
  if (file.fingerprint != fp) {
    rsp.status = JobStatus::kInvalid;
    rsp.detail = "trace fingerprint does not match the spec's model";
    return rsp;
  }

  TenantState* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    auto& slot = tenants_[job.req.tenant];
    if (!slot) slot = std::make_unique<TenantState>();
    tenant = slot.get();
  }
  std::lock_guard<std::mutex> lock(tenant->mutex);
  if (tenant->mon == nullptr || tenant->fingerprint != fp) {
    // First stream for this tenant (or a model change): start fresh.
    tenant->fingerprint = fp;
    tenant->model = std::make_unique<core::GraphModel>(pipelined);
    tenant->mon = std::make_unique<monitor::StreamingMonitor>(*tenant->model);
    tenant->slots_ingested = 0;
  }
  // Ingest at most once per job: a re-delivered or chaos-retried run of
  // the same job must not fold the trace into the shared stream twice.
  // The claim happens under the tenant mutex, so a losing duplicate run
  // always reports the post-ingestion stream state.
  if (!job.ingested.exchange(true)) {
    std::uint64_t tick = 0;
    for (const sim::Slot s : file.trace.slots()) {
      tenant->mon->on_slot(s);
      if (progress != nullptr && (++tick & 1023) == 0) {
        progress->fetch_add(1, std::memory_order_relaxed);
      }
    }
    tenant->slots_ingested += file.trace.size();
  }

  const monitor::MonitorReport report = tenant->mon->report();
  rsp.status = JobStatus::kOk;
  rsp.verdict = report.ok();
  rsp.detail = "violations=" + std::to_string(report.violations.size()) +
               " slots=" + std::to_string(tenant->slots_ingested);
  return rsp;
}

void VerifyService::supervisor_loop() {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.supervisor_period_ms));
    if (stopping_.load()) return;
    const std::uint64_t now = now_ms();

    // Expire queued jobs whose deadline has passed.
    std::vector<JobPtr> expired;
    {
      std::lock_guard<std::mutex> lock(staging_mutex_);
      for (auto it = staging_.begin(); it != staging_.end();) {
        if ((*it)->done.load()) {
          it = staging_.erase(it);
          continue;
        }
        if ((*it)->deadline_at_ms != 0 && now >= (*it)->deadline_at_ms) {
          expired.push_back(*it);
          it = staging_.erase(it);
          continue;
        }
        ++it;
      }
    }
    for (const JobPtr& job : expired) {
      JobResponse rsp;
      rsp.status = JobStatus::kExpired;
      rsp.detail = "deadline passed in queue";
      rsp.queue_ms = now - job->submit_ms;
      finish(job, rsp);
    }

    // Stuck-worker detection. A worker is stuck only when *neither* its
    // heartbeat nor its engine progress beacon has moved for
    // stall_grace_ms — a slow exact search that keeps polling its
    // cancel hook is alive, not wedged, so long jobs are never turned
    // into spurious failures. Edge-triggered on suspect: the job is
    // re-delivered once per incident, and the done flag keeps the
    // response unique if the stalled run eventually completes too.
    for (const auto& ws : workers_) {
      const std::uint64_t beacon = ws->progress.load();
      if (beacon != ws->seen_progress) {
        ws->seen_progress = beacon;
        ws->progress_ms = now;
      }
      if (!ws->busy.load()) continue;
      const std::uint64_t alive_ms =
          std::max(ws->heartbeat_ms.load(), ws->progress_ms);
      const std::uint64_t age = now > alive_ms ? now - alive_ms : 0;
      if (age < options_.stall_grace_ms) continue;
      bool expected = false;
      if (!ws->suspect.compare_exchange_strong(expected, true)) continue;
      {
        std::lock_guard<std::mutex> lock(health_mutex_);
        ++health_.stuck_worker_events;
      }
      // Reclaim the jobs queued in the wedged worker's ring: it is the
      // only consumer, so without this they would be invisible until it
      // recovers (or forever), stranding their futures. The pop mutex
      // makes the steal safe against a concurrently recovering worker.
      std::vector<JobPtr> reclaimed;
      {
        std::lock_guard<std::mutex> lock(ws->pop_mutex);
        JobPtr slot[1];
        while (ws->ring.pop_batch(std::span<JobPtr>(slot, 1)) == 1) {
          if (!slot[0]->done.load()) reclaimed.push_back(std::move(slot[0]));
          slot[0].reset();
        }
      }
      for (const JobPtr& queued : reclaimed) requeue(queued, now);
      JobPtr job;
      {
        std::lock_guard<std::mutex> lock(ws->current_mutex);
        job = ws->current;
      }
      if (!job || job->done.load()) continue;
      // Hand the job to a healthy worker (bounded). The wedged run is
      // deliberately NOT cancelled — job->cancel is shared with the
      // fresh delivery; verify/synthesize verdicts are deterministic
      // and monitor ingestion is idempotent per job (job->ingested), so
      // whichever run finishes first answers and the loser is discarded
      // by `done` without corrupting tenant state.
      if (job->deliveries.fetch_add(1) < options_.max_redeliveries) {
        {
          std::lock_guard<std::mutex> lock(health_mutex_);
          ++health_.redeliveries;
        }
        requeue(job, now);
      } else {
        JobResponse rsp;
        rsp.status = JobStatus::kFailed;
        rsp.detail = "re-delivery budget exhausted (worker stalled)";
        finish(job, rsp);
      }
    }

    // Cancel running jobs past their deadline.
    for (const auto& ws : workers_) {
      JobPtr job;
      {
        std::lock_guard<std::mutex> lock(ws->current_mutex);
        job = ws->current;
      }
      if (job && !job->done.load() && job->deadline_at_ms != 0 &&
          now >= job->deadline_at_ms) {
        job->cancel.store(true);
      }
    }

    // Overload degradation ladder, hysteretic: enter degraded mode at
    // degrade_threshold_ pending, leave at recover_threshold_.
    const std::size_t depth = pending_.load();
    const int mode = mode_.load();
    int next = mode;
    if (mode == 0 && depth >= degrade_threshold_) next = 1;
    if (mode == 1 && depth <= recover_threshold_) next = 0;
    if (next != mode) {
      mode_.store(next);
      std::lock_guard<std::mutex> lock(health_mutex_);
      health_.mode_shifts.push_back(ModeShift{now, mode, next, depth});
    }

    drain_cv_.notify_all();
  }
}

void VerifyService::drain() {
  // Bounded waits throughout: a missed notification costs at most one
  // poll period, never a deadlock.
  std::unique_lock<std::mutex> lock(drain_mutex_);
  for (;;) {
    const bool idle = [this] {
      if (pending_.load() != 0) return false;
      std::lock_guard<std::mutex> staging_lock(staging_mutex_);
      return staging_.empty();
    }();
    if (idle) return;
    drain_cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

void VerifyService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  accepting_.store(false);
  drain();
  stopping_.store(true);
  staging_cv_.notify_all();
  for (const auto& ws : workers_) ws->cv.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (supervisor_.joinable()) supervisor_.join();
  for (std::thread& t : worker_threads_) t.join();

  // Belt and braces: the accepting_ re-check under staging_mutex_ in
  // submit() means nothing should remain staged past drain(), but any
  // leftover must still be answered, never stranded.
  std::deque<JobPtr> leftovers;
  {
    std::lock_guard<std::mutex> lock(staging_mutex_);
    leftovers.swap(staging_);
  }
  for (const JobPtr& job : leftovers) {
    if (job->done.load()) continue;
    JobResponse rsp;
    rsp.status = JobStatus::kRejected;
    rsp.retry_after_ms = 1000;
    rsp.detail = "service shutting down";
    finish(job, rsp);
  }

  if (!options_.snapshot_path.empty()) {
    try {
      cache_.save_snapshot(options_.snapshot_path);
    } catch (const CacheError&) {
      std::lock_guard<std::mutex> lock(health_mutex_);
      health_.snapshot_save_failed = true;
    }
  }
}

ServiceHealth VerifyService::health() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  ServiceHealth snapshot = health_;
  snapshot.pending = pending_.load();
  snapshot.mode = mode_.load();
  snapshot.cache_hits = cache_.hits();
  snapshot.cache_misses = cache_.misses();
  snapshot.cache_evictions = cache_.evictions();
  snapshot.cache_size = cache_.size();
  return snapshot;
}

}  // namespace rtg::svc
