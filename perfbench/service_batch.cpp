// service_batch: the request batch -> responses path of verify_server,
// in-process. kWindow client threads form a closed loop that keeps
// kWindow requests outstanding: each client takes the next request of
// the round sequence, encodes it as a svc/protocol frame, reads it back
// with read_request, submits it to svc::VerifyService, waits, and
// round-trips the response through read_response. One operation is one
// request. Throughput and CPU are medians over 100-ms windows.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adapt.hpp"
#include "core/heuristic.hpp"
#include "core/pipeline.hpp"
#include "core/schedule_io.hpp"
#include "gen/generator.hpp"
#include "monitor/streaming_monitor.hpp"
#include "monitor/trace_io.hpp"
#include "oracle.hpp"
#include "spec/compile.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = rtg::core;
namespace gen = rtg::gen;
namespace svc = rtg::svc;
namespace monitor = rtg::monitor;
using core::Time;
using Span = Tracer::Span;

class ServiceBatch final : public Workload {
 public:
  static constexpr std::size_t kSpecs = 8;
  static constexpr std::size_t kTenants = 4;
  static constexpr std::size_t kWindow = 4;
  static constexpr std::size_t kWorkers = 2;
  /// Specs whose synthesized schedule is kMinSlots..kMaxSlots long, so
  /// that a request's engine call, not the hand-offs between threads,
  /// sets its latency; monitor traces repeat the schedule to at least
  /// kTraceSlots slots.
  static constexpr Time kMinSlots = 1000;
  static constexpr Time kMaxSlots = 4000;
  static constexpr Time kTraceSlots = 2000;
  /// Requests per round: per spec a verify and a synth plus their
  /// repeats, a broken-schedule verify for half the specs, and one
  /// monitor job per tenant.
  static constexpr std::size_t kRound = 4 * kSpecs + kSpecs / 2 + kTenants;

  ServiceBatch(bool trace, const std::string& scratch)
      : Workload(trace), snapshot_path_(scratch + ".rtvc") {}

  ~ServiceBatch() override {
    service_.reset();
    std::remove(snapshot_path_.c_str());
  }
  ServiceBatch(const ServiceBatch&) = delete;
  ServiceBatch& operator=(const ServiceBatch&) = delete;

  void generate(std::uint64_t seed) override {
    // The specs are the same for every seed (the first corpus indices in
    // the size band), so the seed changes the request order only and
    // the engine work per round stays put.
    for (std::uint64_t i = 0; specs_.size() < kSpecs; ++i) {
      if (auto in = make_input(gen::generate(gen::corpus_options(i)))) specs_.push_back(std::move(*in));
    }
    order_seed_ = mix(seed, 4);
    // A restarted server's snapshot: the results of an earlier batch.
    std::remove(snapshot_path_.c_str());
    svc::VerifyService warm(options());
    std::vector<std::future<svc::JobResponse>> fs;
    for (std::size_t slot = 0; slot < kRound; ++slot) {
      const svc::JobRequest r = request(static_cast<std::size_t>(-1), slot);
      if (r.kind != svc::JobKind::kMonitor) fs.push_back(warm.submit(r));
    }
    for (auto& f : fs) f.get();
    warm.shutdown();
  }

  void setup() override {
    decisions_.cutoff = core::serial_parallel_cutoff();
    const auto t0 = Clock::now();
    service_ = std::make_unique<svc::VerifyService>(options());
    snapshot_load_s_ = seconds_between(t0, Clock::now());
  }

  void run_timed(double seconds) override {
    std::atomic<std::size_t> completed{0};
    Sampler sampler(&completed);
    clients_.clear();
    for (std::size_t c = 0; c < kWindow; ++c) clients_.emplace_back(tracer_.on());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kWindow; ++c) {
      threads.emplace_back([this, c, &completed] { client_loop(clients_[c], completed); });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    {
      // Whole rounds: let the clients finish the round in progress.
      std::lock_guard<std::mutex> lock(take_mutex_);
      stop_at_ = (next_ + kRound - 1) / kRound * kRound;
    }
    for (auto& t : threads) t.join();
    windows_ = sampler.stop();
    std::size_t total = 0;
    for (const Client& cl : clients_) total += cl.latencies_ms.size();
    latencies_ms_.reserve(total);
    for (const Client& cl : clients_) {
      latencies_ms_.insert(latencies_ms_.end(), cl.latencies_ms.begin(), cl.latencies_ms.end());
      failed_ += cl.failed;
      checks_.merge(cl.checks);
    }
    attempted_ = latencies_ms_.size();
    checks_.expect(attempted_ == stop_at_, "the run did not end on a whole round");
    health_ = service_->health();
    const auto s0 = Clock::now();
    service_->shutdown();
    snapshot_save_s_ = seconds_between(s0, Clock::now());
  }

  void finish() override {
    checks_.expect(health_.submitted == attempted_, "service saw a different number of submissions");
    checks_.expect(health_.rejected == 0 && health_.expired == 0 && health_.failed == 0,
                   "service shed, expired or failed a request");
    checks_.expect(!health_.snapshot_load_failed, "warm-start snapshot failed to load");
    // Monitor summaries against the checker. A tenant's stream is its
    // trace T (L slots) repeated once per ingestion, so a response that
    // reports k * L ingested slots must count the violation events of
    // the windows of T^k that close within them. The checker evaluates
    // T^k directly for k up to kDirect; beyond, every window lies in a
    // part of the stream where the contents repeat every L slots, so
    // each further repetition adds the same number of events — checked
    // on the last two repetitions evaluated, then extrapolated.
    std::vector<MonitorObs> obs;
    std::size_t total = 0;
    for (const Client& cl : clients_) total += cl.monitor.size();
    obs.reserve(total);
    for (const Client& cl : clients_) obs.insert(obs.end(), cl.monitor.begin(), cl.monitor.end());
    for (std::size_t t = 0; t < kTenants; ++t) {
      const auto& tr = specs_[t].trace_slots;
      const oracle::Model& om = specs_[t].pipelined;
      const std::size_t len = tr.size();
      Time d_max = 0;
      for (const oracle::Constraint& oc : om.constraints) d_max = std::max(d_max, oc.deadline);
      const std::size_t direct = static_cast<std::size_t>(d_max) / len + 4;
      std::vector<std::int64_t> stream;
      for (std::size_t k = 0; k < direct; ++k) stream.insert(stream.end(), tr.begin(), tr.end());
      const auto execs = oracle::decode_trace(stream, om.weight);
      std::vector<ClosedEvents> per_constraint;
      for (const oracle::Constraint& oc : om.constraints) {
        const oracle::WindowCount wc =
            oracle::finite_windows(oc, execs, static_cast<Time>(stream.size()));
        checks_.expect(wc.decided, "tenant trace with a repeated task-graph label");
        per_constraint.emplace_back(oc, wc);
      }
      auto events_at = [&](std::size_t k) {
        std::size_t e = 0;
        for (const ClosedEvents& ce : per_constraint) e += ce.within(k * len);
        return e;
      };
      const std::size_t step = events_at(direct) - events_at(direct - 1);
      checks_.expect(events_at(direct - 1) - events_at(direct - 2) == step,
                     "tenant stream's violation events do not repeat per trace");
      for (const MonitorObs& m : obs) {
        if (m.tenant != t) continue;
        checks_.expect(m.slots % len == 0, "monitor slot count is not a whole number of traces");
        const std::size_t k = m.slots / len;
        const std::size_t events =
            k <= direct ? events_at(k) : events_at(direct) + (k - direct) * step;
        checks_.expect(m.violations == events, "monitor violations differ from the window checker");
        checks_.expect(m.verdict == (events == 0), "monitor verdict disagrees with its summary");
        violations_seen_ += m.violations > 0 ? 1 : 0;
      }
    }
  }

  void layer_metrics(std::vector<Metric>& out) override {
    const double ops = static_cast<double>(std::max<std::size_t>(1, attempted_));
    std::vector<double> handoff_ms;
    double compile_ms = 0;
    std::size_t schedules_found = 0;
    for (const Client& cl : clients_) {
      handoff_ms.insert(handoff_ms.end(), cl.handoff_ms.begin(), cl.handoff_ms.end());
      compile_ms += cl.compile_ms;
      schedules_found += cl.schedules_found;
    }
    const double lookups = static_cast<double>(health_.cache_hits + health_.cache_misses);
    // The service compiles internally; spec.compile_s is the direct
    // compile time of the specs behind requests that ran an engine.
    out.push_back({"spec.compile_s", compile_ms / 1e3 / ops});
    out.push_back({"svc.submit_s", per_op("svc.submit")});
    out.push_back({"svc.protocol_s", per_op("svc.protocol")});
    out.push_back({"svc.handoff_ms_p50", percentile(handoff_ms, 0.50)});
    out.push_back({"svc.handoff_ms_p99", percentile(handoff_ms, 0.99)});
    out.push_back({"svc.cache_hits", static_cast<double>(health_.cache_hits) / ops});
    out.push_back({"svc.cache_misses", static_cast<double>(health_.cache_misses) / ops});
    out.push_back({"svc.cache_hit_ratio",
                   lookups == 0 ? 0.0 : static_cast<double>(health_.cache_hits) / lookups});
    out.push_back({"svc.retries", static_cast<double>(health_.retries)});
    out.push_back({"svc.redeliveries", static_cast<double>(health_.redeliveries)});
    out.push_back({"svc.deferred", static_cast<double>(health_.deferred)});
    out.push_back({"svc.degraded_jobs", static_cast<double>(health_.degraded_jobs)});
    out.push_back({"svc.snapshot_load_s", snapshot_load_s_});
    out.push_back({"svc.snapshot_save_s", snapshot_save_s_});
    out.push_back({"schedules_found", static_cast<double>(schedules_found)});
  }

  void collect_spans(std::vector<const Tracer*>& out) const override {
    for (const Client& cl : clients_) out.push_back(&cl.tracer);
  }

  [[nodiscard]] std::string notes() const override {
    return "\"requests_per_round\": " + std::to_string(kRound) +
           ", \"window\": " + std::to_string(kWindow) + ", \"workers\": " +
           std::to_string(kWorkers) + ", \"cache_hits\": " + std::to_string(health_.cache_hits) +
           ", \"cache_misses\": " + std::to_string(health_.cache_misses) +
           ", \"monitor_responses_with_violations\": " + std::to_string(violations_seen_);
  }

 protected:
  [[nodiscard]] std::size_t round_size() const override { return kRound; }
  bool run_op(std::size_t) override { return true; }  // the clients drive the loop

 private:
  struct SpecInput {
    std::string text, verify, broken, rtt;
    std::vector<std::int64_t> trace_slots;
    oracle::Model pipelined;
    // Direct engine answers (n_threads = 1, as the service runs them).
    bool verify_ok = false, broken_ok = false, synth_ok = false;
    // Direct call times (traced run only), in ms.
    double compile_ms = 0, verify_ms = 0, broken_ms = 0, synth_ms = 0, monitor_ms = 0;
    std::uint64_t synth_hash = 0;  ///< of the direct call's schedule text
  };
  struct Answer {
    bool ok = false;
    std::string error;
    svc::JobStatus status = svc::JobStatus::kFailed;
    bool verdict = false;
    bool cached = false;
    std::uint64_t detail_hash = 0;
    double latency_ms = 0;
  };
  struct MonitorObs {
    std::size_t tenant = 0;
    std::size_t slots = 0;
    std::size_t violations = 0;
    bool verdict = false;
  };
  // One client thread's state; merged after the run.
  struct Client {
    explicit Client(bool trace) : tracer(trace) {}
    Tracer tracer;
    Checks checks;
    // Per-request logs grow in fixed blocks: a vector's doubling would
    // put the benchmark's own reallocations, a few MB at a time
    // depending on how many requests a run completes, into the
    // process's peak memory.
    std::deque<double> latencies_ms;
    std::size_t failed = 0;
    std::deque<MonitorObs> monitor;
    std::vector<double> handoff_ms;
    double compile_ms = 0;
    std::size_t schedules_found = 0;
  };
  // What a round slot asks for.
  struct Proto {
    svc::JobKind kind;
    std::size_t spec;
    std::size_t variant;
  };

  // Violation events of one constraint among the windows that close
  // within the first `slots` slots of the stream: the closed windows are
  // a prefix of the violated starts, so the events are a prefix count.
  struct ClosedEvents {
    ClosedEvents(const oracle::Constraint& c, const oracle::WindowCount& w)
        : deadline(c.deadline) {
      const Time stride = c.periodic ? c.period : 1;
      for (std::size_t i = 0; i < w.violated_starts.size(); ++i) {
        const Time t = w.violated_starts[i];
        const bool opens = i == 0 || t != w.violated_starts[i - 1] + stride;
        starts.push_back(t);
        events.push_back((events.empty() ? 0 : events.back()) + (opens ? 1 : 0));
      }
    }
    [[nodiscard]] std::size_t within(std::size_t slots) const {
      const Time last = static_cast<Time>(slots) - deadline;
      const auto n = static_cast<std::size_t>(
          std::upper_bound(starts.begin(), starts.end(), last) - starts.begin());
      return n == 0 ? 0 : events[n - 1];
    }
    Time deadline;
    std::vector<Time> starts;
    std::vector<std::size_t> events;
  };

  [[nodiscard]] svc::ServiceOptions options() const {
    svc::ServiceOptions o;
    o.workers = kWorkers;
    o.admission.tenant_rate = 1e9;  // quotas sized so nothing is shed
    o.admission.tenant_burst = 1e9;
    o.admission.max_pending = 1024;
    o.snapshot_path = snapshot_path_;
    return o;
  }

  // The request payloads of one corpus scenario and the direct engine
  // answers they must get; nullopt when its synthesized schedule length
  // is outside kMinSlots..kMaxSlots.
  std::optional<SpecInput> make_input(const gen::Scenario& sc) {
    const core::GraphModel model = *rtg::spec::compile_text(sc.spec).model;
    const core::GraphModel pm = core::pipeline_model(model).model;
    core::HeuristicOptions ho;
    ho.n_threads = 1;
    const core::HeuristicResult hr = core::latency_schedule(model, ho);
    if (!hr.success || hr.schedule->length() < kMinSlots || hr.schedule->length() > kMaxSlots) {
      return std::nullopt;
    }
    SpecInput in;
    in.text = sc.spec;
    in.synth_ok = true;
    // The service must return exactly this schedule; it must pass the
    // window checker.
    in.synth_hash =
        std::hash<std::string>{}(core::schedule_to_text(*hr.schedule, hr.scheduled_model.comm()));
    checks_.expect(oracle::check_schedule(to_oracle(hr.scheduled_model), to_oracle(*hr.schedule))
                       .feasible,
                   "synthesized schedule fails the window checker");
    in.verify = core::schedule_to_text(*hr.schedule, pm.comm());
    // The same schedule with its first execution idled.
    core::StaticSchedule broken;
    bool dropped = false;
    for (const auto& e : hr.schedule->entries()) {
      if (e.elem == core::kIdleEntry || !dropped) {
        broken.push_idle(e.duration);
        dropped = dropped || e.elem != core::kIdleEntry;
      } else {
        broken.push_execution(e.elem, e.duration);
      }
    }
    in.broken = core::schedule_to_text(broken, pm.comm());
    auto verdict = [&](const std::string& text) {
      const auto parsed = core::schedule_from_text(text, pm.comm());
      return parsed.ok() &&
             core::verify_schedule(*parsed.schedule, pm, core::VerifyOptions{.n_threads = 1}).feasible;
    };
    in.verify_ok = verdict(in.verify);
    in.broken_ok = verdict(in.broken);
    const auto periods = static_cast<std::size_t>(
        (kTraceSlots + hr.schedule->length() - 1) / hr.schedule->length());
    rtg::sim::ExecutionTrace trace = hr.schedule->to_trace(periods);
    if (specs_.size() == kTenants - 1) {
      // One tenant streams a trace with an outage a quarter of its
      // length long, so its monitor reports violations.
      std::vector<rtg::sim::Slot> slots = trace.slots();
      const std::size_t a = slots.size() / 3;
      std::fill(slots.begin() + static_cast<std::ptrdiff_t>(a),
                slots.begin() + static_cast<std::ptrdiff_t>(a + slots.size() / 4), rtg::sim::kIdle);
      trace = rtg::sim::ExecutionTrace(std::move(slots));
    }
    in.trace_slots = to_slots(trace);
    in.pipelined = to_oracle(pm);
    std::ostringstream rtt;
    monitor::write_trace(rtt, trace, monitor::model_fingerprint(pm));
    in.rtt = rtt.str();
    if (tracer_.on()) {
      in.compile_ms = time_direct([] {}, in.text);
      in.verify_ms = time_direct([&] { (void)verdict(in.verify); }, in.text);
      in.broken_ms = time_direct([&] { (void)verdict(in.broken); }, in.text);
      in.synth_ms = time_direct([&] { (void)core::latency_schedule(model, ho); }, in.text);
      in.monitor_ms = time_direct(
          [&] {
            const auto f = monitor::read_trace_buffer(in.rtt);
            monitor::StreamingMonitor mon(pm);
            for (auto s : f.trace.slots()) mon.on_slot(s);
          },
          in.text);
    }
    return in;
  }

  // Median of three direct calls, compile included as in the service.
  template <typename F>
  static double time_direct(F&& f, const std::string& text) {
    std::vector<double> t;
    for (int i = 0; i < 3; ++i) {
      const auto a = Clock::now();
      (void)rtg::spec::compile_text(text);
      f();
      t.push_back(1e3 * seconds_between(a, Clock::now()));
    }
    return percentile(t, 0.5);
  }

  // The slot order of a round: the first-occurrence slots shuffled,
  // then the repeats (cache reads) shuffled, per round and seed.
  [[nodiscard]] std::vector<std::size_t> slot_order(std::size_t round) const {
    std::vector<std::size_t> first, repeat;
    for (std::size_t i = 0; i < protos_.size(); ++i) (i < kFirst ? first : repeat).push_back(i);
    std::mt19937_64 rng(mix(order_seed_, round));
    std::shuffle(first.begin(), first.end(), rng);
    std::shuffle(repeat.begin(), repeat.end(), rng);
    first.insert(first.end(), repeat.begin(), repeat.end());
    return first;
  }

  // Slot `slot` of round `round`. Verify and synth specs carry a round
  // tag, so each round's first occurrence misses the result cache.
  [[nodiscard]] svc::JobRequest request(std::size_t round, std::size_t slot) const {
    const Proto& p = protos_[slot_order(round)[slot]];
    svc::JobRequest r;
    r.id = (static_cast<std::uint64_t>(round + 1) << 20) | (slot << 8) | (p.spec << 2) | p.variant;
    r.tenant = "tenant-" + std::to_string(p.spec % kTenants);
    r.kind = p.kind;
    const SpecInput& in = specs_[p.spec];
    if (p.kind == svc::JobKind::kMonitor) {
      r.spec = in.text;
      r.trace = in.rtt;
    } else {
      r.spec = in.text + "\n# round " + std::to_string(static_cast<long long>(round)) + "\n";
    }
    if (p.kind == svc::JobKind::kVerify) r.schedule = p.variant == 0 ? in.verify : in.broken;
    return r;
  }
  static std::size_t spec_of(std::uint64_t id) { return (id >> 2) & 0x3f; }
  static std::size_t variant_of(std::uint64_t id) { return id & 3; }

  static std::vector<Proto> make_protos() {
    std::vector<Proto> first, repeat;
    for (std::size_t j = 0; j < kSpecs; ++j) {
      first.push_back({svc::JobKind::kVerify, j, 0});
      first.push_back({svc::JobKind::kSynthesize, j, 0});
      if (j % 2 == 0) first.push_back({svc::JobKind::kVerify, j, 1});
      if (j < kTenants) first.push_back({svc::JobKind::kMonitor, j, 0});
      repeat.push_back({svc::JobKind::kVerify, j, 0});
      repeat.push_back({svc::JobKind::kSynthesize, j, 0});
    }
    first.insert(first.end(), repeat.begin(), repeat.end());
    return first;
  }

  // Takes the next request index, or nothing once the run has stopped.
  std::optional<std::size_t> take() {
    std::lock_guard<std::mutex> lock(take_mutex_);
    if (next_ >= stop_at_) return std::nullopt;
    return next_++;
  }

  // A client thread's entry: an exception is recorded as a failed
  // check, and the client stops taking requests.
  void client_loop(Client& cl, std::atomic<std::size_t>& completed) {
    try {
      serve(cl, completed);
    } catch (const std::exception& e) {
      cl.checks.expect(false, std::string("client stopped: ") + e.what());
    }
  }

  void serve(Client& cl, std::atomic<std::size_t>& completed) {
    while (const auto g = take()) {
      const svc::JobRequest req = request(*g / kRound, *g % kRound);
      std::string detail;
      cl.tracer.set_op(*g);
      const auto a = Clock::now();
      Answer ans = one_request(cl.tracer, req, detail);
      ans.latency_ms = 1e3 * seconds_between(a, Clock::now());
      completed.fetch_add(1);
      cl.latencies_ms.push_back(ans.latency_ms);
      cl.failed += ans.ok && ans.status == svc::JobStatus::kOk ? 0 : 1;
      check_answer(cl, req, ans, detail);
    }
  }

  // One request through the protocol and the service; the response body
  // goes to `detail`.
  Answer one_request(Tracer& tr, const svc::JobRequest& req, std::string& detail) {
    Answer a;
    try {
      std::optional<svc::JobRequest> decoded;
      {
        Span s(tr, "svc.protocol");
        std::ostringstream frame;
        svc::write_request(frame, req);
        std::istringstream in(frame.str());
        decoded = svc::read_request(in);
      }
      if (!decoded) throw svc::ProtocolError("empty request frame");
      std::future<svc::JobResponse> f;
      {
        Span s(tr, "svc.submit");
        f = service_->submit(std::move(*decoded));
      }
      svc::JobResponse rsp;
      {
        Span s(tr, "svc.wait");
        rsp = f.get();
      }
      std::optional<svc::JobResponse> back;
      {
        Span s(tr, "svc.protocol");
        std::ostringstream frame;
        svc::write_response(frame, rsp);
        std::istringstream in(frame.str());
        back = svc::read_response(in);
      }
      if (!back || back->id != req.id) throw svc::ProtocolError("response id mismatch");
      a.status = back->status;
      a.verdict = back->verdict;
      a.cached = back->cached;
      // read_response ends every body line with '\n', so a one-line
      // body comes back with one more byte than was sent.
      if (!back->detail.empty() && back->detail.back() == '\n') back->detail.pop_back();
      a.detail_hash = std::hash<std::string>{}(back->detail);
      detail = std::move(back->detail);
      a.ok = true;
    } catch (const std::exception& e) {
      a.error = e.what();
    }
    return a;
  }

  // Checks one answer against the direct engine calls made in
  // generate(): the verdicts, and the synthesized schedule's text.
  void check_answer(Client& cl, const svc::JobRequest& req, const Answer& a,
                    const std::string& detail) const {
    cl.checks.expect(a.ok, "protocol round trip failed: " + a.error);
    if (!a.ok) return;
    cl.checks.expect(a.status == svc::JobStatus::kOk, "response status is not ok");
    const std::size_t j = spec_of(req.id);
    const SpecInput& in = specs_[j];
    double direct_ms = in.monitor_ms;
    if (req.kind == svc::JobKind::kVerify) {
      const bool good = variant_of(req.id) == 0;
      cl.checks.expect(a.verdict == (good ? in.verify_ok : in.broken_ok),
                       "verify verdict differs from the direct engine call");
      direct_ms = good ? in.verify_ms : in.broken_ms;
    } else if (req.kind == svc::JobKind::kSynthesize) {
      cl.checks.expect(a.verdict == in.synth_ok, "synth verdict differs from the direct engine call");
      cl.checks.expect(a.detail_hash == in.synth_hash,
                       "synthesized schedule differs from the direct engine call's");
      cl.schedules_found += a.verdict ? 1 : 0;
      direct_ms = in.synth_ms;
    } else {
      cl.monitor.push_back(MonitorObs{j, parse_field(detail, "slots="),
                                      parse_field(detail, "violations="), a.verdict});
    }
    if (tracer_.on() && !a.cached) {
      cl.handoff_ms.push_back(a.latency_ms - direct_ms);
      if (req.kind != svc::JobKind::kMonitor) cl.compile_ms += in.compile_ms;
    }
  }

  static std::size_t parse_field(const std::string& detail, const char* key) {
    const auto at = detail.find(key);
    return at == std::string::npos ? 0 : std::stoull(detail.substr(at + std::strlen(key)));
  }

  static constexpr std::size_t kFirst = 2 * kSpecs + kSpecs / 2 + kTenants;

  std::string snapshot_path_;
  std::vector<SpecInput> specs_;
  const std::vector<Proto> protos_ = make_protos();
  std::uint64_t order_seed_ = 0;
  std::unique_ptr<svc::VerifyService> service_;
  std::mutex take_mutex_;
  std::size_t next_ = 0;
  std::size_t stop_at_ = static_cast<std::size_t>(-1);
  std::vector<Client> clients_;
  svc::ServiceHealth health_;
  double snapshot_load_s_ = 0;
  double snapshot_save_s_ = 0;
  std::size_t violations_seen_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_service_batch(bool trace, const std::string& scratch) {
  return std::make_unique<ServiceBatch>(trace, scratch);
}

}  // namespace perfbench
