// fault_heal: the fault plan -> healed run path. One operation takes one
// mapped-corpus scenario, runs map::deploy_tolerant (k = 1), then
// map::run_deployment_with_faults healed and blind under a seeded
// platform fault plan; on one processor it runs rt::run_self_healing and
// core::run_executive_with_faults under a seeded element fault plan and
// feeds the healed trace to a monitor::StreamingMonitor.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "adapt.hpp"
#include "core/fault_injection.hpp"
#include "core/heuristic.hpp"
#include "gen/generator.hpp"
#include "map/fault_tolerance.hpp"
#include "monitor/streaming_monitor.hpp"
#include "oracle.hpp"
#include "rt/recovery.hpp"
#include "rt/scheduler.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = rtg::core;
namespace gen = rtg::gen;
namespace mapx = rtg::map;
namespace rt = rtg::rt;
namespace monitor = rtg::monitor;
using core::Time;
using Span = Tracer::Span;

class FaultHeal final : public Workload {
 public:
  static constexpr Time kPlatformHorizon = 600;
  static constexpr Time kRepair = 60;
  static constexpr Time kLocalHorizon = 2000;
  static constexpr double kDropRate = 0.05;

  using Workload::Workload;

  // Mapped-corpus indices 0..47 whose nominal deployment succeeds,
  // except 29: its deploy_tolerant alone takes about 2.3 s, more than a
  // round of all the others together (README "fault_heal").
  static const std::vector<std::uint64_t>& scenarios() {
    static const std::vector<std::uint64_t> kKept = {
        0,  1,  2,  3,  4,  5,  6,  8,  10, 12, 13, 14, 15, 16, 17, 18, 19, 20,
        22, 24, 25, 26, 27, 28, 30, 32, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45};
    return kKept;
  }

  void generate(std::uint64_t seed) override {
    for (std::uint64_t idx : scenarios()) {
      Scenario sc;
      sc.index = idx;
      sc.gen = gen::generate(gen::mapped_corpus_options(idx));
      sc.platform_plan = mapx::make_platform_fault_plan(mix(seed, 10 + idx), *sc.gen.hardware,
                                                        kPlatformHorizon, 0.004, 0.002, kRepair,
                                                        0.002);
      sc.element_plan.seed = mix(seed, 20 + idx);
      sc.element_plan.faults.push_back(core::FaultSpec{
          .kind = core::FaultKind::kDrop, .begin = 0, .end = kLocalHorizon, .rate = kDropRate});
      scenarios_.push_back(std::move(sc));
    }
    fingerprint_.resize(scenarios_.size());
  }

  // The program's set-up: the cutoff calibration, and the synthesis of
  // each scenario's uniprocessor schedule and failover table that the
  // timed self-healing runs use.
  void setup() override {
    decisions_.cutoff = core::serial_parallel_cutoff();
    for (Scenario& sc : scenarios_) {
      core::HeuristicResult hr = core::latency_schedule(sc.gen.model);
      if (!hr.success) continue;
      try {
        sc.table = rt::compute_failover_table(hr.scheduled_model, {*hr.schedule});
      } catch (const std::invalid_argument&) {
        continue;  // too many admissibility cells for a failover table
      }
      sc.local_model = std::move(hr.scheduled_model);
      sc.schedule = std::move(*hr.schedule);
      for (const core::TimingConstraint& c : sc.local_model->constraints()) {
        sc.arrivals.push_back(c.periodic() ? std::vector<Time>{}
                                           : rt::max_rate_arrivals(c.period, kLocalHorizon));
      }
    }
  }

  void layer_metrics(std::vector<Metric>& out) override {
    const double n = static_cast<double>(std::max<std::size_t>(1, attempted_));
    const double ingest_s = per_op("monitor.ingest");
    auto mean = [&](std::size_t x) { return static_cast<double>(x) / n; };
    out.push_back({"map.deploy_s", per_op("map.deploy")});
    out.push_back({"map.seam_windows", mean(sum_.seam_windows)});
    out.push_back({"map.seam_index_seeks", mean(sum_.seam_seeks)});
    out.push_back({"map.migration_entries", mean(sum_.migration_entries)});
    out.push_back({"map.run_s", per_op("map.run")});
    out.push_back({"map.proof_checks", mean(sum_.proof_checks)});
    out.push_back({"map.migrations", mean(sum_.migrations)});
    out.push_back({"map.reroutes", mean(sum_.reroutes)});
    out.push_back({"map.outages", mean(sum_.outages)});
    out.push_back({"rt.self_healing_s", per_op("rt.self_healing")});
    out.push_back({"core.executive_faults_s", per_op("core.executive_faults")});
    out.push_back({"rt.recovery_actions", mean(sum_.actions)});
    out.push_back({"monitor.ingest_s", ingest_s});
    out.push_back({"monitor.slots_per_s",
                   ingest_s == 0 ? 0.0 : mean(sum_.slots) / ingest_s});
    out.push_back({"monitor.violations", mean(sum_.violations)});
    out.push_back({"windows_met", static_cast<double>(sum_.windows_met)});
  }

  [[nodiscard]] std::string notes() const override {
    return "\"scenarios\": " + std::to_string(scenarios_.size()) +
           ", \"windows_met\": " + std::to_string(sum_.windows_met) +
           ", \"local_violated_windows\": " + std::to_string(local_violated_) +
           ", \"undecided_traces\": " + std::to_string(undecided_);
  }

 protected:
  [[nodiscard]] std::size_t round_size() const override { return scenarios_.size(); }

  bool run_op(std::size_t i) override {
    Scenario& sc = scenarios_[i];
    mapx::TolerantOptions topts;
    topts.k = 1;
    {
      Span s(tracer_, "map.deploy");
      out_.td = mapx::deploy_tolerant(sc.gen.model, *sc.gen.hardware, topts);
    }
    if (!out_.td->success) return false;
    {
      Span s(tracer_, "map.run");
      mapx::FaultRunOptions o;
      out_.healed = mapx::run_deployment_with_faults(*out_.td, sc.platform_plan, kPlatformHorizon, o);
      o.heal = false;
      out_.blind = mapx::run_deployment_with_faults(*out_.td, sc.platform_plan, kPlatformHorizon, o);
    }
    if (!sc.local_model) return true;
    rt::SelfHealingConfig cfg;
    cfg.faults = sc.element_plan;
    {
      Span s(tracer_, "rt.self_healing");
      out_.local = rt::run_self_healing(*sc.local_model, *sc.table, sc.arrivals, kLocalHorizon, cfg);
    }
    {
      Span s(tracer_, "core.executive_faults");
      out_.local_blind = core::run_executive_with_faults(*sc.schedule, *sc.local_model,
                                                         sc.arrivals, kLocalHorizon,
                                                         sc.element_plan);
    }
    monitor::StreamingMonitor mon(*sc.local_model);
    {
      Span s(tracer_, "monitor.ingest");
      for (auto slot : out_.local->trace.slots()) mon.on_slot(slot);
    }
    out_.monitor = mon.report();
    return true;
  }

  void after_op(std::size_t i) override {
    if (out_.td && out_.td->success) record(i);
    out_ = Out{};
  }

 private:
  struct Scenario {
    std::uint64_t index = 0;
    gen::Scenario gen;
    core::FaultPlan platform_plan;
    core::FaultPlan element_plan;
    std::optional<core::GraphModel> local_model;
    std::optional<core::StaticSchedule> schedule;
    std::optional<rt::FailoverTable> table;
    core::ConstraintArrivals arrivals;
  };
  struct Out {
    std::optional<mapx::TolerantDeployment> td;
    mapx::PlatformFaultRun healed, blind;
    std::optional<rt::SelfHealingResult> local;
    std::optional<core::FaultRunResult> local_blind;
    std::optional<monitor::MonitorReport> monitor;
  };
  struct Sums {
    std::size_t seam_windows = 0, seam_seeks = 0, migration_entries = 0, proof_checks = 0,
                migrations = 0, reroutes = 0, outages = 0, actions = 0, violations = 0,
                slots = 0, windows_met = 0;
  };

  void record(std::size_t i) {
    const Out& o = out_;
    sum_.seam_windows += o.td->base.seam_stats.windows;
    sum_.seam_seeks += o.td->base.seam_stats.index_seeks;
    sum_.migration_entries += o.td->table.size();
    sum_.proof_checks += o.healed.proof_checks;
    sum_.migrations += o.healed.migrations;
    sum_.reroutes += o.healed.reroutes;
    sum_.outages += o.healed.outages;
    sum_.windows_met += o.healed.windows_ok;
    if (o.local) {
      sum_.actions += o.local->actions.size();
      sum_.violations += o.monitor->violations.size();
      sum_.slots += o.local->trace.size();
    }
    Fnv fp;
    fp.add(o.healed.fingerprint());
    fp.add(o.blind.fingerprint());
    if (o.local) {
      for (auto s : o.local->trace.slots()) fp.add(s);
      fp.add(o.monitor->violations.size());
      fp.add(o.local_blind->satisfied_count());
    }
    if (fingerprint_[i]) {
      checks_.expect(*fingerprint_[i] == fp.h, "mapped index " +
                                                   std::to_string(scenarios_[i].index) +
                                                   ": run differs from its first round");
      return;
    }
    fingerprint_[i] = fp.h;
    check_first(i);
  }

  void check_first(std::size_t i) {
    const Out& o = out_;
    const Scenario& sc = scenarios_[i];
    const std::string tag = "mapped index " + std::to_string(sc.index);
    checks_.expect(o.healed.windows_ok >= o.blind.windows_ok,
                   tag + ": healed run met fewer windows than blind");
    checks_.expect(o.healed.proof_failures == 0, tag + ": a migration failed its re-proof");
    mapx::FaultRunOptions wide;
    wide.seam_threads = 4;
    const mapx::PlatformFaultRun w =
        mapx::run_deployment_with_faults(*o.td, sc.platform_plan, kPlatformHorizon, wide);
    checks_.expect(w.fingerprint() == o.healed.fingerprint(),
                   tag + ": run differs between seam_threads 1 and 4");
    if (!o.local) return;
    // The monitor against the checker, on the same healed trace.
    const oracle::Model om = to_oracle(*sc.local_model);
    const auto execs = oracle::decode_trace(to_slots(o.local->trace), om.weight);
    const auto horizon = static_cast<Time>(o.local->trace.size());
    std::size_t violated = 0, events = 0, monitor_violated = 0;
    for (const oracle::Constraint& oc : om.constraints) {
      const oracle::WindowCount wc = oracle::finite_windows(oc, execs, horizon);
      if (!wc.decided) {
        ++undecided_;
        return;
      }
      violated += wc.violated;
      events += wc.events;
    }
    for (const auto& h : o.monitor->health) monitor_violated += h.windows_violated;
    checks_.expect(monitor_violated == violated,
                   tag + ": monitor's violated windows differ from the window checker");
    checks_.expect(o.monitor->violations.size() == events,
                   tag + ": monitor's violation events differ from the window checker");
    local_violated_ += violated;
  }

  std::vector<Scenario> scenarios_;
  std::vector<std::optional<std::uint64_t>> fingerprint_;
  Out out_;
  Sums sum_;
  std::size_t undecided_ = 0;
  std::size_t local_violated_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fault_heal(bool trace) { return std::make_unique<FaultHeal>(trace); }

}  // namespace perfbench
