// spec_compiler — command-line front end: compile a .rts requirements
// specification into a graph-based model instance, synthesize a static
// schedule, and emit artifacts.
//
//   $ ./spec_compiler <file.rts> [--dot] [--schedule] [--processes]
//                     [--emit] [--exact] [--map N] [--mapper <name>]
//                     [--threads N] [--save <sched>] [--verify <sched>]
//                     [--emit-trace <trace.rtt>] [--monitor]
//   $ echo "element a" | ./spec_compiler -
//
// Exit status: 0 on success, 1 on spec or usage errors, 2 on synthesis
// failure, 3 on an internal error (reported as one line, never an
// unhandled exception).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/feasibility.hpp"
#include "core/heuristic.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/schedule_io.hpp"
#include "core/synthesis.hpp"
#include "graph/dot.hpp"
#include "map/deploy.hpp"
#include "map/fault_tolerance.hpp"
#include "monitor/streaming_monitor.hpp"
#include "monitor/trace_capture.hpp"
#include "monitor/trace_io.hpp"
#include "rt/analysis.hpp"
#include "rt/recovery.hpp"
#include "rt/scheduler.hpp"
#include "rt/task.hpp"
#include "sim/trace.hpp"
#include "gen/generator.hpp"
#include "spec/compile.hpp"
#include "spec/emit.hpp"

using namespace rtg;

namespace {

// Rotates a cyclic schedule left by `k` entries — the cheap way to get
// a distinct-but-often-feasible fallback candidate for --recovery.
core::StaticSchedule rotate_entries(const core::StaticSchedule& s, std::size_t k) {
  core::StaticSchedule r;
  const std::vector<core::ScheduleEntry>& es = s.entries();
  for (std::size_t i = 0; i < es.size(); ++i) {
    const core::ScheduleEntry& e = es[(i + k) % es.size()];
    if (e.elem == core::kIdleEntry) {
      r.push_idle(e.duration);
    } else {
      r.push_execution(e.elem, e.duration);
    }
  }
  return r;
}

// Re-targets a fault plan parsed against the source model onto the
// software-pipelined model the schedule runs on: a spec naming element
// `fs` fans out to every pipelined replica (`fs/0`, `fs/1`, ...).
// Constraint indices are stable across pipelining.
core::FaultPlan remap_plan(const core::FaultPlan& plan, const core::CommGraph& from,
                           const core::CommGraph& to) {
  core::FaultPlan out;
  out.seed = plan.seed;
  for (const core::FaultSpec& spec : plan.faults) {
    if (spec.element == core::kAnyElement) {
      out.faults.push_back(spec);
      continue;
    }
    const std::string& name = from.name(spec.element);
    for (core::ElementId e = 0; e < static_cast<core::ElementId>(to.size()); ++e) {
      const std::string& candidate = to.name(e);
      if (candidate == name || candidate.rfind(name + "/", 0) == 0) {
        core::FaultSpec copy = spec;
        copy.element = e;
        out.faults.push_back(copy);
      }
    }
  }
  return out;
}

// One-line diagnostic + non-zero exit for a bad invocation; the full
// usage text is reserved for bare `spec_compiler`.
int flag_error(const std::string& message) {
  std::fprintf(stderr, "spec_compiler: error: %s\n", message.c_str());
  return 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: spec_compiler <file.rts | - | --gen <opts>> [--dot] [--schedule] "
               "[--processes] [--emit] [--exact] [--analyze] [--map N]\n"
               "                     [--mapper <greedy|sa|spd|roundrobin|lpt|comm>]\n"
               "                     [--threads N] [--save <sched>] [--verify <sched>]\n"
               "                     [--stats] [--emit-trace <trace.rtt>] [--monitor]\n"
               "                     [--inject <plan.fp>] [--recovery] [--tolerate K]\n"
               "  --map N       mapped deployment on N processors (shared bus\n"
               "                unless the spec declares processor/bus/link\n"
               "                lines): mapper portfolio, per-processor\n"
               "                synthesis, link slot tables, sharded + seam\n"
               "                verification\n"
               "  --mapper      portfolio member for --map (default greedy)\n"
               "  --gen         generate a seeded scenario instead of reading a\n"
               "                file; opts are comma-separated key=value pairs,\n"
               "                e.g. topology=layered,seed=17,util=0.4 or\n"
               "                domain=avionics,seed=3 (see docs/SCENARIOS.md)\n"
               "  --threads N   worker threads for verification and synthesis\n"
               "                (0 = hardware concurrency, 1 = serial; the\n"
               "                --exact search is always single-threaded)\n"
               "  --stats       with --verify or --map: print the engine\n"
               "                counters (queries, memo hits, seeks, bitset\n"
               "                skips, arena peak, threads; seam windows)\n"
               "  --emit-trace  capture the synthesized schedule's execution\n"
               "                trace to a binary .rtt file (replay with\n"
               "                trace_replay)\n"
               "  --monitor     run the online streaming monitor over the\n"
               "                synthesized trace and print its health report\n"
               "  --inject      run the synthesized schedule under a fault plan\n"
               "                (format: docs/FAULTS.md) and report survival;\n"
               "                with --map the plan must hold *platform* faults\n"
               "                (procfail/linkfail/linkdegrade) and the mapped\n"
               "                deployment is run healed vs blind\n"
               "  --recovery    rerun the faulted horizon under the self-healing\n"
               "                executive (retry / resync / verified failover)\n"
               "  --tolerate K  with --map: k-failure-tolerant deployment — a\n"
               "                proof-checked MigrationTable entry per failure\n"
               "                set of at most K processors\n");
  return 1;
}

}  // namespace

namespace {
int run(int argc, char** argv);
}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // Synthesis and analysis can throw (lcm overflow, absurd weights,
    // I/O failures); a tool must turn that into a diagnostic, not a
    // terminate() after partial output.
    std::fprintf(stderr, "spec_compiler: error: %s\n", e.what());
    return 3;
  }
}

namespace {
int run(int argc, char** argv) {
  if (argc < 2) return usage();
  bool want_dot = false, want_schedule = false, want_processes = false;
  bool want_emit = false, want_exact = false, want_analyze = false;
  std::size_t map_procs = 0;
  std::size_t tolerate = 0;
  const char* mapper_name = "greedy";
  std::size_t n_threads = 0;  // 0 = hardware concurrency
  const char* path = nullptr;
  const char* save_path = nullptr;
  const char* verify_path = nullptr;
  const char* emit_trace_path = nullptr;
  const char* inject_path = nullptr;
  const char* gen_spec = nullptr;
  bool want_monitor = false;
  bool want_recovery = false;
  bool want_stats = false;
  // Value-taking flags must fail loudly when the value is missing; the
  // old `&& i + 1 < argc` guards silently demoted e.g. a bare `--save`
  // into the input path.
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "spec_compiler: error: %s requires a value\n", argv[i]);
      std::exit(1);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dot") == 0) {
      want_dot = true;
    } else if (std::strcmp(argv[i], "--schedule") == 0) {
      want_schedule = true;
    } else if (std::strcmp(argv[i], "--processes") == 0) {
      want_processes = true;
    } else if (std::strcmp(argv[i], "--analyze") == 0) {
      want_analyze = true;
    } else if (std::strcmp(argv[i], "--emit") == 0) {
      want_emit = true;
    } else if (std::strcmp(argv[i], "--exact") == 0) {
      want_exact = true;
    } else if (std::strcmp(argv[i], "--save") == 0) {
      save_path = need_value(i);
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify_path = need_value(i);
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "--emit-trace") == 0) {
      emit_trace_path = need_value(i);
    } else if (std::strcmp(argv[i], "--monitor") == 0) {
      want_monitor = true;
    } else if (std::strcmp(argv[i], "--inject") == 0) {
      inject_path = need_value(i);
    } else if (std::strcmp(argv[i], "--recovery") == 0) {
      want_recovery = true;
    } else if (std::strcmp(argv[i], "--gen") == 0) {
      gen_spec = need_value(i);
    } else if (std::strcmp(argv[i], "--map") == 0) {
      map_procs = static_cast<std::size_t>(std::atoi(need_value(i)));
      if (map_procs == 0) {
        return flag_error("--map requires a positive processor count");
      }
    } else if (std::strcmp(argv[i], "--tolerate") == 0) {
      const int k = std::atoi(need_value(i));
      if (k <= 0) return flag_error("--tolerate requires a positive k");
      tolerate = static_cast<std::size_t>(k);
    } else if (std::strcmp(argv[i], "--mapper") == 0) {
      mapper_name = need_value(i);
      if (map::make_mapper(mapper_name) == nullptr) {
        return flag_error(std::string("unknown mapper '") + mapper_name +
                          "' (greedy, sa, spd, roundrobin, lpt, comm)");
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const int n = std::atoi(need_value(i));
      if (n < 0) return flag_error("--threads requires a non-negative count");
      n_threads = static_cast<std::size_t>(n);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      return flag_error(std::string("unknown flag '") + argv[i] + "'");
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return flag_error(std::string("unexpected extra argument '") + argv[i] +
                        "' (input path already given)");
    }
  }
  if (gen_spec != nullptr && path != nullptr) {
    return flag_error("--gen replaces the input file; drop '" + std::string(path) +
                      "'");
  }
  if (path == nullptr && gen_spec == nullptr) {
    return flag_error("no input file (use '-' for stdin, or --gen)");
  }
  if (want_monitor && emit_trace_path == nullptr) {
    return flag_error("--monitor requires --emit-trace (the monitor replays the captured trace)");
  }
  if (want_stats && verify_path == nullptr && map_procs == 0) {
    return flag_error(
        "--stats requires --verify or --map (it reports the engine counters)");
  }
  if (tolerate > 0 && map_procs == 0) {
    return flag_error("--tolerate requires --map (it is a mapped-deployment knob)");
  }
  if (want_recovery && map_procs > 0) {
    return flag_error(
        "--recovery is the uniprocessor executive; use --inject with --map for "
        "platform faults");
  }
  // --inject with --map feeds the mapped fault run, not the
  // uniprocessor executive.
  if (save_path != nullptr || emit_trace_path != nullptr || want_monitor ||
      (inject_path != nullptr && map_procs == 0) || want_recovery) {
    want_schedule = true;
  }
  if (!want_dot && !want_processes && !want_emit && !want_exact && !want_analyze &&
      map_procs == 0 && verify_path == nullptr) {
    want_schedule = true;
  }

  std::string text;
  if (gen_spec != nullptr) {
    std::string error;
    const std::optional<gen::ScenarioOptions> options =
        gen::parse_scenario_spec(gen_spec, &error);
    if (!options) return flag_error("--gen: " + error);
    const gen::Scenario scenario = gen::generate(*options);
    std::fprintf(stderr, "generated: %s fingerprint %016llx (--gen %s)\n",
                 scenario.name.c_str(),
                 static_cast<unsigned long long>(scenario.fingerprint),
                 gen::scenario_spec_string(*options).c_str());
    text = scenario.spec;
    path = "<gen>";
  } else if (std::strcmp(path, "-") == 0) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "spec_compiler: cannot open '%s'\n", path);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  const spec::CompileResult compiled = spec::compile_text(text);
  if (!compiled.ok()) {
    for (const spec::CompileError& e : compiled.errors) {
      std::fprintf(stderr, "%s:%zu: error: %s\n", path, e.line, e.message.c_str());
    }
    return 1;
  }
  const core::GraphModel& model = *compiled.model;
  std::fprintf(stderr, "compiled: %zu elements, %zu constraints, sum w/d = %.3f\n",
               model.comm().size(), model.constraint_count(),
               model.deadline_utilization());

  if (want_dot) {
    std::printf("%s", graph::to_dot(model.comm().digraph(),
                                    {.graph_name = "spec"})
                          .c_str());
  }
  if (want_schedule) {
    core::HeuristicOptions heuristic_options;
    heuristic_options.n_threads = n_threads;
    const core::HeuristicResult synth = core::latency_schedule(model, heuristic_options);
    if (!synth.success) {
      std::fprintf(stderr, "synthesis failed: %s\n", synth.failure_reason.c_str());
      return 2;
    }
    std::printf("# static schedule, length %lld, utilization %.3f\n",
                static_cast<long long>(synth.schedule->length()),
                synth.schedule->utilization());
    std::printf("%s\n", synth.schedule->to_string(synth.scheduled_model.comm()).c_str());
    if (save_path != nullptr) {
      std::ofstream out(save_path);
      if (!out) {
        std::fprintf(stderr, "spec_compiler: cannot write '%s'\n", save_path);
        return 2;
      }
      out << "# schedule for " << path << " (element names follow the\n"
          << "# software-pipelined model; verify with --verify)\n"
          << core::schedule_to_text(*synth.schedule, synth.scheduled_model.comm())
          << "\n";
      std::fprintf(stderr, "saved schedule to %s\n", save_path);
    }
    for (const core::ConstraintVerdict& v : synth.report.verdicts) {
      const core::TimingConstraint& c = synth.scheduled_model.constraint(v.constraint);
      if (v.latency) {
        std::printf("# %s: latency %lld, deadline %lld\n", c.name.c_str(),
                    static_cast<long long>(*v.latency),
                    static_cast<long long>(c.deadline));
      } else {
        std::printf("# %s: periodic windows %s\n", c.name.c_str(),
                    v.satisfied ? "ok" : "MISSED");
      }
    }
    if (emit_trace_path != nullptr || want_monitor) {
      const core::GraphModel& sm = synth.scheduled_model;
      // Repeat the cyclic schedule until every constraint's verdict on
      // the finite trace is decided: lcm with the period for periodic
      // alignment, plus one deadline of lookahead.
      const core::Time length = synth.schedule->length();
      core::Time needed = length;
      for (const core::TimingConstraint& c : sm.constraints()) {
        const core::Time span =
            (c.periodic() ? rt::lcm_checked(length, c.period) : length) + c.deadline;
        needed = std::max(needed, span);
      }
      const auto reps = static_cast<std::size_t>((needed + length - 1) / length);
      const sim::ExecutionTrace trace = synth.schedule->to_trace(reps);

      monitor::RttWriter writer(monitor::model_fingerprint(sm));
      monitor::StreamingMonitor streaming(sm);
      std::vector<sim::TraceSink*> sinks;
      if (emit_trace_path != nullptr) sinks.push_back(&writer);
      if (want_monitor) sinks.push_back(&streaming);
      sim::FanOutSink fan(sinks);
      monitor::CaptureStats capture_stats;
      {
        // Ring sized to the whole trace: the capture path is exercised
        // end to end but lossless, so the .rtt file is exact.
        monitor::TraceCapture capture(fan, trace.size() + 1);
        capture.on_slots(trace.slots());
        capture.close();
        capture_stats = capture.stats();
      }
      std::fprintf(stderr,
                   "captured %llu slots (%zu schedule repetitions, %llu dropped)\n",
                   static_cast<unsigned long long>(capture_stats.produced), reps,
                   static_cast<unsigned long long>(capture_stats.dropped));
      if (emit_trace_path != nullptr) {
        std::ofstream out(emit_trace_path, std::ios::binary);
        if (!out) {
          std::fprintf(stderr, "spec_compiler: cannot write '%s'\n", emit_trace_path);
          return 2;
        }
        writer.finish(out);
        std::fprintf(stderr, "saved trace to %s\n", emit_trace_path);
      }
      if (want_monitor) {
        const monitor::MonitorReport mr = streaming.report();
        std::printf("# monitor: %lld slots, idle %.1f%%, %zu violation events\n",
                    static_cast<long long>(mr.horizon), 100.0 * mr.idle_ratio(),
                    mr.violations.size());
        for (std::size_t i = 0; i < mr.health.size(); ++i) {
          const monitor::ConstraintHealth& h = mr.health[i];
          std::printf("# %s: %zu windows, %zu violated, min slack %s, "
                      "peak buffered ops %zu, embedding queries %zu\n",
                      sm.constraint(i).name.c_str(), h.windows_checked,
                      h.windows_violated,
                      h.min_slack ? std::to_string(*h.min_slack).c_str() : "-",
                      h.peak_buffered_ops, h.embedding_queries);
        }
        if (!mr.ok()) {
          std::fprintf(stderr, "monitor found violations in a verified schedule\n");
          return 2;
        }
      }
    }
    if ((inject_path != nullptr && map_procs == 0) || want_recovery) {
      const core::GraphModel& sm = synth.scheduled_model;
      core::FaultPlan plan;  // empty = fault-free
      if (inject_path != nullptr) {
        std::ifstream in(inject_path);
        if (!in) {
          std::fprintf(stderr, "spec_compiler: cannot open '%s'\n", inject_path);
          return 1;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        // Plans are written against the source model's names; fan each
        // spec out to the pipelined replicas the schedule dispatches.
        const core::FaultPlanParse fp = core::parse_fault_plan(buffer.str(), model);
        if (!fp.ok()) {
          for (const std::string& e : fp.errors) {
            std::fprintf(stderr, "%s: error: %s\n", inject_path, e.c_str());
          }
          return 1;
        }
        plan = remap_plan(*fp.plan, model.comm(), sm.comm());
      }
      // Horizon: enough repetitions to decide every constraint, tripled
      // so stochastic faults get statistical mass.
      const core::Time length = synth.schedule->length();
      core::Time needed = length;
      for (const core::TimingConstraint& c : sm.constraints()) {
        const core::Time span =
            (c.periodic() ? rt::lcm_checked(length, c.period) : length) + c.deadline;
        needed = std::max(needed, span);
      }
      const core::Time horizon = needed * 3;
      core::ConstraintArrivals arrivals(sm.constraint_count());
      for (std::size_t i = 0; i < sm.constraint_count(); ++i) {
        if (!sm.constraint(i).periodic()) {
          arrivals[i] = rt::max_rate_arrivals(sm.constraint(i).period, horizon);
        }
      }
      const core::FaultRunResult baseline = core::run_executive_with_faults(
          *synth.schedule, sm, arrivals, horizon, plan);
      std::printf("# inject: horizon %lld, %zu faulted ops "
                  "(%zu slot-lost, %zu down, %zu dropped, %zu corrupt, "
                  "drift %lld), blind executive %zu/%zu satisfied\n",
                  static_cast<long long>(horizon), baseline.counters.faulted_ops(),
                  baseline.counters.slot_lost, baseline.counters.element_down,
                  baseline.counters.dropped, baseline.counters.corrupted,
                  static_cast<long long>(baseline.counters.drift_slots),
                  baseline.satisfied_count(), baseline.executive.invocations.size());
      if (want_recovery) {
        // Fallback candidates: entry rotations of the synthesized
        // schedule; the first one accepted by the table builder (i.e.
        // verified feasible with an admissible seam check) joins the
        // fleet. With none, the table holds the primary alone and
        // recovery is retry + resync only.
        rt::FailoverOptions fo;
        fo.max_offsets = std::size_t{1} << 22;  // long synthesized schedules
        fo.n_threads = n_threads;
        rt::FailoverTable table;
        bool with_fallback = false;
        const std::size_t n_entries = synth.schedule->entries().size();
        for (std::size_t k = 1; k < std::min<std::size_t>(n_entries, 8) && !with_fallback;
             ++k) {
          try {
            table = rt::compute_failover_table(
                sm, {*synth.schedule, rotate_entries(*synth.schedule, k)}, fo);
            with_fallback = table.admissible_count(0, 1) > 0;
          } catch (const std::invalid_argument&) {
            with_fallback = false;  // infeasible rotation: keep looking
          }
        }
        if (!with_fallback) {
          table = rt::compute_failover_table(sm, {*synth.schedule}, fo);
        }
        rt::SelfHealingConfig config;
        config.faults = plan;
        config.recovery.n_threads = n_threads;
        const rt::SelfHealingResult healed =
            rt::run_self_healing(sm, table, arrivals, horizon, config);
        std::size_t healed_ok = 0;
        for (const core::InvocationRecord& r : healed.executive.invocations) {
          healed_ok += r.satisfied ? 1 : 0;
        }
        std::printf("# recovery: %zu fallback schedules, self-healing %zu/%zu "
                    "satisfied, %zu retries ok, %zu abandoned, %zu failovers "
                    "(%zu blocked), final schedule %zu\n",
                    table.size(), healed_ok, healed.executive.invocations.size(),
                    healed.retries_succeeded, healed.retries_abandoned,
                    healed.failovers(), healed.blocked_switches,
                    healed.final_schedule);
        std::printf("# recovery: detection-to-recovery mean %.2f max %lld, "
                    "monitor %s offline verdicts\n",
                    healed.mean_detection_to_recovery,
                    static_cast<long long>(healed.max_detection_to_recovery),
                    healed.monitor.ok() == healed.executive.all_met
                        ? "agrees with"
                        : "DISAGREES with");
        for (const rt::RecoveryBound& b : rt::recovery_bounds(*synth.schedule, sm)) {
          std::printf("# recovery bound %s: %s\n",
                      sm.constraint(b.constraint).name.c_str(),
                      b.recoverable ? "single-fault recoverable"
                                    : "not provably recoverable");
        }
      }
    }
  }
  if (want_analyze) {
    std::printf("%s", core::render_analysis(core::analyze_model(model), model).c_str());
  }
  if (want_emit) {
    std::printf("%s", spec::emit(model).c_str());
  }
  if (want_exact) {
    core::ExactOptions options;
    options.state_budget = 500'000;
    const core::ExactResult r = core::exact_feasible(model, options);
    switch (r.status) {
      case core::FeasibilityStatus::kFeasible:
        std::printf("# exact: FEASIBLE (%zu states)\n", r.states_explored);
        std::printf("%s\n", r.schedule->to_string(model.comm()).c_str());
        break;
      case core::FeasibilityStatus::kInfeasible:
        std::printf("# exact: INFEASIBLE (%zu states)\n", r.states_explored);
        break;
      case core::FeasibilityStatus::kUnknown:
        std::printf("# exact: UNKNOWN — state budget exhausted (%zu states)\n",
                    r.states_explored);
        break;
    }
  }
  if (map_procs > 0) {
    // A spec-declared platform wins over the default shared bus.
    map::Platform platform;
    if (compiled.platform.has_value()) {
      platform = *compiled.platform;
      if (platform.processors() != map_procs) {
        std::fprintf(stderr,
                     "note: spec declares %zu processors; --map %zu ignored\n",
                     platform.processors(), map_procs);
      }
    } else {
      platform = map::Platform::bus(map_procs);
    }
    map::DeployOptions deploy_options;
    deploy_options.mapper = mapper_name;
    deploy_options.local.n_threads = n_threads;
    deploy_options.seam_threads = n_threads;

    // A fault plan against a mapped deployment must be a *platform*
    // plan; element-level fault kinds belong to the uniprocessor
    // executives (--inject without --map).
    core::FaultPlan platform_plan;
    if (inject_path != nullptr) {
      std::ifstream in(inject_path);
      if (!in) {
        std::fprintf(stderr, "spec_compiler: cannot open '%s'\n", inject_path);
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const core::FaultPlanParse fp = core::parse_fault_plan(
          buffer.str(), model, map::platform_names(platform));
      if (!fp.ok()) {
        for (const std::string& e : fp.errors) {
          std::fprintf(stderr, "%s: error: %s\n", inject_path, e.c_str());
        }
        return 1;
      }
      for (const core::FaultSpec& f : fp.plan->faults) {
        if (!core::is_platform_fault(f.kind)) {
          return flag_error(std::string("--inject with --map: '") +
                            std::string(core::fault_kind_name(f.kind)) +
                            "' is an element-level fault; mapped runs take "
                            "platform faults only (procfail, linkfail, "
                            "linkdegrade) — drop --map or the directive");
        }
      }
      platform_plan = *fp.plan;
    }

    map::TolerantDeployment td;
    map::Deployment deployment;
    const bool tolerant_path = tolerate > 0 || inject_path != nullptr;
    if (tolerant_path) {
      map::TolerantOptions topts;
      topts.k = tolerate > 0 ? tolerate : 1;
      topts.deploy = deploy_options;
      td = map::deploy_tolerant(model, platform, topts);
      if (!td.success) {
        std::fprintf(stderr, "mapped synthesis failed: %s\n",
                     td.failure_reason.c_str());
        return 2;
      }
      std::printf("# tolerant deployment k=%zu: %zu of %zu failure scenarios "
                  "covered by proof-checked migrations\n",
                  td.k, td.table.size(), td.scenarios);
      for (const map::UncoveredScenario& u : td.uncovered) {
        std::string names;
        for (map::ProcId p : u.failed) {
          if (!names.empty()) names += ",";
          names += platform.processor_names[p];
        }
        std::printf("# uncovered {%s}: %s\n", names.c_str(), u.reason.c_str());
      }
      if (tolerate > 0 && !td.tolerant) {
        std::fprintf(stderr,
                     "spec_compiler: deployment is not %zu-failure tolerant "
                     "(%zu uncovered scenarios)\n",
                     td.k, td.uncovered.size());
        return 2;
      }
      deployment = td.base;
    } else {
      deployment = map::deploy(model, platform, deploy_options);
      if (!deployment.success) {
        std::fprintf(stderr, "mapped synthesis failed: %s\n",
                     deployment.failure_reason.c_str());
        return 2;
      }
    }
    const map::Deployment& d = deployment;
    std::printf("# mapped deployment on %zu processors (mapper %s): "
                "%zu messages, %llu link slots, load imbalance %.2f\n",
                platform.processors(), d.mapping.mapper.c_str(),
                d.messages.size(),
                static_cast<unsigned long long>(d.comm.total_slots()),
                map::load_imbalance(d.mapping.loads(d.scheduled_model.comm(),
                                                    platform.processors())));
    for (std::size_t p = 0; p < d.processor_schedules.size(); ++p) {
      std::printf("P%zu (%s): %s\n", p, platform.processor_names[p].c_str(),
                  d.processor_schedules[p].to_string(d.scheduled_model.comm()).c_str());
    }
    for (std::size_t i = 0; i < d.comm.messages.size(); ++i) {
      const map::Message& m = d.comm.messages[i];
      const auto [link_idx, slot_idx] = d.comm.slot_of[i];
      const map::SlotAssignment& slot = d.comm.links[link_idx].slots[slot_idx];
      std::printf("# message %s -> %s via %s (offset %lld, %lld slots)\n",
                  d.scheduled_model.comm().name(m.from).c_str(),
                  d.scheduled_model.comm().name(m.to).c_str(),
                  platform.links[m.link].name.c_str(),
                  static_cast<long long>(slot.offset),
                  static_cast<long long>(slot.duration));
    }
    for (std::size_t i = 0; i < d.end_to_end.size(); ++i) {
      std::printf("# %s: end-to-end latency %lld / deadline %lld\n",
                  d.scheduled_model.constraint(i).name.c_str(),
                  static_cast<long long>(*d.end_to_end[i]),
                  static_cast<long long>(d.scheduled_model.constraint(i).deadline));
    }
    if (want_stats) {
      std::printf("# stats: seam_windows=%llu seam_seeks=%llu threads=%llu "
                  "witnesses=%zu\n",
                  static_cast<unsigned long long>(d.seam_stats.windows),
                  static_cast<unsigned long long>(d.seam_stats.index_seeks),
                  static_cast<unsigned long long>(d.seam_stats.threads_used),
                  d.witnesses.size());
    }
    if (inject_path != nullptr) {
      // Horizon: three constraint spans, stretched to cover every
      // injected fault window plus its repair.
      core::Time needed = 1;
      for (const core::TimingConstraint& c : d.scheduled_model.constraints()) {
        needed = std::max(needed, c.period + c.deadline);
      }
      core::Time horizon = needed * 3;
      for (const core::FaultSpec& f : platform_plan.faults) {
        if (f.end != core::kOpenEnd) horizon = std::max(horizon, f.end + f.magnitude);
        horizon = std::max(horizon, f.begin + 2 * std::max<core::Time>(f.magnitude, 1));
      }
      map::FaultRunOptions run_options;
      run_options.seam_threads = n_threads;
      const map::PlatformFaultRun healed =
          map::run_deployment_with_faults(td, platform_plan, horizon, run_options);
      run_options.heal = false;
      const map::PlatformFaultRun blind =
          map::run_deployment_with_faults(td, platform_plan, horizon, run_options);
      std::printf("# platform inject: horizon %lld, %zu epochs, healed %zu/%zu "
                  "windows (%zu migrations, %zu reroutes, %zu reverts, "
                  "%zu outages, %zu proofs, %zu proof failures)\n",
                  static_cast<long long>(horizon), healed.epochs.size(),
                  healed.windows_ok, healed.windows_total, healed.migrations,
                  healed.reroutes, healed.reverts, healed.outages,
                  healed.proof_checks, healed.proof_failures);
      std::printf("# platform inject: blind %zu/%zu windows; healed "
                  "fingerprint %016llx\n",
                  blind.windows_ok, blind.windows_total,
                  static_cast<unsigned long long>(healed.fingerprint()));
      for (const map::EpochRecord& e : healed.epochs) {
        std::printf("# epoch [%lld, %lld): %s\n",
                    static_cast<long long>(e.begin), static_cast<long long>(e.end),
                    e.detail.c_str());
      }
    }
  }
  if (verify_path != nullptr) {
    std::ifstream in(verify_path);
    if (!in) {
      std::fprintf(stderr, "spec_compiler: cannot open '%s'\n", verify_path);
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    // Schedules are expressed against the pipelined model.
    const core::GraphModel pipelined = core::pipeline_model(model).model;
    const auto parsed = core::schedule_from_text(buffer.str(), pipelined.comm());
    if (!parsed.ok()) {
      for (const auto& e : parsed.errors) {
        std::fprintf(stderr, "%s:%zu: error: %s\n", verify_path, e.line,
                     e.message.c_str());
      }
      return 2;
    }
    core::VerifyStats stats;
    core::VerifyOptions verify_options;
    verify_options.n_threads = n_threads;
    if (want_stats) verify_options.stats = &stats;
    const core::FeasibilityReport report =
        core::verify_schedule(*parsed.schedule, pipelined, verify_options);
    for (const core::ConstraintVerdict& v : report.verdicts) {
      const core::TimingConstraint& c = pipelined.constraint(v.constraint);
      if (v.latency) {
        std::printf("# %s: latency %lld / deadline %lld -> %s\n", c.name.c_str(),
                    static_cast<long long>(*v.latency),
                    static_cast<long long>(c.deadline), v.satisfied ? "ok" : "MISS");
      } else {
        std::printf("# %s: periodic windows -> %s\n", c.name.c_str(),
                    v.satisfied ? "ok" : "MISS");
      }
    }
    if (want_stats) {
      std::printf(
          "# stats: work_units=%llu queries=%llu memo_hits=%llu seeks=%llu\n"
          "# stats: bitset_skips=%llu arena_reuses=%llu arena_bytes_peak=%llu "
          "threads=%llu\n",
          static_cast<unsigned long long>(stats.work_units),
          static_cast<unsigned long long>(stats.embedding_queries),
          static_cast<unsigned long long>(stats.memo_hits),
          static_cast<unsigned long long>(stats.index_seeks),
          static_cast<unsigned long long>(stats.bitset_skips),
          static_cast<unsigned long long>(stats.arena_reuses),
          static_cast<unsigned long long>(stats.arena_bytes_peak),
          static_cast<unsigned long long>(stats.threads_used));
    }
    std::printf("# verdict: %s\n", report.feasible ? "FEASIBLE" : "INFEASIBLE");
    if (!report.feasible) return 2;
  }
  if (want_processes) {
    const core::ProcessSynthesis procs = core::synthesize_processes(model, true);
    std::printf("# process-based synthesis: %zu processes, %zu monitors\n",
                procs.processes.size(), procs.monitors.size());
    for (const core::SynthesizedProcess& p : procs.processes) {
      std::printf("process %s (%s, p=%lld, d=%lld, c=%lld):", p.name.c_str(),
                  p.kind == core::ConstraintKind::kPeriodic ? "periodic" : "sporadic",
                  static_cast<long long>(p.period),
                  static_cast<long long>(p.deadline),
                  static_cast<long long>(p.computation));
      for (core::ElementId e : p.body) {
        std::printf(" %s", procs.model.comm().name(e).c_str());
      }
      std::printf("\n");
    }
    std::printf("# EDF schedulable: %s\n",
                rt::edf_schedulable(procs.task_set) ? "yes" : "no");
  }
  return 0;
}
}  // namespace
