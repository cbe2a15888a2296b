// main.cpp — the rtgraph benchmark binary.
//
//   rtg_perfbench --workload <synth_verify|exact_search|service_batch|fault_heal>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--source-digest <text>]
//
// Normally started by run.py. Prints a "# host" line with the host and
// the program's timing decisions, then, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}, where
// "metrics" maps each measured name to its value (run.py adds the units
// from BENCHMARK.json). With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 the per-layer ones, and the spans go to
// <out-dir>/spans-<workload>-<seed>.json. A failed check prints its
// one-line reason on stderr and exits 3.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/latency.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMaxSpansWritten = 200'000;

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch == '\n' ? ' ' : ch;
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "rtg_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--source-digest") a.source_digest = v;
    else usage("unknown argument " + k);
  }
  if (argc % 2 == 0) usage("every option takes one value");
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

void write_spans(const Workload& w, const Args& args, Clock::time_point t0) {
  const std::string path =
      args.out_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".json";
  std::ofstream f(path);
  std::vector<const Tracer*> tracers;
  w.collect_spans(tracers);
  std::map<std::string, Tracer::LayerTime> layers;
  std::size_t total = 0;
  for (const Tracer* t : tracers) {
    t->accumulate(layers);
    total += t->spans().size();
  }
  f << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
    << ", \"spans_total\": " << total << ", \"layers\": {";
  const char* sep = "";
  for (const auto& [name, lt] : layers) {
    f << sep << json_string(name) << ": {\"calls\": " << lt.calls
      << ", \"total_s\": " << fmt(lt.total_s) << ", \"self_s\": " << fmt(lt.self_s) << "}";
    sep = ", ";
  }
  // [name, thread, operation, parent, start_s, end_s], times from main().
  f << "},\n\"span_fields\": [\"name\", \"thread\", \"op\", \"parent\", \"start_s\", \"end_s\"],"
    << "\n\"spans\": [";
  sep = "\n";
  std::size_t written = 0;
  for (std::size_t ti = 0; ti < tracers.size() && written < kMaxSpansWritten; ++ti) {
    for (const SpanRecord& s : tracers[ti]->spans()) {
      if (written++ == kMaxSpansWritten) break;
      f << sep << "[" << json_string(s.name) << ", " << ti << ", " << s.op << ", " << s.parent
        << ", " << fmt(seconds_between(t0, s.start)) << ", " << fmt(seconds_between(t0, s.end))
        << "]";
      sep = ",\n";
    }
  }
  f << "\n]}\n";
  std::printf("# spans: %s (%zu of %zu written)\n", path.c_str(),
              std::min(total, kMaxSpansWritten), total);
}

/// The process's resident high-water mark (`ru_maxrss`), in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int run(const Args& args) {
  // The process's first engine call calibrates the serial/parallel
  // cutoff. It is made first, so that the benchmark's own input
  // generation does not run before it and set-up is that of a fresh
  // process.
  const auto t_main = Clock::now();
  (void)rtg::core::serial_parallel_cutoff();
  const double calibrate_s = seconds_between(t_main, Clock::now());

  std::unique_ptr<Workload> w;
  if (args.workload == "synth_verify") w = make_synth_verify(args.trace);
  else if (args.workload == "exact_search") w = make_exact_search(args.trace);
  else if (args.workload == "service_batch")
    w = make_service_batch(args.trace, args.out_dir + "/svc-" + std::to_string(getpid()));
  else if (args.workload == "fault_heal") w = make_fault_heal(args.trace);
  else usage("unknown workload " + args.workload);

  w->generate(args.seed);
  // Set-up is the program's own: the calibration above plus the
  // workload's set-up calls, not the benchmark's input generation.
  const auto s0 = Clock::now();
  w->setup();
  const double setup_s = calibrate_s + seconds_between(s0, Clock::now());

  w->run_timed(args.seconds);
  w->finish();

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"ops_per_s", w->ops_per_s()},
               {"op_p50_ms", w->op_ms(0.50)},
               {"op_p95_ms", w->op_ms(0.95)},
               {"cpu_ms_per_op", w->cpu_ms_per_op()},
               {"setup_s", setup_s},
               {"peak_rss_mb", peak_rss_mb()}};
  } else {
    w->layer_metrics(metrics);
    metrics.push_back({"util.serial_parallel_cutoff", static_cast<double>(w->decisions().cutoff)});
    metrics.push_back({"util.hardware_concurrency",
                       static_cast<double>(std::thread::hardware_concurrency())});
    metrics.push_back({"bench.traced_ops_per_s", w->ops_per_s()});
    metrics.push_back({"bench.traced_op_p50_ms", w->op_ms(0.50)});
  }

  const Checks& checks = w->checks();
  std::printf(
      "# host {\"workload\": %s, \"seed\": %llu, \"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"build_type\": %s, \"source\": %s, \"serial_parallel_cutoff\": %zu, "
      "\"threads_used\": %zu, \"rounds\": %zu, \"checks\": %zu, \"notes\": {%s}}\n",
      json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(args.source_digest).c_str(),
      w->decisions().cutoff, w->decisions().threads_used, w->whole_rounds(), checks.checked(),
      w->notes().c_str());
  if (args.trace) write_spans(*w, args, t_main);

  std::string m = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    m += (i ? ", " : "") + json_string(metrics[i].name) + ": " + fmt(metrics[i].value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}}\n",
              checks.ok() ? "true" : "false", w->attempted(), w->failed(), m.c_str());
  std::fflush(stdout);
  if (!checks.ok()) {
    std::fprintf(stderr, "%s: check failed (%zu of %zu): %s\n", args.workload.c_str(),
                 checks.failed(), checks.checked(), checks.first().c_str());
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtg_perfbench: %s\n", e.what());
    return 4;
  }
}
