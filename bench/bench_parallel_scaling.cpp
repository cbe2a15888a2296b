// E16 — parallel verification scaling.
//
// Sweeps the n_threads knob over {1, 2, 4, 8} for verify_schedule on a
// batch of generated model/schedule pairs, and reports wall time,
// speedup over the serial path, and the verifier's memo hit rate. Each
// thread count is timed once per round over kRounds interleaved rounds
// whose order rotates, so slow phases of a shared host spread over
// every row; a row reports the median and quartiles of its rounds, and
// the speedup is the ratio of medians. A thread count is faster (or
// slower) than serial only when its quartile range clears serial's. The
// exact Theorem-1 game search is single-threaded by design (its
// parallelism is batch-level), so it has no row here. Emits
// BENCH_parallel.json in the working directory for tooling.
//
// Speedups above 1x are only reachable on multi-core hosts. On a
// single hardware thread the verifier clamps its worker count to the
// core count (util::resolve_threads) and runs the partitioned plan
// inline, so n_threads >= 2 stays within noise of the serial path
// instead of collapsing (the historical E16 pathology — see
// EXPERIMENTS.md E16/E22). Every thread count still exercises the
// parallel partitioning and reduction code, which is what CI checks.
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rtg;
using core::GraphModel;
using core::StaticSchedule;
using Time = sim::Time;

// Verification workload: schedules synthesized by the heuristic for
// random multi-constraint models (realistic shapes: long cycles, mixed
// async/periodic), re-verified many times.
struct VerifyCase {
  GraphModel model;
  StaticSchedule schedule;
};

std::vector<VerifyCase> make_verify_cases(int count) {
  std::vector<VerifyCase> cases;
  sim::Rng rng(0xE16);
  while (static_cast<int>(cases.size()) < count) {
    core::CommGraph comm;
    const int n = static_cast<int>(rng.uniform(3, 6));
    for (int i = 0; i < n; ++i) {
      comm.add_element("e" + std::to_string(i), rng.uniform(1, 2), true);
    }
    GraphModel model(std::move(comm));
    const int k = static_cast<int>(rng.uniform(2, 4));
    for (int c = 0; c < k; ++c) {
      const auto elem = static_cast<core::ElementId>(rng.uniform(0, n - 1));
      const auto kind = rng.chance(0.4) ? core::ConstraintKind::kPeriodic
                                        : core::ConstraintKind::kAsynchronous;
      core::TaskGraph tg;
      tg.add_op(elem);
      model.add_constraint(core::TimingConstraint{"c" + std::to_string(c),
                                                  std::move(tg), rng.uniform(4, 12),
                                                  rng.uniform(8, 30), kind});
      if (rng.chance(0.5)) {
        // A structurally identical constraint with a different deadline:
        // its embedding queries hit the shared memo table.
        core::TaskGraph dup;
        dup.add_op(elem);
        model.add_constraint(core::TimingConstraint{"c" + std::to_string(c) + "m",
                                                    std::move(dup), rng.uniform(4, 12),
                                                    rng.uniform(8, 30), kind});
      }
    }
    const core::HeuristicResult h = core::latency_schedule(model);
    if (!h.success) continue;
    cases.push_back(VerifyCase{h.scheduled_model, *h.schedule});
  }
  return cases;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct Row {
  std::size_t threads = 1;
  std::vector<double> samples;  ///< verify seconds, one per round
  double q1 = 0, median = 0, q3 = 0;
  double verify_speedup = 1;
  double memo_hit_rate = 0;
};

}  // namespace

int main() {
  constexpr std::array<std::size_t, 4> kThreads = {1, 2, 4, 8};
  constexpr int kVerifyCases = 12;
  constexpr int kVerifyReps = 40;
  constexpr std::size_t kRounds = 11;

  const auto cases = make_verify_cases(kVerifyCases);

  std::vector<Row> rows(kThreads.size());
  for (std::size_t i = 0; i < kThreads.size(); ++i) rows[i].threads = kThreads[i];
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < kThreads.size(); ++k) {
      Row& row = rows[(round + k) % kThreads.size()];
      std::size_t queries = 0, hits = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kVerifyReps; ++rep) {
        for (const VerifyCase& c : cases) {
          core::VerifyStats stats;  // per-call counters; summed below
          const auto report = core::verify_schedule(
              c.schedule, c.model,
              core::VerifyOptions{.n_threads = row.threads, .stats = &stats});
          if (!report.feasible) {
            std::fprintf(stderr, "verification regressed!\n");
            return 1;
          }
          queries += stats.embedding_queries;
          hits += stats.memo_hits;
        }
      }
      row.samples.push_back(seconds_since(t0));
      const double answered = static_cast<double>(queries + hits);
      row.memo_hit_rate = answered > 0 ? static_cast<double>(hits) / answered : 0;
    }
  }

  std::printf("# E16: parallel scaling (hardware_concurrency = %zu, %s build, "
              "%zu rounds)\n",
              rtg::util::resolve_threads(0), RTG_BUILD_TYPE, kRounds);
  std::printf("%8s %10s %10s %10s %9s %9s %8s\n", "threads", "q1[s]", "median[s]",
              "q3[s]", "speedup", "memo%", "vs 1");
  for (Row& row : rows) {
    row.q1 = sim::percentile(row.samples, 0.25);
    row.median = sim::percentile(row.samples, 0.5);
    row.q3 = sim::percentile(row.samples, 0.75);
    const Row& serial = rows.front();
    row.verify_speedup = serial.median / row.median;
    const char* verdict = &row == &serial     ? "-"
                          : row.q3 < serial.q1 ? "faster"
                          : row.q1 > serial.q3 ? "slower"
                                               : "tie";
    std::printf("%8zu %10.4f %10.4f %10.4f %9.2f %8.1f%% %8s\n", row.threads,
                row.q1, row.median, row.q3, row.verify_speedup,
                100.0 * row.memo_hit_rate, verdict);
  }

  std::FILE* out = std::fopen("BENCH_parallel.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    return 1;
  }
  const std::size_t hw = rtg::util::resolve_threads(0);
  std::fprintf(out, "{\n  \"experiment\": \"E16_parallel_scaling\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %zu,\n", hw);
  std::fprintf(out, "  \"build_type\": \"%s\",\n", RTG_BUILD_TYPE);
  std::fprintf(out, "  \"rounds\": %zu,\n", kRounds);
  if (hw == 1) {
    // Make single-core results self-documenting: compute workers are
    // clamped to the core count, so n_threads >= 2 runs the partitioned
    // plan inline and stays within noise of serial (E22 fixed the old
    // oversubscription collapse).
    std::fprintf(out,
                 "  \"note\": \"single hardware thread: compute workers are "
                 "clamped to the core count, so n_threads >= 2 runs the "
                 "partitioned plan inline at ~1x serial; this run checks "
                 "correctness, not scaling\",\n");
  }
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"verify_s\": %.6f, \"verify_s_q1\": %.6f, "
                 "\"verify_s_q3\": %.6f, \"verify_speedup\": %.3f, "
                 "\"memo_hit_rate\": %.4f}%s\n",
                 r.threads, r.median, r.q1, r.q3, r.verify_speedup, r.memo_hit_rate,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("# wrote BENCH_parallel.json\n");
  return 0;
}
