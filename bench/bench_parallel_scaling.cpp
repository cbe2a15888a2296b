// E16 — parallel verification scaling.
//
// Sweeps the n_threads knob over {1, 2, 4, 8} for verify_schedule on a
// batch of generated model/schedule pairs, and reports wall time,
// speedup over the serial path, and the verifier's memo hit rate. The
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
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "sim/rng.hpp"
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
  double verify_s = 0;
  double verify_speedup = 1;
  double memo_hit_rate = 0;
};

}  // namespace

int main() {
  constexpr std::size_t kThreads[] = {1, 2, 4, 8};
  constexpr int kVerifyCases = 12;
  constexpr int kVerifyReps = 40;

  const auto cases = make_verify_cases(kVerifyCases);

  std::printf("# E16: parallel scaling (hardware_concurrency = %zu)\n",
              rtg::util::resolve_threads(0));
  std::printf("%8s %12s %9s %9s\n", "threads", "verify[s]", "speedup", "memo%");

  std::vector<Row> rows;
  for (const std::size_t n_threads : kThreads) {
    Row row;
    row.threads = n_threads;

    std::size_t queries = 0, hits = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kVerifyReps; ++rep) {
      for (const VerifyCase& c : cases) {
        core::VerifyStats stats;  // per-call counters; summed below
        const auto report = core::verify_schedule(
            c.schedule, c.model,
            core::VerifyOptions{.n_threads = n_threads, .stats = &stats});
        if (!report.feasible) {
          std::fprintf(stderr, "verification regressed!\n");
          return 1;
        }
        queries += stats.embedding_queries;
        hits += stats.memo_hits;
      }
    }
    row.verify_s = seconds_since(t0);
    const double answered = static_cast<double>(queries + hits);
    row.memo_hit_rate = answered > 0 ? static_cast<double>(hits) / answered : 0;

    if (!rows.empty()) row.verify_speedup = rows.front().verify_s / row.verify_s;
    std::printf("%8zu %12.4f %9.2f %8.1f%%\n", row.threads, row.verify_s,
                row.verify_speedup, 100.0 * row.memo_hit_rate);
    rows.push_back(row);
  }

  std::FILE* out = std::fopen("BENCH_parallel.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_parallel.json\n");
    return 1;
  }
  const std::size_t hw = rtg::util::resolve_threads(0);
  std::fprintf(out, "{\n  \"experiment\": \"E16_parallel_scaling\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %zu,\n", hw);
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
                 "    {\"threads\": %zu, \"verify_s\": %.6f, \"verify_speedup\": %.3f, "
                 "\"memo_hit_rate\": %.4f}%s\n",
                 r.threads, r.verify_s, r.verify_speedup, r.memo_hit_rate,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("# wrote BENCH_parallel.json\n");
  return 0;
}
