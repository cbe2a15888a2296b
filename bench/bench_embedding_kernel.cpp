// E17 — indexed embedding kernel + incremental re-verification.
//
// Three measurements, all single-thread (the win is algorithmic):
//   1. Before/after on E16's verify workload: the flat-scan reference
//      kernel (pre-index behavior, kept under VerifyOptions::
//      flat_reference) vs the indexed serial engine.
//   2. A model-size x unroll-depth sweep (chain task graphs of growing
//      length drive the unroll budget) comparing the same two paths.
//   3. The optimize compaction loop: legacy generate-and-test with a
//      full flat verification per candidate vs compact_schedule on the
//      IncrementalVerifier, with the incremental cache-hit counter.
// Emits BENCH_embedding.json in the working directory.
//
// --smoke: quick CI guard — checks every E16 report against the flat
// reference, then exits non-zero unless the indexed serial engine beats
// flat_reference by >= 3x, best of two batches (the full run measures
// ~15-20x; 3x leaves room for sanitizer-free CI hosts of any speed).
// Wired as the perf_smoke_embedding ctest, skipped under sanitizers
// where instrumentation distorts the ratio.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/optimize.hpp"
#include "core/static_schedule.hpp"
#include "sim/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rtg;
using core::GraphModel;
using core::StaticSchedule;
using Time = sim::Time;

struct VerifyCase {
  GraphModel model;
  StaticSchedule schedule;
};

// E16's verification workload, reproduced seed-for-seed so before/after
// times are comparable with BENCH_parallel.json.
std::vector<VerifyCase> make_e16_cases(int count) {
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

// Compaction workload: mixed non-harmonized periods stretch the
// hyperperiod so schedules carry dozens to hundreds of execution
// entries — enough drop candidates for the loop comparison to be
// meaningful — while staying far below E16's multi-thousand-entry
// schedules, where the legacy O(entries^2-verifications) baseline
// would not terminate in bench time.
std::vector<VerifyCase> make_optimize_cases(int count) {
  constexpr Time kPeriods[] = {6, 8, 12};
  std::vector<VerifyCase> cases;
  sim::Rng rng(0xE17C);
  int attempts = 0;
  while (static_cast<int>(cases.size()) < count && ++attempts < 400) {
    core::CommGraph comm;
    const int n = static_cast<int>(rng.uniform(3, 5));
    for (int i = 0; i < n; ++i) {
      comm.add_element("e" + std::to_string(i), 1, true);
    }
    GraphModel model(std::move(comm));
    const int k = static_cast<int>(rng.uniform(3, 5));
    for (int c = 0; c < k; ++c) {
      const auto elem = static_cast<core::ElementId>(rng.uniform(0, n - 1));
      core::TaskGraph tg;
      tg.add_op(elem);
      model.add_constraint(core::TimingConstraint{
          "c" + std::to_string(c), std::move(tg),
          kPeriods[rng.uniform(0, 2)], rng.uniform(24, 48),
          core::ConstraintKind::kAsynchronous});
    }
    const core::HeuristicResult h = core::latency_schedule(model);
    if (!h.success) continue;
    const std::size_t entries = h.schedule->entries().size();
    if (entries < 30 || entries > 400) continue;
    cases.push_back(VerifyCase{h.scheduled_model, *h.schedule});
  }
  return cases;
}

// Sweep cell: a chain communication graph of `elements` elements, one
// asynchronous chain constraint of `chain` ops per start position. The
// chain length drives the unroll budget (2|C| + 2 periods), i.e. how
// deep each embedding query looks into the virtual unroll. The schedule
// is built directly (three interleaved passes over the elements, idle
// gaps in between) — the sweep compares kernel wall time on identical
// reports, so the schedules need not be feasible.
VerifyCase make_sweep_case(int elements, int chain, sim::Rng& rng) {
  core::CommGraph comm;
  for (int i = 0; i < elements; ++i) {
    comm.add_element("e" + std::to_string(i), rng.uniform(1, 2), true);
  }
  for (int i = 0; i + 1 < elements; ++i) {
    comm.add_channel(static_cast<core::ElementId>(i),
                     static_cast<core::ElementId>(i + 1));
  }
  StaticSchedule sched;
  GraphModel model(std::move(comm));
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < elements; ++i) {
      const auto e = static_cast<core::ElementId>(i);
      sched.push_execution(e, model.comm().weight(e));
      if (rng.chance(0.3)) sched.push_idle(rng.uniform(1, 2));
    }
  }
  for (int s = 0; s + chain <= elements; ++s) {
    core::TaskGraph tg;
    core::OpId prev = tg.add_op(static_cast<core::ElementId>(s));
    for (int j = 1; j < chain; ++j) {
      const core::OpId op = tg.add_op(static_cast<core::ElementId>(s + j));
      tg.add_dep(prev, op);
      prev = op;
    }
    model.add_constraint(core::TimingConstraint{
        "c" + std::to_string(s), std::move(tg), rng.uniform(8, 16),
        rng.uniform(static_cast<Time>(4 * chain), static_cast<Time>(8 * chain)),
        core::ConstraintKind::kAsynchronous});
  }
  return VerifyCase{std::move(model), std::move(sched)};
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Times `reps` verifications of every case on one path. With
// require_feasible, aborts on an infeasible report (the E16 workload is
// feasible by construction; the sweep cells need not be).
double time_verify(const std::vector<VerifyCase>& cases, int reps,
                   bool flat_reference, core::VerifyStats* total,
                   bool require_feasible = true) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const VerifyCase& c : cases) {
      core::VerifyStats stats;
      core::VerifyOptions options;
      options.n_threads = 1;
      options.stats = &stats;
      options.flat_reference = flat_reference;
      const bool feasible = core::verify_schedule(c.schedule, c.model, options).feasible;
      if (require_feasible && !feasible) {
        std::fprintf(stderr, "verification regressed!\n");
        std::exit(1);
      }
      if (total) *total += stats;
    }
  }
  return seconds_since(t0);
}

// The pre-change compaction loop: full flat verification per candidate.
StaticSchedule legacy_compact(const StaticSchedule& sched, const GraphModel& model,
                              std::size_t* removed) {
  core::VerifyOptions flat;
  flat.flat_reference = true;
  StaticSchedule current = sched;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto entries = current.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].elem == core::kIdleEntry) continue;
      StaticSchedule candidate;
      for (std::size_t j = 0; j < entries.size(); ++j) {
        if (j == i || entries[j].elem == core::kIdleEntry) {
          candidate.push_idle(entries[j].duration);
        } else {
          candidate.push_execution(entries[j].elem, entries[j].duration);
        }
      }
      if (core::verify_schedule(candidate, model, flat).feasible) {
        current = std::move(candidate);
        if (removed) ++*removed;
        changed = true;
        break;
      }
    }
  }
  return current;
}

int run_smoke(int n_cases) {
  constexpr int kReps = 4;
  constexpr int kBatches = 2;
  const auto cases = make_e16_cases(n_cases);
  for (const VerifyCase& c : cases) {
    core::VerifyOptions flat_options;
    flat_options.flat_reference = true;
    core::VerifyOptions options;
    options.n_threads = 1;
    if (!(core::verify_schedule(c.schedule, c.model, options) ==
          core::verify_schedule(c.schedule, c.model, flat_options))) {
      std::fprintf(stderr, "indexed engine is not bit-identical to flat!\n");
      return 1;
    }
  }
  double flat_s = time_verify(cases, kReps, /*flat_reference=*/true, nullptr);
  double indexed_s = time_verify(cases, kReps, /*flat_reference=*/false, nullptr);
  for (int b = 1; b < kBatches; ++b) {
    flat_s = std::min(flat_s, time_verify(cases, kReps, true, nullptr));
    indexed_s = std::min(indexed_s, time_verify(cases, kReps, false, nullptr));
  }
  const double ratio = flat_s / indexed_s;
  std::printf("# smoke: indexed %.2fx over flat (gate: >= 3x)\n", ratio);
  if (ratio < 3.0) {
    std::fprintf(stderr, "perf smoke FAILED: indexed only %.2fx over flat\n", ratio);
    return 1;
  }
  return 0;
}

struct SweepRow {
  int elements = 0;
  int chain = 0;
  double flat_s = 0;
  double indexed_s = 0;
  double speedup = 0;
};

}  // namespace

int main(int argc, char** argv) {
  constexpr int kE16Cases = 12;
  constexpr int kE16Reps = 40;
  constexpr int kSweepReps = 20;
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke(kE16Cases);

  std::setvbuf(stdout, nullptr, _IONBF, 0);  // progress visible when redirected
  std::printf("# E17: indexed embedding kernel (hardware_concurrency = %zu)\n",
              rtg::util::resolve_threads(0));

  // 1. Before/after on E16's verify workload.
  const auto e16 = make_e16_cases(kE16Cases);
  std::size_t total_entries = 0;
  for (const VerifyCase& c : e16) total_entries += c.schedule.entries().size();
  std::printf("# %d E16 cases, %zu schedule entries total\n", kE16Cases, total_entries);
  const double before_s = time_verify(e16, kE16Reps, /*flat_reference=*/true, nullptr);
  core::VerifyStats after_stats;
  const double after_s = time_verify(e16, kE16Reps, /*flat_reference=*/false, &after_stats);
  const double verify_speedup = after_s > 0 ? before_s / after_s : 0;
  std::printf("E16 workload: flat %.4fs -> indexed %.4fs (%.2fx); "
              "index_seeks=%zu arena_reuses=%zu\n",
              before_s, after_s, verify_speedup, after_stats.index_seeks,
              after_stats.arena_reuses);

  // 2. Model size x unroll depth sweep.
  std::vector<SweepRow> sweep;
  sim::Rng sweep_rng(0xE17);
  for (const int elements : {4, 8, 12}) {
    for (const int chain : {1, 2, 4}) {
      const std::vector<VerifyCase> cell{make_sweep_case(elements, chain, sweep_rng)};
      SweepRow row;
      row.elements = elements;
      row.chain = chain;
      row.flat_s = time_verify(cell, kSweepReps, true, nullptr, false);
      row.indexed_s = time_verify(cell, kSweepReps, false, nullptr, false);
      row.speedup = row.indexed_s > 0 ? row.flat_s / row.indexed_s : 0;
      std::printf("sweep n=%2d chain=%d: flat %.4fs -> indexed %.4fs (%.2fx)\n",
                  row.elements, row.chain, row.flat_s, row.indexed_s, row.speedup);
      sweep.push_back(row);
    }
  }

  // 3. Optimize loop: legacy generate-and-test vs incremental verifier.
  const auto opt_cases = make_optimize_cases(8);
  std::size_t opt_entries = 0;
  for (const VerifyCase& c : opt_cases) opt_entries += c.schedule.entries().size();
  std::printf("# %zu optimize cases, %zu schedule entries total\n",
              opt_cases.size(), opt_entries);
  double opt_before_s = 0, opt_after_s = 0;
  std::size_t legacy_removed = 0;
  core::OptimizeStats opt_stats;
  {
    auto t0 = std::chrono::steady_clock::now();
    for (const VerifyCase& c : opt_cases) {
      (void)legacy_compact(c.schedule, c.model, &legacy_removed);
    }
    opt_before_s = seconds_since(t0);

    std::size_t incremental_removed = 0;
    t0 = std::chrono::steady_clock::now();
    for (const VerifyCase& c : opt_cases) {
      core::OptimizeStats stats;
      (void)core::compact_schedule(c.schedule, c.model, &stats);
      incremental_removed += stats.executions_removed;
      opt_stats.verify += stats.verify;
    }
    opt_after_s = seconds_since(t0);
    if (incremental_removed != legacy_removed) {
      std::fprintf(stderr, "compaction diverged from the legacy loop!\n");
      return 1;
    }
    if (opt_stats.verify.incremental_hits == 0) {
      std::fprintf(stderr, "incremental verifier never hit its cache!\n");
      return 1;
    }
  }
  const double opt_speedup = opt_after_s > 0 ? opt_before_s / opt_after_s : 0;
  const double answered =
      static_cast<double>(opt_stats.verify.incremental_hits +
                          opt_stats.verify.embedding_queries);
  const double hit_rate =
      answered > 0 ? static_cast<double>(opt_stats.verify.incremental_hits) / answered : 0;
  std::printf("optimize loop: legacy %.4fs -> incremental %.4fs (%.2fx); "
              "cache_hits=%zu (%.1f%% of windows)\n",
              opt_before_s, opt_after_s, opt_speedup,
              opt_stats.verify.incremental_hits, 100.0 * hit_rate);

  std::FILE* out = std::fopen("BENCH_embedding.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_embedding.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"experiment\": \"E17_embedding_kernel\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %zu,\n", rtg::util::resolve_threads(0));
  std::fprintf(out,
               "  \"e16_workload\": {\"before_verify_s\": %.6f, \"after_verify_s\": %.6f, "
               "\"speedup\": %.3f, \"index_seeks\": %zu, \"arena_reuses\": %zu},\n",
               before_s, after_s, verify_speedup, after_stats.index_seeks,
               after_stats.arena_reuses);
  std::fprintf(out,
               "  \"optimize_loop\": {\"before_s\": %.6f, \"after_s\": %.6f, "
               "\"speedup\": %.3f, \"incremental_cache_hits\": %zu, "
               "\"incremental_hit_rate\": %.4f},\n",
               opt_before_s, opt_after_s, opt_speedup,
               opt_stats.verify.incremental_hits, hit_rate);
  std::fprintf(out, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    std::fprintf(out,
                 "    {\"elements\": %d, \"chain\": %d, \"flat_s\": %.6f, "
                 "\"indexed_s\": %.6f, \"speedup\": %.3f}%s\n",
                 r.elements, r.chain, r.flat_s, r.indexed_s, r.speedup,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("# wrote BENCH_embedding.json\n");
  return 0;
}
