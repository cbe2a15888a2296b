// The verify walks: each group of identical task graphs is one ascending
// walk that queries a window t, then skips every window up to the
// earliest start s of the embedding it got, since those windows have the
// same earliest finish and a smaller lag (FORMALISM §3).
//
//   * brute force: on tiny seeded schedules (repeated labels included,
//     so the branch-and-bound kernel walks too) the reports of
//     verify_schedule, schedule_latency and periodic_satisfied equal a
//     check of every window start t in [0, P) and every invocation;
//   * a pinned query count on a hand schedule;
//   * every counter is the same at 1, 2, 4 and 8 threads on the long
//     coprime-period schedules of the synth_verify workload (greedy
//     kernels with monotone hints), because the walks' chunks depend on
//     the plan alone;
//   * a cancel raised while a walk runs still yields a cancelled report.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "gen/generator.hpp"
#include "sim/rng.hpp"

namespace rtg::core {
namespace {

constexpr int kElements = 3;

// A random task graph of 1..4 ops over kElements labels; labels may
// repeat. Edges go from lower to higher op ids, never between two ops of
// one label (the comm graph has no self-channels).
TaskGraph random_task_graph(sim::Rng& rng) {
  TaskGraph tg;
  const int n = static_cast<int>(rng.uniform(1, 4));
  for (int i = 0; i < n; ++i) tg.add_op(static_cast<ElementId>(rng.uniform(0, kElements - 1)));
  for (OpId u = 0; u < tg.size(); ++u) {
    for (OpId v = u + 1; v < tg.size(); ++v) {
      if (tg.label(u) != tg.label(v) && rng.chance(0.5)) tg.add_dep(u, v);
    }
  }
  return tg;
}

GraphModel random_model(sim::Rng& rng) {
  CommGraph comm;
  for (int e = 0; e < kElements; ++e) {
    comm.add_element("e" + std::to_string(e), rng.uniform(1, 2));
  }
  for (ElementId u = 0; u < kElements; ++u) {
    for (ElementId v = 0; v < kElements; ++v) {
      if (u != v) comm.add_channel(u, v);
    }
  }
  GraphModel model(std::move(comm));
  const int k = static_cast<int>(rng.uniform(1, 3));
  for (int c = 0; c < k; ++c) {
    model.add_constraint(TimingConstraint{
        "c" + std::to_string(c), random_task_graph(rng), rng.uniform(1, 8),
        rng.uniform(1, 24),
        rng.chance(0.5) ? ConstraintKind::kAsynchronous : ConstraintKind::kPeriodic});
  }
  return model;
}

StaticSchedule random_schedule(sim::Rng& rng, const CommGraph& comm) {
  StaticSchedule sched;
  const int n = static_cast<int>(rng.uniform(2, 10));
  for (int i = 0; i < n; ++i) {
    if (i > 0 && rng.chance(0.25)) {
      sched.push_idle(rng.uniform(1, 2));
    } else {
      const auto e = static_cast<ElementId>(rng.uniform(0, kElements - 1));
      sched.push_execution(e, comm.weight(e));
    }
  }
  return sched;
}

// Every window start, by definition: the async latency is the largest
// c(t) - t over t in [0, P) (nullopt when some window has no
// embedding), and a periodic constraint needs c(t) <= t + d at every
// invocation t below lcm(P, p). The unroll is padded well past the
// engine's budget so that it cannot hide a missing embedding.
FeasibilityReport brute_force(const StaticSchedule& sched, const GraphModel& model) {
  const Time period = sched.length();
  FeasibilityReport report;
  report.feasible = true;
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const TimingConstraint& c = model.constraint(i);
    const Time end = c.periodic() ? std::lcm(period, c.period) : period;
    const std::vector<ScheduledOp> ops = unroll_ops(
        sched, static_cast<std::size_t>(end / period) + 4 * c.task_graph.size() + 4);
    ConstraintVerdict verdict;
    verdict.constraint = i;
    std::optional<Time> worst;
    bool missing = false;
    for (Time t = 0; t < end; t += c.periodic() ? c.period : 1) {
      const auto finish = earliest_embedding_finish(c.task_graph, ops, t);
      if (!finish) {
        missing = true;
        break;
      }
      if (!worst || *finish - t > *worst) worst = *finish - t;
    }
    if (c.periodic()) {
      verdict.satisfied = !missing && *worst <= c.deadline;
    } else {
      if (!missing) verdict.latency = worst;
      verdict.satisfied = verdict.latency.has_value() && *verdict.latency <= c.deadline;
    }
    report.feasible = report.feasible && verdict.satisfied;
    report.verdicts.push_back(verdict);
  }
  return report;
}

TEST(DominatedWindows, WalksMatchBruteForceOverEveryWindow) {
  sim::Rng rng(0xD0A11);
  int checked = 0;
  int repeated = 0;
  for (int round = 0; round < 320; ++round) {
    const GraphModel model = random_model(rng);
    const StaticSchedule sched = random_schedule(rng, model.comm());
    const FeasibilityReport want = brute_force(sched, model);
    for (const std::size_t n_threads : {1, 4}) {
      VerifyStats stats;
      const FeasibilityReport got = verify_schedule(
          sched, model, VerifyOptions{.n_threads = n_threads, .stats = &stats});
      ASSERT_EQ(got, want) << "round " << round << " n_threads " << n_threads;
      EXPECT_LE(stats.embedding_queries, stats.work_units) << "round " << round;
    }
    for (std::size_t i = 0; i < model.constraint_count(); ++i) {
      const TimingConstraint& c = model.constraint(i);
      if (c.periodic()) {
        EXPECT_EQ(periodic_satisfied(sched, c.task_graph, c.period, c.deadline),
                  want.verdicts[i].satisfied)
            << "round " << round << " constraint " << i;
      } else {
        EXPECT_EQ(schedule_latency(sched, c.task_graph), want.verdicts[i].latency)
            << "round " << round << " constraint " << i;
      }
      if (c.task_graph.has_repeated_labels()) ++repeated;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 320);
  EXPECT_GT(repeated, 30) << "too few branch-and-bound walks";
}

// b c a, k times: the chain a -> b -> c. Its jump points are 0 and every
// start + 1 below P - 1, 3k of them. The walk queries 0, 3, 6, ...: each
// embedding starts at the next `a`, which dominates the two windows
// before it, so one query per run.
TEST(DominatedWindows, ChainRunKTimesTakesKQueries) {
  for (const int k : {1, 2, 5, 40}) {
    CommGraph comm;
    comm.add_element("a", 1);
    comm.add_element("b", 1);
    comm.add_element("c", 1);
    comm.add_channel(0, 1);
    comm.add_channel(1, 2);
    GraphModel model(std::move(comm));
    TaskGraph tg;
    const OpId a = tg.add_op(0);
    const OpId b = tg.add_op(1);
    const OpId c = tg.add_op(2);
    tg.add_dep(a, b);
    tg.add_dep(b, c);
    model.add_constraint(
        TimingConstraint{"chain", std::move(tg), 1, 5, ConstraintKind::kAsynchronous});
    StaticSchedule sched;
    for (int run = 0; run < k; ++run) {
      sched.push_execution(1, 1);
      sched.push_execution(2, 1);
      sched.push_execution(0, 1);
    }

    VerifyStats stats;
    const FeasibilityReport report =
        verify_schedule(sched, model, VerifyOptions{.n_threads = 1, .stats = &stats});
    EXPECT_EQ(stats.work_units, static_cast<std::size_t>(3 * k)) << "k = " << k;
    EXPECT_EQ(stats.embedding_queries, static_cast<std::size_t>(k)) << "k = " << k;
    EXPECT_EQ(stats.memo_hits, static_cast<std::size_t>(2 * k)) << "k = " << k;
    ASSERT_TRUE(report.verdicts[0].latency.has_value());
    EXPECT_EQ(*report.verdicts[0].latency, 5);  // from 0: a@2, b@3, c@4 ends at 5
    EXPECT_TRUE(report.feasible);
    EXPECT_EQ(report, verify_schedule(sched, model, VerifyOptions{.flat_reference = true}));
  }
}

// Two long coprime-period schedules of the synth_verify workload (24
// elements, 8 constraints, 100 000..130 000 slots): far above the
// serial cutoff, so their walks are cut into many chunks.
std::vector<HeuristicResult> long_coprime_schedules(std::size_t count) {
  std::vector<HeuristicResult> out;
  for (std::uint64_t draw = 0; out.size() < count && draw < 200; ++draw) {
    gen::ScenarioOptions o;
    o.seed = 1000 + draw;
    o.platform.topology = static_cast<gen::Topology>(draw % 5);
    o.platform.elements = 24;
    o.platform.max_weight = 2;
    o.constraints.constraints = 8;
    o.constraints.utilization = 0.3;
    o.constraints.periods = gen::PeriodFamily::kCoprime;
    o.constraints.max_ops = 5;
    const gen::Scenario scenario = gen::generate(o);
    HeuristicResult built = latency_schedule(scenario.model, HeuristicOptions{.n_threads = 1});
    if (!built.success || built.schedule->length() < 100'000 ||
        built.schedule->length() > 130'000) {
      continue;
    }
    out.push_back(std::move(built));
  }
  return out;
}

TEST(DominatedWindows, EveryCounterPinsAcrossThreadCountsOnLongSchedules) {
  const std::vector<HeuristicResult> built = long_coprime_schedules(2);
  ASSERT_EQ(built.size(), 2u);
  for (const HeuristicResult& h : built) {
    VerifyStats serial;
    const FeasibilityReport want = verify_schedule(
        *h.schedule, h.scheduled_model, VerifyOptions{.n_threads = 1, .stats = &serial});
    ASSERT_GT(serial.work_units, 4 * serial_parallel_cutoff());
    EXPECT_LT(serial.embedding_queries, serial.work_units);
    for (const std::size_t n_threads : {2, 4, 8}) {
      VerifyStats stats;
      const FeasibilityReport got =
          verify_schedule(*h.schedule, h.scheduled_model,
                          VerifyOptions{.n_threads = n_threads, .stats = &stats});
      EXPECT_EQ(got, want) << "threads " << n_threads;
      EXPECT_EQ(stats.threads_used, n_threads);
      EXPECT_EQ(stats.embedding_queries, serial.embedding_queries) << "threads " << n_threads;
      EXPECT_EQ(stats.memo_hits, serial.memo_hits) << "threads " << n_threads;
      EXPECT_EQ(stats.work_units, serial.work_units) << "threads " << n_threads;
      EXPECT_EQ(stats.index_seeks, serial.index_seeks) << "threads " << n_threads;
      EXPECT_EQ(stats.incremental_hits, serial.incremental_hits) << "threads " << n_threads;
      EXPECT_EQ(stats.arena_reuses, serial.arena_reuses) << "threads " << n_threads;
      EXPECT_EQ(stats.bitset_skips, serial.bitset_skips) << "threads " << n_threads;
      EXPECT_EQ(stats.arena_bytes_peak, serial.arena_bytes_peak) << "threads " << n_threads;
    }
  }
}

// One single-op async constraint over 200 000 executions of `a`: a
// single-op embedding starts at its own window's next `a`, so nothing is
// dominated and the walk polls the cancel flag thousands of times. A
// watcher raises the flag after the second poll. Should the watcher be
// starved until the walk has finished, the report is the full one and
// the attempt repeats.
TEST(DominatedWindows, CancelMidWalkAnswersCancelled) {
  CommGraph comm;
  comm.add_element("a", 1);
  GraphModel model(std::move(comm));
  TaskGraph tg;
  tg.add_op(0);
  model.add_constraint(
      TimingConstraint{"c0", std::move(tg), 1, 4, ConstraintKind::kAsynchronous});
  StaticSchedule sched;
  for (int i = 0; i < 200'000; ++i) sched.push_execution(0, 1);

  std::atomic<std::uint64_t> full_polls{0};
  const FeasibilityReport full = verify_schedule(
      sched, model, VerifyOptions{.n_threads = 1, .progress = &full_polls});
  ASSERT_TRUE(full.feasible);
  ASSERT_GT(full_polls.load(), 1000u);

  bool cancelled = false;
  for (int attempt = 0; attempt < 10 && !cancelled; ++attempt) {
    std::atomic<bool> cancel{false};
    std::atomic<std::uint64_t> polls{0};
    std::thread watcher([&] {
      while (polls.load() < 2) {
      }
      cancel = true;
    });
    const FeasibilityReport report = verify_schedule(
        sched, model, VerifyOptions{.n_threads = 1, .cancel = &cancel, .progress = &polls});
    watcher.join();
    if (!report.cancelled) {
      EXPECT_EQ(report, full);
      continue;
    }
    cancelled = true;
    EXPECT_FALSE(report.feasible);
    EXPECT_TRUE(report.verdicts.empty());
    EXPECT_GE(polls.load(), 2u);
    EXPECT_LT(polls.load(), full_polls.load());
  }
  EXPECT_TRUE(cancelled) << "the watcher never got to cancel a running walk";
}

}  // namespace
}  // namespace rtg::core
