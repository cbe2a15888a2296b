// Differential + pin tests for the indexed embedding kernel and the
// incremental verifier (ISSUE 3).
//
//   * verify_schedule's indexed serial and parallel paths must be
//     bit-identical to the pre-index flat-scan verifier, which is kept
//     as a reference implementation behind VerifyOptions::flat_reference;
//   * EmbeddingKernel witnesses must be bit-identical to the public
//     flat-scan find_earliest_embedding — including exclusion masks and
//     BnB repeated-label instances — and every assignment index must be
//     a valid position into the public unroll_ops view;
//   * IncrementalVerifier's drop reports must equal a from-scratch
//     verify of each candidate, across commits;
//   * compact_schedule on the incremental verifier must reproduce the
//     legacy generate-and-test compaction exactly;
//   * an async constraint is queried only at its own jump points J_C
//     (0 and every start + 1 of an execution of one of its elements),
//     and the narrowed set reproduces the flat reference, which still
//     queries every execution start.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/optimize.hpp"
#include "core/static_schedule.hpp"
#include "gen/generator.hpp"
#include "graph/generators.hpp"
#include "sim/rng.hpp"
#include "util/thread_pool.hpp"

namespace rtg::core {
namespace {

graph::Digraph random_digraph(sim::Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0:
      return graph::make_chain(rng.uniform(1, 4));
    case 1:
      return graph::make_fork_join(rng.uniform(1, 3));
    case 2:
      return graph::make_random_dag(rng.uniform(1, 5), 0.4, rng);
    default:
      return graph::make_series_parallel(rng.uniform(1, 4), 0.5, rng);
  }
}

GraphModel random_model(sim::Rng& rng, Time min_d, Time max_d) {
  const graph::Digraph dag = random_digraph(rng);
  CommGraph comm;
  for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
    comm.add_element("e" + std::to_string(v), rng.uniform(1, 2));
  }
  for (const auto& e : dag.edges()) {
    comm.add_channel(static_cast<ElementId>(e.from), static_cast<ElementId>(e.to));
  }
  const std::size_t n = dag.node_count();
  GraphModel model(std::move(comm));

  const int k = static_cast<int>(rng.uniform(1, 3));
  for (int c = 0; c < k; ++c) {
    TaskGraph tg;
    graph::NodeId v = static_cast<graph::NodeId>(rng.uniform(0, n - 1));
    OpId prev = tg.add_op(static_cast<ElementId>(v));
    const int steps = static_cast<int>(rng.uniform(0, 2));
    for (int s = 0; s < steps; ++s) {
      const auto& succ = dag.successors(v);
      if (succ.empty()) break;
      v = succ[rng.uniform(0, succ.size() - 1)];
      const OpId op = tg.add_op(static_cast<ElementId>(v));
      tg.add_dep(prev, op);
      prev = op;
    }
    model.add_constraint(TimingConstraint{
        "c" + std::to_string(c), std::move(tg), rng.uniform(1, 6),
        rng.uniform(min_d, max_d),
        rng.chance(0.4) ? ConstraintKind::kPeriodic : ConstraintKind::kAsynchronous});
  }
  return model;
}

StaticSchedule random_schedule(sim::Rng& rng, const GraphModel& model) {
  StaticSchedule sched;
  const std::size_t n = model.comm().size();
  const int entries = static_cast<int>(rng.uniform(0, 12));
  for (int i = 0; i < entries; ++i) {
    if (rng.chance(0.25)) {
      sched.push_idle(rng.uniform(1, 3));
    } else {
      const auto e = static_cast<ElementId>(rng.uniform(0, n - 1));
      sched.push_execution(e, model.comm().weight(e));
    }
  }
  return sched;
}

// The drop edit compact_schedule performs: execution entry -> equal idle.
StaticSchedule drop_to_idle(const StaticSchedule& sched, std::size_t entry) {
  StaticSchedule out;
  const auto& entries = sched.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i == entry || entries[i].elem == kIdleEntry) {
      out.push_idle(entries[i].duration);
    } else {
      out.push_execution(entries[i].elem, entries[i].duration);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Differential: indexed serial + parallel vs the flat-scan reference.

class IndexedVerifyDiff : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedVerifyDiff,
                         ::testing::Range<std::uint64_t>(0, 200));

TEST_P(IndexedVerifyDiff, BitIdenticalToFlatReference) {
  sim::Rng rng(GetParam() * 6364136223846793005ULL + 1442695040888963407ULL);
  const GraphModel model = random_model(rng, 1, 12);
  const StaticSchedule sched = random_schedule(rng, model);

  VerifyStats flat_stats;
  const FeasibilityReport flat = verify_schedule(
      sched, model, VerifyOptions{.stats = &flat_stats, .flat_reference = true});
  EXPECT_EQ(flat_stats.threads_used, 1u);
  EXPECT_EQ(flat_stats.embedding_queries, 0u);  // reference path: no counters

  for (const std::size_t n_threads : {1, 2, 4, 8}) {
    VerifyStats stats;
    const FeasibilityReport indexed = verify_schedule(
        sched, model, VerifyOptions{.n_threads = n_threads, .stats = &stats});
    EXPECT_EQ(indexed, flat) << "n_threads = " << n_threads;
    // Every work unit is answered exactly once, computed or memoized —
    // now on the serial path too (it shares the query table).
    EXPECT_EQ(stats.embedding_queries + stats.memo_hits, stats.work_units);
  }
}

// ---------------------------------------------------------------------------
// Witness pin: kernel witnesses == flat-scan witnesses, and assignments
// are valid positions into the public unroll_ops view.

void expect_valid_witness(const EmbeddingWitness& w, const TaskGraph& tg,
                          const std::vector<ScheduledOp>& ops, Time window_begin) {
  ASSERT_EQ(w.assignment.size(), tg.size());
  std::vector<bool> taken(ops.size(), false);
  for (std::size_t j = 0; j < w.assignment.size(); ++j) {
    const std::size_t idx = w.assignment[j];
    ASSERT_LT(idx, ops.size());
    EXPECT_EQ(ops[idx].elem, tg.labels()[j]);
    EXPECT_GE(ops[idx].start, window_begin);
    EXPECT_LE(ops[idx].finish(), w.finish);
    EXPECT_FALSE(taken[idx]) << "assignment not injective";
    taken[idx] = true;
  }
}

class KernelWitnessPin : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, KernelWitnessPin,
                         ::testing::Range<std::uint64_t>(0, 150));

TEST_P(KernelWitnessPin, MatchesFlatScanIncludingExclusions) {
  sim::Rng rng(GetParam() * 2862933555777941757ULL + 3037000493ULL);
  const GraphModel model = random_model(rng, 1, 10);
  const StaticSchedule sched = random_schedule(rng, model);
  if (sched.length() == 0) GTEST_SKIP() << "empty schedule";

  const std::size_t periods = 4;
  const std::vector<ScheduledOp> ops = unroll_ops(sched, periods);
  const UnrollIndex index(sched, periods);
  ASSERT_EQ(index.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(index.op(i).elem, ops[i].elem);
    EXPECT_EQ(index.op(i).start, ops[i].start);
    EXPECT_EQ(index.op(i).duration, ops[i].duration);
  }

  for (std::size_t c = 0; c < model.constraint_count(); ++c) {
    const TaskGraph& tg = model.constraint(c).task_graph;
    EmbeddingKernel kernel(tg, index);
    for (Time t = 0; t < sched.length() + 2; ++t) {
      const auto flat = find_earliest_embedding(tg, ops, t);
      const auto indexed = kernel.witness_at(t);
      ASSERT_EQ(indexed.has_value(), flat.has_value()) << "t = " << t;
      if (!flat) continue;
      EXPECT_EQ(indexed->finish, flat->finish);
      EXPECT_EQ(indexed->assignment, flat->assignment);  // bit-identical
      expect_valid_witness(*indexed, tg, ops, t);

      // Exclude the first pick and re-solve: both kernels must agree on
      // the alternate (or on infeasibility).
      std::vector<bool> excluded(ops.size(), false);
      excluded[flat->assignment.front()] = true;
      const auto flat_ex = find_earliest_embedding(tg, ops, t, excluded);
      const auto indexed_ex = kernel.witness_at(t, excluded);
      ASSERT_EQ(indexed_ex.has_value(), flat_ex.has_value());
      if (flat_ex) {
        EXPECT_EQ(indexed_ex->finish, flat_ex->finish);
        EXPECT_EQ(indexed_ex->assignment, flat_ex->assignment);
        expect_valid_witness(*indexed_ex, tg, ops, t);
      }
    }
    // finish_at agrees with witness_at and with the span reference.
    for (Time t = 0; t < sched.length() + 2; ++t) {
      const auto f = kernel.finish_at(t);
      const auto ref = earliest_embedding_finish(tg, ops, t);
      EXPECT_EQ(f, ref) << "t = " << t;
    }
  }
}

// Repeated labels force the branch-and-bound kernel: two ops on the same
// element must map to *distinct* executions, bit-identically to the
// flat-scan BnB.
TEST(KernelWitnessPin, BnbInjectiveRepeatedLabels) {
  TaskGraph tg;  // a -> b -> a : element 0 labels two ops
  const OpId o0 = tg.add_op(0);
  const OpId o1 = tg.add_op(1);
  const OpId o2 = tg.add_op(0);
  tg.add_dep(o0, o1);
  tg.add_dep(o1, o2);

  StaticSchedule sched;
  sched.push_execution(0, 1);
  sched.push_idle(1);
  sched.push_execution(1, 2);
  sched.push_execution(0, 1);
  sched.push_idle(2);

  const std::size_t periods = 5;
  const std::vector<ScheduledOp> ops = unroll_ops(sched, periods);
  const UnrollIndex index(sched, periods);
  EmbeddingKernel kernel(tg, index);
  for (Time t = 0; t < 2 * sched.length(); ++t) {
    const auto flat = find_earliest_embedding(tg, ops, t);
    const auto indexed = kernel.witness_at(t);
    ASSERT_EQ(indexed.has_value(), flat.has_value()) << "t = " << t;
    if (!flat) continue;
    EXPECT_EQ(indexed->finish, flat->finish);
    EXPECT_EQ(indexed->assignment, flat->assignment);
    EXPECT_NE(indexed->assignment[o0], indexed->assignment[o2]);
    expect_valid_witness(*indexed, tg, ops, t);
  }
}

// A periods_limit-capped kernel over a longer shared index answers
// exactly like a kernel over the shorter unroll.
TEST(KernelWitnessPin, PeriodsLimitMatchesShorterUnroll) {
  sim::Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    const GraphModel model = random_model(rng, 1, 8);
    const StaticSchedule sched = random_schedule(rng, model);
    if (sched.length() == 0) continue;
    const UnrollIndex big(sched, 6);
    const std::vector<ScheduledOp> small_ops = unroll_ops(sched, 2);
    for (std::size_t c = 0; c < model.constraint_count(); ++c) {
      const TaskGraph& tg = model.constraint(c).task_graph;
      EmbeddingKernel capped(tg, big, /*periods_limit=*/2);
      for (Time t = 0; t < sched.length(); ++t) {
        EXPECT_EQ(capped.finish_at(t), earliest_embedding_finish(tg, small_ops, t));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// IncrementalVerifier: drop reports equal from-scratch verification,
// across rejected candidates and commits.

class IncrementalDiff : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDiff,
                         ::testing::Range<std::uint64_t>(0, 100));

TEST_P(IncrementalDiff, DropReportsMatchFullVerify) {
  sim::Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 0xBF58476D1CE4E5B9ULL);
  const GraphModel model = random_model(rng, 1, 12);
  StaticSchedule sched = random_schedule(rng, model);

  IncrementalVerifier verifier(model);
  EXPECT_EQ(verifier.verify(sched), verify_schedule(sched, model, VerifyOptions{.n_threads = 1}));

  // Walk the executions like compact_schedule does: probe every drop,
  // commit the feasible ones, and re-check the committed baseline.
  for (int round = 0; round < 3; ++round) {
    bool committed = false;
    const auto entries = sched.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].elem == kIdleEntry) continue;
      const StaticSchedule candidate = drop_to_idle(sched, i);
      const FeasibilityReport& incremental = verifier.verify_drop(candidate, i);
      const FeasibilityReport full =
          verify_schedule(candidate, model, VerifyOptions{.n_threads = 1});
      ASSERT_EQ(incremental, full) << "entry " << i;
      if (incremental.feasible) {
        verifier.commit_drop();
        sched = candidate;
        EXPECT_EQ(verifier.report(), full);
        committed = true;
        break;
      }
    }
    if (!committed) break;
  }
  // After the walk the cumulative counters are consistent.
  const VerifyStats& stats = verifier.stats();
  EXPECT_EQ(stats.embedding_queries + stats.memo_hits + stats.incremental_hits,
            stats.work_units);
}

// Infeasible drops are also reported exactly — including the case where
// the dropped execution was the element's last occurrence.
TEST(IncrementalVerifier, LastOccurrenceDropMatchesFullVerify) {
  CommGraph comm;
  comm.add_element("a", 1);
  comm.add_element("b", 1);
  GraphModel model(std::move(comm));
  TaskGraph tg;
  tg.add_op(0);
  model.add_constraint(
      TimingConstraint{"c0", std::move(tg), 1, 6, ConstraintKind::kAsynchronous});

  StaticSchedule sched;
  sched.push_execution(0, 1);  // only execution of element 0
  sched.push_execution(1, 1);
  sched.push_idle(2);

  IncrementalVerifier verifier(model);
  EXPECT_TRUE(verifier.verify(sched).feasible);
  const StaticSchedule candidate = drop_to_idle(sched, 0);
  const FeasibilityReport& inc = verifier.verify_drop(candidate, 0);
  const FeasibilityReport full = verify_schedule(candidate, model);
  EXPECT_EQ(inc, full);
  EXPECT_FALSE(inc.feasible);
}

TEST(IncrementalVerifier, RejectsMalformedEdits) {
  CommGraph comm;
  comm.add_element("a", 1);
  GraphModel model(std::move(comm));
  StaticSchedule sched;
  sched.push_execution(0, 1);
  sched.push_idle(1);

  IncrementalVerifier verifier(model);
  verifier.verify(sched);
  EXPECT_THROW(verifier.verify_drop(sched, 1), std::invalid_argument);  // idle entry
  StaticSchedule longer = sched;
  longer.push_idle(1);
  EXPECT_THROW(verifier.verify_drop(longer, 0), std::invalid_argument);
  EXPECT_THROW(verifier.commit_drop(), std::logic_error);  // nothing pending
}

// ---------------------------------------------------------------------------
// compact_schedule on the incremental verifier == legacy generate-and-test.

StaticSchedule reference_compact(const StaticSchedule& sched, const GraphModel& model,
                                 std::size_t* removed) {
  StaticSchedule current = sched;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto entries = current.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].elem == kIdleEntry) continue;
      StaticSchedule candidate = drop_to_idle(current, i);
      if (verify_schedule(candidate, model, VerifyOptions{.n_threads = 1}).feasible) {
        current = std::move(candidate);
        if (removed) ++*removed;
        changed = true;
        break;
      }
    }
  }
  return current;
}

TEST(CompactEquivalence, IncrementalCompactionMatchesLegacy) {
  sim::Rng rng(0xC0117AC7);
  int compacted = 0;
  std::size_t total_hits = 0;
  for (int i = 0; i < 40; ++i) {
    const GraphModel model = random_model(rng, 4, 16);
    const HeuristicResult built = latency_schedule(model, HeuristicOptions{.n_threads = 1});
    if (!built.success) continue;
    // The constructed schedule is expressed against the (possibly
    // pipelined) scheduled_model, not the input model.
    const GraphModel& scheduled = built.scheduled_model;

    OptimizeStats stats;
    const StaticSchedule fast = compact_schedule(*built.schedule, scheduled, &stats);
    std::size_t removed = 0;
    const StaticSchedule slow = reference_compact(*built.schedule, scheduled, &removed);
    EXPECT_EQ(fast, slow);
    EXPECT_EQ(stats.executions_removed, removed);
    total_hits += stats.verify.incremental_hits;
    ++compacted;
  }
  ASSERT_GT(compacted, 0);
  // The whole point: the loop stops re-verifying unedited windows.
  EXPECT_GT(total_hits, 0u);
}

TEST(HeuristicRefine, RefinementPreservesFeasibilityAndCachesWindows) {
  sim::Rng rng(4242);
  bool exercised = false;
  for (int i = 0; i < 20 && !exercised; ++i) {
    const GraphModel model = random_model(rng, 6, 20);
    HeuristicOptions options;
    options.n_threads = 1;
    options.refine = true;
    const HeuristicResult refined = latency_schedule(model, options);
    if (!refined.success) continue;
    ASSERT_TRUE(refined.report.feasible);
    EXPECT_TRUE(verify_schedule(*refined.schedule, refined.scheduled_model).feasible);
    if (refined.refine_stats.executions_removed > 0) {
      EXPECT_GT(refined.refine_stats.verify.incremental_hits, 0u);
      exercised = true;
    }
  }
  EXPECT_TRUE(exercised) << "no model exercised the refinement pass";
}

// ---------------------------------------------------------------------------
// Small-work cutoff (auto thread count) + counter sanity.

TEST(VerifyCutoff, AutoFallsBackToSerialOnSmallPlans) {
  CommGraph comm;
  comm.add_element("a", 1);
  GraphModel model(std::move(comm));
  TaskGraph tg;
  tg.add_op(0);
  model.add_constraint(
      TimingConstraint{"c0", std::move(tg), 1, 4, ConstraintKind::kAsynchronous});
  StaticSchedule sched;
  sched.push_execution(0, 1);
  sched.push_idle(1);

  VerifyStats stats;
  const FeasibilityReport auto_report =
      verify_schedule(sched, model, VerifyOptions{.n_threads = 0, .stats = &stats});
  // The plan is far below the cutoff, so auto must choose the serial
  // path regardless of core count.
  EXPECT_EQ(stats.threads_used, 1u);

  // Explicit thread counts are honoured — and agree with auto.
  const FeasibilityReport forced =
      verify_schedule(sched, model, VerifyOptions{.n_threads = 4, .stats = &stats});
  EXPECT_EQ(stats.threads_used, 4u);
  EXPECT_EQ(forced, auto_report);
}

// The cutoff is a constant, so the path a plan takes depends on the
// plan alone. RTG_SERIAL_CUTOFF, the override of the former timing
// calibration, must have no effect.
TEST(VerifyCutoff, FixedCutoffDecidesThePath) {
  ASSERT_EQ(setenv("RTG_SERIAL_CUTOFF", "7", 1), 0);
  EXPECT_EQ(serial_parallel_cutoff(), 4096u);

  // One async single-op constraint over n unit executions has exactly n
  // work units: window offset 0 plus every start + 1 inside the period.
  const auto auto_threads = [](std::size_t units) {
    CommGraph comm;
    comm.add_element("a", 1);
    GraphModel model(std::move(comm));
    TaskGraph tg;
    tg.add_op(0);
    model.add_constraint(
        TimingConstraint{"c0", std::move(tg), 1, 4, ConstraintKind::kAsynchronous});
    StaticSchedule sched;
    for (std::size_t i = 0; i < units; ++i) sched.push_execution(0, 1);
    VerifyStats stats;
    (void)verify_schedule(sched, model, VerifyOptions{.n_threads = 0, .stats = &stats});
    EXPECT_EQ(stats.work_units, units);
    return stats.threads_used;
  };
  EXPECT_EQ(auto_threads(4095), 1u);
  EXPECT_EQ(auto_threads(4096), util::resolve_threads(0));
}

TEST(VerifyCounters, SerialEngineReportsKernelActivity) {
  // One async constraint over a schedule with several executions: its
  // offset set {0} ∪ {op starts + 1} yields multiple queries on one
  // kernel, so every counter must move.
  CommGraph comm;
  comm.add_element("a", 1);
  comm.add_element("b", 1);
  comm.add_channel(0, 1);
  GraphModel model(std::move(comm));
  TaskGraph tg;
  const OpId o0 = tg.add_op(0);
  const OpId o1 = tg.add_op(1);
  tg.add_dep(o0, o1);
  model.add_constraint(
      TimingConstraint{"c0", std::move(tg), 1, 8, ConstraintKind::kAsynchronous});

  StaticSchedule sched;
  sched.push_execution(0, 1);
  sched.push_execution(1, 1);
  sched.push_idle(1);
  sched.push_execution(0, 1);
  sched.push_execution(1, 1);
  sched.push_idle(1);

  VerifyStats stats;
  const FeasibilityReport report =
      verify_schedule(sched, model, VerifyOptions{.n_threads = 1, .stats = &stats});
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(stats.threads_used, 1u);
  EXPECT_EQ(stats.embedding_queries + stats.memo_hits, stats.work_units);
  EXPECT_GT(stats.embedding_queries, 1u);
  EXPECT_GT(stats.index_seeks, 0u);
  EXPECT_GT(stats.arena_reuses, 0u);
}

// ---------------------------------------------------------------------------
// Per-constraint jump points: the indexed engine queries J_C, the flat
// reference the full jump set J; the reports must agree.

void expect_matches_flat(const StaticSchedule& sched, const GraphModel& model,
                         const std::string& what) {
  const FeasibilityReport flat =
      verify_schedule(sched, model, VerifyOptions{.flat_reference = true});
  for (const std::size_t n_threads : {1, 4}) {
    VerifyStats stats;
    const FeasibilityReport indexed = verify_schedule(
        sched, model, VerifyOptions{.n_threads = n_threads, .stats = &stats});
    ASSERT_EQ(indexed, flat) << what << " n_threads = " << n_threads;
    EXPECT_EQ(stats.embedding_queries + stats.memo_hits, stats.work_units) << what;
  }
}

TEST(JumpPoints, CorpusSliceMatchesFlatReference) {
  std::size_t verified = 0;
  for (std::uint64_t index = 0; index < 200; ++index) {
    const gen::Scenario scenario = gen::generate(gen::corpus_options(index));
    const HeuristicResult built =
        latency_schedule(scenario.model, HeuristicOptions{.n_threads = 1});
    if (!built.success) continue;
    expect_matches_flat(*built.schedule, built.scheduled_model,
                        "corpus index " + std::to_string(index));
    ++verified;
  }
  EXPECT_GT(verified, 100u);
}

// The long coprime-period family of the synth_verify benchmark workload:
// 24 elements, 8 constraints, schedules of 100 000..130 000 slots. Two
// of them keep the flat reference affordable.
TEST(JumpPoints, LongCoprimeSchedulesMatchFlatReference) {
  std::size_t verified = 0;
  for (std::uint64_t draw = 0; verified < 2 && draw < 200; ++draw) {
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
    const HeuristicResult built =
        latency_schedule(scenario.model, HeuristicOptions{.n_threads = 1});
    if (!built.success || built.schedule->length() < 100'000 ||
        built.schedule->length() > 130'000) {
      continue;
    }
    expect_matches_flat(*built.schedule, built.scheduled_model,
                        "draw " + std::to_string(draw));
    ++verified;
  }
  EXPECT_EQ(verified, 2u);
}

// Two unit elements, one async constraint over each: `a` runs at 0 and
// 10 of a 20-slot cycle, `b` fills every other slot.
struct SparseElementCase {
  GraphModel model;
  StaticSchedule sched;
};

SparseElementCase sparse_element_case(bool with_b_constraint) {
  CommGraph comm;
  comm.add_element("a", 1);
  comm.add_element("b", 1);
  GraphModel model(std::move(comm));
  TaskGraph ta;
  ta.add_op(0);
  model.add_constraint(
      TimingConstraint{"ca", std::move(ta), 1, 12, ConstraintKind::kAsynchronous});
  if (with_b_constraint) {
    TaskGraph tb;
    tb.add_op(1);
    model.add_constraint(
        TimingConstraint{"cb", std::move(tb), 1, 4, ConstraintKind::kAsynchronous});
  }
  StaticSchedule sched;
  for (int half = 0; half < 2; ++half) {
    sched.push_execution(0, 1);
    for (int i = 0; i < 9; ++i) sched.push_execution(1, 1);
  }
  return {std::move(model), std::move(sched)};
}

TEST(JumpPoints, SparseElementWorkUnitsArePinned) {
  // J_ca = {0} ∪ {s + 1 : s in {0, 10}} — 1 + 2 units, not the 20 of
  // the full jump set.
  const SparseElementCase one = sparse_element_case(false);
  VerifyStats stats;
  const FeasibilityReport report =
      verify_schedule(one.sched, one.model, VerifyOptions{.n_threads = 1, .stats = &stats});
  EXPECT_EQ(stats.work_units, 1u + 2u);
  ASSERT_TRUE(report.verdicts[0].latency.has_value());
  EXPECT_EQ(*report.verdicts[0].latency, 10);  // from 1, the `a` at 10 finishes at 11
  expect_matches_flat(one.sched, one.model, "a only");

  // Adding cb over `b`: its starts below P - 1 are 1..9 and 11..18, so
  // J_cb has 1 + 17 points, and ca's count is unchanged.
  const SparseElementCase two = sparse_element_case(true);
  (void)verify_schedule(two.sched, two.model, VerifyOptions{.n_threads = 1, .stats = &stats});
  EXPECT_EQ(stats.work_units, (1u + 2u) + (1u + 17u));
  expect_matches_flat(two.sched, two.model, "a and b");
}

// Dropping an execution of `a` removes its start + 1 from J_ca only; the
// incremental session must still agree with a fresh verification, for
// drops of either element, across commits, and through compaction.
TEST(JumpPoints, DropOfOneConstraintsElementMatchesFreshVerify) {
  const SparseElementCase two = sparse_element_case(true);
  StaticSchedule sched = two.sched;
  IncrementalVerifier verifier(two.model);
  ASSERT_EQ(verifier.verify(sched),
            verify_schedule(sched, two.model, VerifyOptions{.n_threads = 1}));
  std::size_t committed = 0;
  for (const std::size_t entry : {std::size_t{10}, std::size_t{3}, std::size_t{0}}) {
    const StaticSchedule candidate = drop_to_idle(sched, entry);
    const FeasibilityReport& incremental = verifier.verify_drop(candidate, entry);
    const FeasibilityReport fresh =
        verify_schedule(candidate, two.model, VerifyOptions{.n_threads = 1});
    ASSERT_EQ(incremental, fresh) << "entry " << entry;
    if (!incremental.feasible) continue;
    verifier.commit_drop();
    sched = candidate;
    EXPECT_EQ(verifier.report(), fresh);
    ++committed;
  }
  // Dropping `a` at 10 leaves a window [1, 21) with no `a`: infeasible
  // (latency 20 > 12); the `b` drop at 3 is feasible; the last `a`
  // drop loses coverage.
  EXPECT_EQ(committed, 1u);

  std::size_t removed = 0;
  OptimizeStats stats;
  const StaticSchedule fast = compact_schedule(two.sched, two.model, &stats);
  EXPECT_EQ(fast, reference_compact(two.sched, two.model, &removed));
  EXPECT_EQ(stats.executions_removed, removed);
  EXPECT_GT(removed, 0u);
}

// A cancel flag set before the call ends a construction over a
// 10.7 M-slot hyperperiod with "cancelled" and still bumps the beacon.
TEST(HeuristicCancel, PresetCancelStopsALongConstruction) {
  CommGraph comm;
  comm.add_element("a", 1);
  comm.add_element("b", 1);
  comm.add_element("c", 1);
  GraphModel model(std::move(comm));
  const Time deadlines[] = {2 * 211 - 1, 2 * 223 - 1, 2 * 227 - 1};  // servers 211, 223, 227
  for (ElementId e = 0; e < 3; ++e) {
    TaskGraph tg;
    tg.add_op(e);
    model.add_constraint(TimingConstraint{"c" + std::to_string(e), std::move(tg), 1,
                                          deadlines[e], ConstraintKind::kAsynchronous});
  }
  HeuristicOptions options;
  options.n_threads = 1;
  options.max_schedule_length = 100'000'000;
  const HeuristicResult uncancelled = latency_schedule(model, options);
  ASSERT_TRUE(uncancelled.success);
  ASSERT_EQ(uncancelled.schedule->length(), 211 * 223 * 227);

  std::atomic<bool> cancel{true};
  std::atomic<std::uint64_t> progress{0};
  options.cancel = &cancel;
  options.progress = &progress;
  const HeuristicResult h = latency_schedule(model, options);
  EXPECT_FALSE(h.success);
  EXPECT_EQ(h.failure_reason, "cancelled");
  EXPECT_FALSE(h.schedule.has_value());
  EXPECT_GT(progress.load(), 0u);
}

// Unpipelined weights make the op-granularity EDF loop miss a deadline
// that the demand test admits, after more than 1024 loop steps. The
// loop's own poll is then the only place a preset cancel can be seen:
// verification is never reached.
TEST(HeuristicCancel, PresetCancelIsPolledInsideTheEdfLoop) {
  CommGraph comm;
  comm.add_element("a", 4);
  comm.add_element("b", 2);
  comm.add_element("c", 2);
  GraphModel model(std::move(comm));
  const std::pair<ElementId, Time> constraints[] = {{0, 72}, {1, 82}, {0, 12}, {2, 43}};
  for (const auto& [elem, deadline] : constraints) {
    TaskGraph tg;
    tg.add_op(elem);
    model.add_constraint(TimingConstraint{"c" + std::to_string(model.constraint_count()),
                                          std::move(tg), 1, deadline,
                                          ConstraintKind::kAsynchronous});
  }
  HeuristicOptions options;
  options.pipeline = false;
  options.n_threads = 1;
  EXPECT_EQ(latency_schedule(model, options).failure_reason,
            "EDF simulation: instance finished past its deadline");

  std::atomic<bool> cancel{true};
  std::atomic<std::uint64_t> progress{0};
  options.cancel = &cancel;
  options.progress = &progress;
  EXPECT_EQ(latency_schedule(model, options).failure_reason, "cancelled");
  EXPECT_EQ(progress.load(), 1u);  // the first poll, at loop step 1024
}

}  // namespace
}  // namespace rtg::core
