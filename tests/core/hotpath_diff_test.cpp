// Differential safety net for the indexed verify engine (UnrollIndex +
// EmbeddingKernel) against the flat-scan reference and brute force.
//
//   * Random back-channel models: verification at 1 and 2 threads must
//     reproduce the flat_reference report, including the branch-and-
//     bound kernel on labels revisited through a back-channel;
//   * Corpus slice: a 64-seed slice of the generator corpus verified
//     with flat_reference on/off must agree on every FeasibilityReport,
//     witness, and chained report fingerprint;
//   * UnrollIndex rows: first_at_or_after (row gate or binary search)
//     and next_occurrence must coincide with brute force over the
//     materialized unroll, and the row gates must count their skips;
//   * Counter pins: on BnB (repeated-label) workloads the per-query
//     seek sequence is partition-independent, so bitset_skips and
//     index_seeks must be identical at 1/2/4 threads;
//   * Oversubscription regression: n_threads = 8 verification on an
//     E16-style workload must stay within 2x of serial wall time (the
//     pre-fix pool collapsed by two orders of magnitude; the threshold
//     is deliberately loose for noisy hosts). Runs under the TSan CI
//     job like every other test.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "gen/generator.hpp"
#include "graph/generators.hpp"
#include "sim/rng.hpp"

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

// Like the embedding-kernel suite's generator, but with back-channels
// so a slice of the constraints can revisit a label (a -> b -> a),
// exercising the BnB kernel alongside the greedy one.
GraphModel random_model(sim::Rng& rng) {
  const graph::Digraph dag = random_digraph(rng);
  CommGraph comm;
  for (graph::NodeId v = 0; v < dag.node_count(); ++v) {
    comm.add_element("e" + std::to_string(v), rng.uniform(1, 2));
  }
  for (const auto& e : dag.edges()) {
    comm.add_channel(static_cast<ElementId>(e.from), static_cast<ElementId>(e.to));
    comm.add_channel(static_cast<ElementId>(e.to), static_cast<ElementId>(e.from));
  }
  const std::size_t n = dag.node_count();
  GraphModel model(std::move(comm));

  const int k = static_cast<int>(rng.uniform(1, 3));
  for (int c = 0; c < k; ++c) {
    TaskGraph tg;
    const auto& edges = dag.edges();
    if (!edges.empty() && rng.chance(0.4)) {
      const auto& e = edges[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(edges.size()) - 1))];
      const OpId o0 = tg.add_op(static_cast<ElementId>(e.from));
      const OpId o1 = tg.add_op(static_cast<ElementId>(e.to));
      const OpId o2 = tg.add_op(static_cast<ElementId>(e.from));
      tg.add_dep(o0, o1);
      tg.add_dep(o1, o2);
    } else {
      auto v = static_cast<graph::NodeId>(
          rng.uniform(0, static_cast<std::int64_t>(n) - 1));
      OpId prev = tg.add_op(static_cast<ElementId>(v));
      const int steps = static_cast<int>(rng.uniform(0, 2));
      for (int s = 0; s < steps; ++s) {
        const auto& succ = dag.successors(v);
        if (succ.empty()) break;
        v = succ[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(succ.size()) - 1))];
        const OpId op = tg.add_op(static_cast<ElementId>(v));
        tg.add_dep(prev, op);
        prev = op;
      }
    }
    model.add_constraint(TimingConstraint{
        "c" + std::to_string(c), std::move(tg), rng.uniform(2, 8),
        rng.uniform(4, 24),
        rng.chance(0.4) ? ConstraintKind::kPeriodic : ConstraintKind::kAsynchronous});
  }
  return model;
}

StaticSchedule random_schedule(sim::Rng& rng, const GraphModel& model) {
  StaticSchedule sched;
  const auto n = static_cast<std::int64_t>(model.comm().size());
  const int entries = static_cast<int>(rng.uniform(1, 14));
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

std::string report_text(const FeasibilityReport& report) {
  std::ostringstream out;
  out << report.feasible << ';';
  for (const ConstraintVerdict& v : report.verdicts) {
    out << v.constraint << ',' << v.satisfied << ','
        << (v.latency ? *v.latency : Time(-1)) << ';';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Random back-channel models: indexed engine == flat-scan reference.

TEST(HotPathRandom, BackChannelModelsMatchFlatReference) {
  sim::Rng rng(0x10CA1);
  for (int i = 0; i < 60; ++i) {
    const GraphModel model = random_model(rng);
    const StaticSchedule sched = random_schedule(rng, model);

    VerifyOptions flat_options;
    flat_options.flat_reference = true;
    const FeasibilityReport reference = verify_schedule(sched, model, flat_options);

    for (const std::size_t n_threads : {1, 2}) {
      VerifyStats stats;
      VerifyOptions options;
      options.n_threads = n_threads;
      options.stats = &stats;
      const FeasibilityReport got = verify_schedule(sched, model, options);
      EXPECT_EQ(got, reference) << "seed round " << i << " threads=" << n_threads;
      EXPECT_EQ(stats.embedding_queries + stats.memo_hits, stats.work_units);
    }
  }
}

// ---------------------------------------------------------------------------
// 64-seed generator-corpus slice: flat vs indexed, reports + witnesses +
// fingerprints.

TEST(HotPathCorpus, CorpusSliceIsBitIdenticalToFlatReference) {
  std::size_t verified = 0;
  std::uint64_t flat_fp = 1469598103934665603ull;     // fnv offset basis
  std::uint64_t indexed_fp = 1469598103934665603ull;  // (chained per scenario)
  for (std::uint64_t index = 0; index < 64; ++index) {
    const gen::Scenario scenario = gen::generate(gen::corpus_options(index));
    const HeuristicResult built = latency_schedule(scenario.model);
    if (!built.success) continue;
    const GraphModel& model = built.scheduled_model;
    const StaticSchedule& sched = *built.schedule;

    VerifyOptions flat_options;
    flat_options.flat_reference = true;
    const FeasibilityReport flat = verify_schedule(sched, model, flat_options);
    const FeasibilityReport indexed = verify_schedule(sched, model);
    ASSERT_EQ(indexed, flat) << "corpus index " << index << " (" << scenario.name
                             << ")";

    // Chain a fingerprint over (scenario identity, report) under each
    // engine; equal chains pin the whole slice, not just each row.
    const std::string tag = std::to_string(scenario.fingerprint);
    flat_fp = gen::fnv1a(tag + report_text(flat) + std::to_string(flat_fp));
    indexed_fp = gen::fnv1a(tag + report_text(indexed) + std::to_string(indexed_fp));

    // Witness pin over the first periods of every constraint.
    const std::size_t periods = 4;
    const std::vector<ScheduledOp> ops = unroll_ops(sched, periods);
    const UnrollIndex idx(sched, periods);
    for (std::size_t c = 0; c < model.constraint_count(); ++c) {
      const TaskGraph& tg = model.constraint(c).task_graph;
      EmbeddingKernel kernel(tg, idx);
      for (Time t = 0; t < sched.length(); t += 1 + sched.length() / 7) {
        const auto ref = find_earliest_embedding(tg, ops, t);
        const auto got = kernel.witness_at(t);
        ASSERT_EQ(got.has_value(), ref.has_value())
            << "corpus index " << index << " c" << c << " t=" << t;
        if (ref) {
          EXPECT_EQ(got->finish, ref->finish);
          EXPECT_EQ(got->assignment, ref->assignment);
        }
      }
    }
    ++verified;
  }
  EXPECT_EQ(flat_fp, indexed_fp);
  EXPECT_GT(verified, 32u) << "corpus slice mostly unschedulable — vacuous run";
}

// ---------------------------------------------------------------------------
// UnrollIndex rows: row answers == brute force.

TEST(UnrollIndexBitset, RowAnswersMatchBruteForce) {
  sim::Rng rng(0xB175E7);
  for (int round = 0; round < 60; ++round) {
    const GraphModel model = random_model(rng);
    const StaticSchedule sched = random_schedule(rng, model);
    if (sched.length() == 0) continue;
    const std::size_t periods = static_cast<std::size_t>(rng.uniform(1, 5));
    const UnrollIndex index(sched, periods);
    const std::vector<ScheduledOp> ops = unroll_ops(sched, periods);
    ASSERT_EQ(index.size(), ops.size());
    const auto n_elems = static_cast<ElementId>(model.comm().size());

    for (ElementId e = 0; e < n_elems; ++e) {
      // first_at_or_after == first matching op in the materialized view,
      // whether the row gate or the binary search answered.
      const Time t_end = static_cast<Time>(periods) * sched.length() + 2;
      for (Time t = -1; t < t_end; ++t) {
        std::size_t want = UnrollIndex::npos;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          if (ops[i].elem == e && ops[i].start >= t) {
            want = i;
            break;
          }
        }
        std::size_t skips = 0;
        const std::size_t got = index.first_at_or_after(e, t, ops.size(), &skips);
        EXPECT_EQ(got, want) << "e=" << e << " t=" << t << " round " << round;
      }
    }

    // next_occurrence chains enumerate exactly the element's op
    // subsequence.
    for (std::size_t i = 0; i < ops.size(); ++i) {
      std::size_t want = UnrollIndex::npos;
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        if (ops[j].elem == ops[i].elem) {
          want = j;
          break;
        }
      }
      EXPECT_EQ(index.next_occurrence(i, ops.size()), want) << "i=" << i;
    }
  }
}

TEST(UnrollIndexBitset, GateSkipsAreCountedAndExact) {
  // One element occurring twice mid-period: windows at/before the first
  // start and past the last start must resolve via the row gates (and
  // count a skip), interior windows via the binary search (no skip).
  StaticSchedule sched;
  sched.push_idle(2);
  sched.push_execution(0, 1);
  sched.push_execution(1, 1);
  sched.push_execution(0, 1);
  sched.push_idle(1);  // period 6; element 0 starts at 2 and 4
  const UnrollIndex index(sched, 3);

  std::size_t skips = 0;
  EXPECT_EQ(index.first_at_or_after(0, 0, index.size(), &skips), 0u);  // head gate
  EXPECT_EQ(skips, 1u);
  EXPECT_EQ(index.first_at_or_after(0, 2, index.size(), &skips), 0u);  // == first
  EXPECT_EQ(skips, 2u);
  EXPECT_EQ(index.first_at_or_after(0, 5, index.size(), &skips), 3u);  // wrap gate
  EXPECT_EQ(skips, 3u);
  EXPECT_EQ(index.first_at_or_after(0, 3, index.size(), &skips), 2u);  // interior
  EXPECT_EQ(skips, 3u);  // binary-search path: no skip counted
}

// ---------------------------------------------------------------------------
// Counter pins: BnB workloads issue a partition-independent seek
// sequence, so the merged counters must agree across thread counts.

TEST(HotPathCounters, BnbCountersPinAcrossThreadCounts) {
  sim::Rng rng(0xC0117);
  int pinned = 0;
  for (int round = 0; round < 20; ++round) {
    CommGraph comm;
    comm.add_element("a", 1);
    comm.add_element("b", 1);
    comm.add_channel(0, 1);
    comm.add_channel(1, 0);
    GraphModel model(std::move(comm));
    for (int c = 0; c < 3; ++c) {
      // Repeated labels on every constraint: the BnB kernel keeps no
      // monotone-hint state, so its seeks are a pure per-query function
      // and cannot depend on how queries were dealt to workers.
      TaskGraph tg;
      const OpId o0 = tg.add_op(0);
      const OpId o1 = tg.add_op(1);
      const OpId o2 = tg.add_op(0);
      tg.add_dep(o0, o1);
      tg.add_dep(o1, o2);
      model.add_constraint(TimingConstraint{
          "c" + std::to_string(c), std::move(tg), rng.uniform(2, 6),
          rng.uniform(6, 20),
          c % 2 == 0 ? ConstraintKind::kAsynchronous : ConstraintKind::kPeriodic});
    }
    StaticSchedule sched;
    for (int i = 0; i < 10; ++i) {
      sched.push_execution(static_cast<ElementId>(rng.uniform(0, 1)), 1);
      if (rng.chance(0.3)) sched.push_idle(1);
    }

    VerifyStats serial;
    VerifyOptions serial_options;
    serial_options.n_threads = 1;
    serial_options.stats = &serial;
    const FeasibilityReport want = verify_schedule(sched, model, serial_options);
    if (serial.bitset_skips == 0) continue;  // degenerate round
    for (const std::size_t n_threads : {2, 4}) {
      VerifyStats stats;
      VerifyOptions options;
      options.n_threads = n_threads;
      options.stats = &stats;
      const FeasibilityReport got = verify_schedule(sched, model, options);
      EXPECT_EQ(got, want);
      EXPECT_EQ(stats.threads_used, n_threads);
      EXPECT_EQ(stats.bitset_skips, serial.bitset_skips) << "threads " << n_threads;
      EXPECT_EQ(stats.index_seeks, serial.index_seeks) << "threads " << n_threads;
      EXPECT_EQ(stats.embedding_queries, serial.embedding_queries);
      EXPECT_GT(stats.arena_bytes_peak, 0u);
    }
    ++pinned;
  }
  EXPECT_GT(pinned, 5) << "too few rounds produced bitset activity";
}

// ---------------------------------------------------------------------------
// Oversubscription regression (E16): forced n_threads = 8 on a host
// with fewer cores must not collapse. Pre-fix this ratio exceeded 50x.

TEST(HotPathOversubscription, EightThreadVerifyStaysNearSerial) {
  sim::Rng rng(0xE16);
  std::vector<std::pair<GraphModel, StaticSchedule>> cases;
  while (cases.size() < 6) {
    const GraphModel model = random_model(rng);
    const HeuristicResult built = latency_schedule(model);
    if (!built.success) continue;
    cases.emplace_back(built.scheduled_model, *built.schedule);
  }

  const auto run = [&](std::size_t n_threads) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 10; ++rep) {
      for (const auto& [model, sched] : cases) {
        VerifyOptions options;
        options.n_threads = n_threads;
        const FeasibilityReport report = verify_schedule(sched, model, options);
        EXPECT_FALSE(report.cancelled);
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  (void)run(1);  // warm caches
  const double serial = run(1);
  const double oversubscribed = run(8);
  // Loose 2x bound per the issue: sanitizer and scheduler noise is
  // real, but the pre-fix pathology was two orders of magnitude.
  EXPECT_LT(oversubscribed, 2.0 * serial + 0.05)
      << "serial " << serial << "s vs n_threads=8 " << oversubscribed << "s";
}

}  // namespace
}  // namespace rtg::core
