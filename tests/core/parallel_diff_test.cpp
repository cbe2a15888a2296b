// Differential tests for the parallel paths against their serial ones.
//
//   * verify_schedule must be *bit-identical* to the serial verifier at
//     every thread count — same verdict order, same latencies, same
//     satisfied flags (FeasibilityReport::operator== covers all of it);
//   * exact_feasible is one single-threaded search whose parallelism is
//     batch-level: searches running side by side on a pool must each
//     return exactly the lone call's result.
//
// Models are seeded-random over the graph generators so each run covers
// the same ~200 instances deterministically.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/feasibility.hpp"
#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "graph/generators.hpp"
#include "sim/rng.hpp"
#include "util/thread_pool.hpp"

namespace rtg::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

// Random communication graph drawn from the structured generators, so
// the differential sweep sees chains, fork-joins, and random DAGs, not
// just unstructured element soups.
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

// Builds a model whose comm graph mirrors the generated digraph and
// whose task graphs are label-respecting walks (so add_constraint's
// homomorphism validation always passes).
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
    // Walk forward along channels for a chain-shaped task graph.
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

// Random schedule over the model's elements: complete executions (one
// weight's worth of slots) interleaved with idle runs.
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

class ParallelVerifyDiff : public ::testing::TestWithParam<std::uint64_t> {};

// ~200 seeded models x 4 thread counts: the parallel verifier must
// reproduce the serial report exactly.
INSTANTIATE_TEST_SUITE_P(Seeds, ParallelVerifyDiff,
                         ::testing::Range<std::uint64_t>(0, 200));

TEST_P(ParallelVerifyDiff, BitIdenticalToSerial) {
  sim::Rng rng(GetParam() * 6364136223846793005ULL + 1442695040888963407ULL);
  const GraphModel model = random_model(rng, 1, 12);
  const StaticSchedule sched = random_schedule(rng, model);

  const FeasibilityReport serial = verify_schedule(sched, model, VerifyOptions{.n_threads = 1});
  for (const std::size_t n_threads : kThreadCounts) {
    VerifyStats stats;
    const FeasibilityReport parallel = verify_schedule(
        sched, model, VerifyOptions{.n_threads = n_threads, .stats = &stats});
    EXPECT_EQ(parallel, serial) << "n_threads = " << n_threads;
    if (n_threads > 1) {
      // Every work unit is answered exactly once, computed or memoized.
      EXPECT_EQ(stats.embedding_queries + stats.memo_hits, stats.work_units);
    }
  }
}

class ParallelExactDiff : public ::testing::TestWithParam<std::uint64_t> {};

// Smaller instances (the game is exponential). The service runs exact
// work one search per worker, so every search in a batch on a pool must
// return the lone call's status, states_explored and witness, and the
// witness must verify.
INSTANTIATE_TEST_SUITE_P(Seeds, ParallelExactDiff,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST_P(ParallelExactDiff, StatusMatchesSerial) {
  sim::Rng rng(GetParam() * 2862933555777941757ULL + 3037000493ULL);
  const GraphModel model = random_model(rng, 2, 6);

  ExactOptions options;
  options.state_budget = 200'000;
  const ExactResult serial = exact_feasible(model, options);
  if (serial.status == FeasibilityStatus::kFeasible) {
    ASSERT_TRUE(serial.schedule.has_value());
    EXPECT_TRUE(
        verify_schedule(*serial.schedule, model, VerifyOptions{.n_threads = 1}).feasible);
  }

  constexpr std::size_t kWorkers = 4;
  std::vector<ExactResult> batch(kWorkers);
  {
    util::ThreadPool pool(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) {
      pool.submit([&, w] { batch[w] = exact_feasible(model, options); });
    }
    pool.wait_idle();
  }
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(batch[w].status, serial.status) << "worker " << w;
    EXPECT_EQ(batch[w].states_explored, serial.states_explored) << "worker " << w;
    EXPECT_EQ(batch[w].schedule, serial.schedule) << "worker " << w;
  }
}

// The heuristic's report is the same at every thread count (it is the
// same verify_schedule underneath).
TEST(ParallelHeuristic, ReportMatchesSerial) {
  sim::Rng rng(97);
  for (int i = 0; i < 20; ++i) {
    const GraphModel model = random_model(rng, 6, 20);
    HeuristicOptions serial_options;
    serial_options.n_threads = 1;
    const HeuristicResult serial = latency_schedule(model, serial_options);

    HeuristicOptions parallel_options;
    parallel_options.n_threads = 4;
    const HeuristicResult parallel = latency_schedule(model, parallel_options);

    EXPECT_EQ(parallel.success, serial.success);
    EXPECT_EQ(parallel.report, serial.report);
    EXPECT_EQ(parallel.schedule, serial.schedule);
  }
}

}  // namespace
}  // namespace rtg::core
