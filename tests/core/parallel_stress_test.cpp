// Determinism-under-nondeterminism stress for the parallel verifier:
// run it many times on one model and assert every run returns the
// identical report, even though thread scheduling differs run to run.
// Built under ThreadSanitizer in CI, this also shakes out data races in
// the pool and the memo table.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "sim/rng.hpp"
#include "util/partition.hpp"
#include "util/thread_pool.hpp"

namespace rtg::core {
namespace {

// A fixed mixed model (async + periodic, repeated labels, weights > 1)
// large enough that the verifier actually fans out.
GraphModel stress_model() {
  CommGraph comm;
  const ElementId a = comm.add_element("a", 2);
  const ElementId b = comm.add_element("b", 1);
  const ElementId c = comm.add_element("c", 1);
  const ElementId d = comm.add_element("d", 3);
  comm.add_channel(a, b);
  comm.add_channel(b, c);
  comm.add_channel(c, a);
  comm.add_channel(b, d);
  GraphModel model(std::move(comm));

  TaskGraph t0;
  {
    const OpId u = t0.add_op(a);
    const OpId v = t0.add_op(b);
    t0.add_dep(u, v);
  }
  model.add_constraint(
      TimingConstraint{"t0", std::move(t0), 1, 18, ConstraintKind::kAsynchronous});

  TaskGraph t1;
  {
    const OpId u = t1.add_op(b);
    const OpId v = t1.add_op(c);
    const OpId w = t1.add_op(a);
    t1.add_dep(u, v);
    t1.add_dep(v, w);
  }
  model.add_constraint(
      TimingConstraint{"t1", std::move(t1), 6, 24, ConstraintKind::kPeriodic});

  TaskGraph t2;
  t2.add_op(d);
  model.add_constraint(
      TimingConstraint{"t2", std::move(t2), 1, 15, ConstraintKind::kAsynchronous});
  return model;
}

StaticSchedule stress_schedule(const GraphModel& model) {
  StaticSchedule sched;
  sched.push_execution(0, model.comm().weight(0));
  sched.push_execution(1, model.comm().weight(1));
  sched.push_idle(1);
  sched.push_execution(2, model.comm().weight(2));
  sched.push_execution(3, model.comm().weight(3));
  sched.push_execution(1, model.comm().weight(1));
  sched.push_execution(0, model.comm().weight(0));
  sched.push_idle(2);
  return sched;
}

// 50 repetitions x 4 threads: identical report every time, identical to
// the serial one. Thread scheduling nondeterminism must be invisible.
TEST(ParallelStress, VerifyIsDeterministicAcrossRuns) {
  const GraphModel model = stress_model();
  const StaticSchedule sched = stress_schedule(model);
  const FeasibilityReport serial =
      verify_schedule(sched, model, VerifyOptions{.n_threads = 1});
  for (int run = 0; run < 50; ++run) {
    const FeasibilityReport parallel =
        verify_schedule(sched, model, VerifyOptions{.n_threads = 4});
    ASSERT_EQ(parallel, serial) << "run " << run;
  }
}

// Pool-level stress: many tiny tasks, nested submissions from workers,
// and reuse across waves on one pool instance.
TEST(ParallelStress, ThreadPoolDrainsNestedSubmissions) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 64; ++i) {
      pool.submit([&pool, &counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
        pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
      });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 10 * 64 * 2);
}

// The seeded partitioner is deterministic, a true partition, and
// balanced to within one item.
TEST(ParallelStress, PartitionIsSeededAndBalanced) {
  const auto a = util::partition_indices(103, 8, 42);
  const auto b = util::partition_indices(103, 8, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) EXPECT_EQ(a[g], b[g]);

  std::vector<bool> seen(103, false);
  std::size_t min_size = 103, max_size = 0;
  for (const auto& group : a) {
    min_size = std::min(min_size, group.size());
    max_size = std::max(max_size, group.size());
    for (const std::size_t idx : group) {
      ASSERT_LT(idx, 103u);
      ASSERT_FALSE(seen[idx]) << "index dealt twice";
      seen[idx] = true;
    }
  }
  for (const bool s : seen) EXPECT_TRUE(s);
  EXPECT_LE(max_size - min_size, 1u);

  const auto c = util::partition_indices(103, 8, 43);
  EXPECT_NE(a, c) << "different seeds should shuffle differently";
}

}  // namespace
}  // namespace rtg::core
