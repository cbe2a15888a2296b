// Property sweeps over the second-wave modules:
//   P6  bounds soundness: a refuted model is never exactly feasible and
//       never accepted by the heuristic;
//   P7  optimization safety: compaction/trimming preserve feasibility
//       and optimize_schedule is idempotent;
//   P8  fault-tolerant latency is monotone in the replica count, and
//       hardened schedules meet the k+1-disjoint-executions property;
//   P9  spec round-trip: emit -> compile is the identity up to
//       renumbering, and emit is a fixpoint after one round;
//   P10 schedule_io round-trips arbitrary schedules;
//   P11 exact-solver status is invariant under the branch order;
//   P12 map::deploy on a full mesh succeeds whenever it does on a
//       shared bus (same placement, richer network).
#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/fault.hpp"
#include "core/feasibility.hpp"
#include "core/heuristic.hpp"
#include "core/optimize.hpp"
#include "core/schedule_io.hpp"
#include "map/deploy.hpp"
#include "sim/rng.hpp"
#include "spec/compile.hpp"
#include "spec/emit.hpp"

namespace rtg {
namespace {

using core::ConstraintKind;
using core::ElementId;
using core::GraphModel;
using core::TaskGraph;
using core::TimingConstraint;
using Time = sim::Time;

GraphModel random_unit_model(sim::Rng& rng, int max_elems, Time min_d, Time max_d,
                             bool pipelinable = false) {
  core::CommGraph comm;
  const int n = static_cast<int>(rng.uniform(1, max_elems));
  for (int i = 0; i < n; ++i) {
    comm.add_element("e" + std::to_string(i), 1, pipelinable);
  }
  GraphModel model(std::move(comm));
  const int k = static_cast<int>(rng.uniform(1, 3));
  for (int c = 0; c < k; ++c) {
    TaskGraph tg;
    tg.add_op(static_cast<ElementId>(rng.uniform(0, n - 1)));
    model.add_constraint(TimingConstraint{
        "c" + std::to_string(c), std::move(tg), rng.uniform(1, 4),
        rng.uniform(min_d, max_d),
        rng.chance(0.3) ? ConstraintKind::kPeriodic : ConstraintKind::kAsynchronous});
  }
  return model;
}

class PropertySweep2 : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep2,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST_P(PropertySweep2, BoundsSoundness) {
  sim::Rng rng(GetParam() * 131 + 17);
  const GraphModel model = random_unit_model(rng, 3, 1, 4);
  if (core::refute_feasibility(model).empty()) GTEST_SKIP() << "not refuted";

  core::ExactOptions options;
  options.state_budget = 100000;
  const core::ExactResult exact = core::exact_feasible(model, options);
  EXPECT_NE(exact.status, core::FeasibilityStatus::kFeasible);
  EXPECT_FALSE(core::latency_schedule(model).success);
}

TEST_P(PropertySweep2, OptimizationPreservesFeasibility) {
  sim::Rng rng(GetParam() * 733 + 3);
  const GraphModel model = random_unit_model(rng, 4, 6, 20, true);
  const core::HeuristicResult h = core::latency_schedule(model);
  if (!h.success) GTEST_SKIP() << h.failure_reason;

  core::OptimizeStats stats;
  const core::StaticSchedule once =
      core::optimize_schedule(*h.schedule, h.scheduled_model, &stats);
  EXPECT_TRUE(core::verify_schedule(once, h.scheduled_model).feasible);
  EXPECT_LE(once.busy(), h.schedule->busy());
  EXPECT_LE(once.length(), h.schedule->length());

  // Idempotence: a second run removes nothing further.
  core::OptimizeStats again;
  const core::StaticSchedule twice =
      core::optimize_schedule(once, h.scheduled_model, &again);
  EXPECT_EQ(again.executions_removed, 0u);
  EXPECT_EQ(again.idle_removed, 0);
  EXPECT_EQ(twice, once);
}

TEST_P(PropertySweep2, FaultTolerantLatencyMonotone) {
  sim::Rng rng(GetParam() * 947 + 29);
  const GraphModel model = random_unit_model(rng, 3, 12, 30, true);
  const core::HeuristicResult h = core::latency_schedule(model);
  if (!h.success) GTEST_SKIP();

  for (std::size_t i = 0; i < h.scheduled_model.constraint_count(); ++i) {
    const TaskGraph& tg = h.scheduled_model.constraint(i).task_graph;
    bool had_prev = false;
    std::optional<Time> prev;
    for (std::size_t replicas = 1; replicas <= 3; ++replicas) {
      const auto ft = core::fault_tolerant_latency(*h.schedule, tg, replicas);
      if (had_prev) {
        if (!prev.has_value()) {
          EXPECT_FALSE(ft.has_value());  // infinite stays infinite
        } else if (ft.has_value()) {
          EXPECT_GE(*ft, *prev);
        }
      }
      prev = ft;
      had_prev = true;
    }
  }
}

TEST_P(PropertySweep2, HardenedSchedulesMeetDisjointProperty) {
  sim::Rng rng(GetParam() * 389 + 41);
  // Generous deadlines so hardening has room.
  const GraphModel model = random_unit_model(rng, 2, 24, 48, true);
  const std::size_t k = 1 + GetParam() % 2;
  const core::HardenedResult r = core::harden_and_schedule(model, k);
  if (!r.success) GTEST_SKIP() << r.failure_reason;
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    ASSERT_TRUE(r.ft_latency[i].has_value());
    EXPECT_LE(*r.ft_latency[i], model.constraint(i).deadline);
  }
}

TEST_P(PropertySweep2, SpecEmitRoundTripFixpoint) {
  sim::Rng rng(GetParam() * 577 + 7);
  // Random model with channels and chain constraints.
  core::CommGraph comm;
  const int n = static_cast<int>(rng.uniform(2, 5));
  for (int i = 0; i < n; ++i) {
    comm.add_element("e" + std::to_string(i), rng.uniform(1, 3), rng.chance(0.5));
  }
  for (ElementId u = 0; u < static_cast<ElementId>(n); ++u) {
    for (ElementId v = u + 1; v < static_cast<ElementId>(n); ++v) {
      if (rng.chance(0.5)) comm.add_channel(u, v);
    }
  }
  GraphModel model(std::move(comm));
  // One chain constraint along an existing channel if any.
  for (ElementId u = 0; u < model.comm().size(); ++u) {
    const auto& succ = model.comm().digraph().successors(u);
    if (succ.empty()) continue;
    TaskGraph tg;
    const auto a = tg.add_op(u);
    const auto b = tg.add_op(succ[0]);
    tg.add_dep(a, b);
    model.add_constraint(TimingConstraint{"c", std::move(tg), rng.uniform(2, 9),
                                          rng.uniform(4, 30),
                                          ConstraintKind::kAsynchronous});
    break;
  }

  const std::string text1 = spec::emit(model);
  const spec::CompileResult compiled = spec::compile_text(text1);
  ASSERT_TRUE(compiled.ok()) << text1;
  const std::string text2 = spec::emit(*compiled.model);
  EXPECT_EQ(text1, text2);  // fixpoint after one round
}

TEST_P(PropertySweep2, ScheduleIoRoundTrip) {
  sim::Rng rng(GetParam() * 211 + 9);
  core::CommGraph comm;
  const int n = static_cast<int>(rng.uniform(1, 4));
  for (int i = 0; i < n; ++i) {
    comm.add_element("e" + std::to_string(i), rng.uniform(1, 3));
  }
  core::StaticSchedule sched;
  const int entries = static_cast<int>(rng.uniform(1, 12));
  for (int i = 0; i < entries; ++i) {
    if (rng.chance(0.3)) {
      sched.push_idle(rng.uniform(1, 4));
    } else {
      const auto e = static_cast<ElementId>(rng.uniform(0, n - 1));
      sched.push_execution(e, comm.weight(e));
    }
  }
  const auto parsed = core::schedule_from_text(core::schedule_to_text(sched, comm), comm);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed.schedule, sched);
}

TEST_P(PropertySweep2, ExactStatusInvariantUnderBranchOrder) {
  sim::Rng rng(GetParam() * 449 + 5);
  const GraphModel model = random_unit_model(rng, 3, 1, 4);
  core::ExactOptions lru;
  lru.state_budget = 100000;
  core::ExactOptions stat = lru;
  stat.order = core::BranchOrder::kStaticId;
  const auto a = core::exact_feasible(model, lru);
  const auto b = core::exact_feasible(model, stat);
  if (a.status == core::FeasibilityStatus::kUnknown ||
      b.status == core::FeasibilityStatus::kUnknown) {
    GTEST_SKIP() << "budget hit";
  }
  EXPECT_EQ(a.status, b.status);
}

TEST_P(PropertySweep2, MeshNetworkMatchesBusFeasibility) {
  sim::Rng rng(GetParam() * 101 + 23);
  // Chain models over 2 processors.
  core::CommGraph comm;
  const int n = static_cast<int>(rng.uniform(2, 4));
  for (int i = 0; i < n; ++i) {
    comm.add_element("s" + std::to_string(i), 1, true);
  }
  for (int i = 0; i + 1 < n; ++i) {
    comm.add_channel(static_cast<ElementId>(i), static_cast<ElementId>(i + 1));
  }
  GraphModel model(std::move(comm));
  TaskGraph tg;
  core::OpId prev = graph::kInvalidNode;
  for (int i = 0; i < n; ++i) {
    const core::OpId op = tg.add_op(static_cast<ElementId>(i));
    if (prev != graph::kInvalidNode) tg.add_dep(prev, op);
    prev = op;
  }
  model.add_constraint(TimingConstraint{"chain", std::move(tg), 10,
                                        rng.uniform(30, 60),
                                        ConstraintKind::kAsynchronous});

  // Unit message slots on both platforms; round-robin forces crossings.
  map::DeployOptions options;
  options.mapper = "roundrobin";
  map::Platform shared = map::Platform::bus(2);
  shared.fixed_message_size = 1;
  map::Platform full = map::Platform::full(2);
  full.fixed_message_size = 1;
  const map::Deployment bus = map::deploy(model, shared, options);
  const map::Deployment mesh = map::deploy(model, full, options);

  if (bus.success) {
    EXPECT_TRUE(mesh.success) << mesh.failure_reason;
  }
}

}  // namespace
}  // namespace rtg
