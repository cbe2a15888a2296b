#include "core/feasibility.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace rtg::core {
namespace {

TaskGraph single(ElementId e) {
  TaskGraph tg;
  tg.add_op(e);
  return tg;
}

// Model with n unit elements; add_async attaches single-op constraints.
GraphModel unit_model(std::size_t n_elements) {
  CommGraph comm;
  for (std::size_t i = 0; i < n_elements; ++i) {
    comm.add_element("e" + std::to_string(i), 1, false);
  }
  return GraphModel(std::move(comm));
}

void add_async(GraphModel& model, ElementId e, Time d) {
  model.add_constraint(TimingConstraint{"a" + std::to_string(e) + "d" + std::to_string(d),
                                        single(e), 1, d,
                                        ConstraintKind::kAsynchronous});
}

TEST(ExactFeasible, EmptyModelIsFeasible) {
  GraphModel model = unit_model(1);
  const ExactResult r = exact_feasible(model);
  EXPECT_EQ(r.status, FeasibilityStatus::kFeasible);
  ASSERT_TRUE(r.schedule.has_value());
}

TEST(ExactFeasible, SingleConstraintFeasible) {
  GraphModel model = unit_model(1);
  add_async(model, 0, 2);
  const ExactResult r = exact_feasible(model);
  ASSERT_EQ(r.status, FeasibilityStatus::kFeasible);
  ASSERT_TRUE(r.schedule.has_value());
  EXPECT_TRUE(verify_schedule(*r.schedule, model).feasible);
}

TEST(ExactFeasible, TwoConstraintsNeedTwoSlots) {
  GraphModel model = unit_model(2);
  add_async(model, 0, 2);
  add_async(model, 1, 2);
  const ExactResult r = exact_feasible(model);
  ASSERT_EQ(r.status, FeasibilityStatus::kFeasible);
  EXPECT_TRUE(verify_schedule(*r.schedule, model).feasible);
}

TEST(ExactFeasible, ImpossiblyTightDeadlineInfeasible) {
  GraphModel model = unit_model(2);
  add_async(model, 0, 1);  // every slot must be e0...
  add_async(model, 1, 1);  // ...and also e1
  const ExactResult r = exact_feasible(model);
  EXPECT_EQ(r.status, FeasibilityStatus::kInfeasible);
}

TEST(ExactFeasible, ThreeIntoTwoSlotsInfeasible) {
  GraphModel model = unit_model(3);
  add_async(model, 0, 2);
  add_async(model, 1, 2);
  add_async(model, 2, 2);
  EXPECT_EQ(exact_feasible(model).status, FeasibilityStatus::kInfeasible);
}

TEST(ExactFeasible, WeightTwoNeedsDeadlineThree) {
  // A weight-2 execution never fits completely in every 2-window (the
  // window straddling an execution boundary has no complete run), but
  // deadline 3 works with back-to-back executions.
  CommGraph comm;
  comm.add_element("heavy", 2, false);
  GraphModel tight(comm);
  add_async(tight, 0, 2);
  EXPECT_EQ(exact_feasible(tight).status, FeasibilityStatus::kInfeasible);

  GraphModel loose(comm);
  add_async(loose, 0, 3);
  const ExactResult r = exact_feasible(loose);
  ASSERT_EQ(r.status, FeasibilityStatus::kFeasible);
  EXPECT_TRUE(verify_schedule(*r.schedule, loose).feasible);
}

TEST(ExactFeasible, ChainConstraintBoundary) {
  CommGraph comm;
  comm.add_element("a", 1, false);
  comm.add_element("b", 1, false);
  comm.add_channel(0, 1);

  // Chain a -> b in every 2-window: impossible.
  {
    GraphModel model(comm);
    TaskGraph tg;
    const OpId oa = tg.add_op(0);
    const OpId ob = tg.add_op(1);
    tg.add_dep(oa, ob);
    model.add_constraint(
        TimingConstraint{"ab", std::move(tg), 1, 2, ConstraintKind::kAsynchronous});
    EXPECT_EQ(exact_feasible(model).status, FeasibilityStatus::kInfeasible);
  }
  // Deadline 4: "a b" round-robin works.
  {
    GraphModel model(comm);
    TaskGraph tg;
    const OpId oa = tg.add_op(0);
    const OpId ob = tg.add_op(1);
    tg.add_dep(oa, ob);
    model.add_constraint(
        TimingConstraint{"ab", std::move(tg), 1, 4, ConstraintKind::kAsynchronous});
    const ExactResult r = exact_feasible(model);
    ASSERT_EQ(r.status, FeasibilityStatus::kFeasible);
    EXPECT_TRUE(verify_schedule(*r.schedule, model).feasible);
  }
}

TEST(ExactFeasible, PeriodicConstraintHonoured) {
  GraphModel model = unit_model(2);
  model.add_constraint(
      TimingConstraint{"p", single(0), 2, 1, ConstraintKind::kPeriodic});
  add_async(model, 1, 4);
  const ExactResult r = exact_feasible(model);
  ASSERT_EQ(r.status, FeasibilityStatus::kFeasible);
  EXPECT_TRUE(verify_schedule(*r.schedule, model).feasible);
}

TEST(ExactFeasible, TwoPeriodicSameSlotInfeasible) {
  GraphModel model = unit_model(2);
  model.add_constraint(
      TimingConstraint{"p0", single(0), 2, 1, ConstraintKind::kPeriodic});
  model.add_constraint(
      TimingConstraint{"p1", single(1), 2, 1, ConstraintKind::kPeriodic});
  EXPECT_EQ(exact_feasible(model).status, FeasibilityStatus::kInfeasible);
}

TEST(ExactFeasible, BudgetExhaustionReportsUnknown) {
  GraphModel model = unit_model(3);
  add_async(model, 0, 6);
  add_async(model, 1, 6);
  add_async(model, 2, 6);
  ExactOptions options;
  options.state_budget = 2;
  const ExactResult r = exact_feasible(model, options);
  EXPECT_EQ(r.status, FeasibilityStatus::kUnknown);
}

// A tiny state budget is respected: the search either answers within it
// or reports kUnknown, and a kFeasible answer carries a witness that
// verifies.
TEST(ExactFeasible, TinyBudgetIsSoundOrUnknown) {
  sim::Rng rng(20260806);
  for (int trial = 0; trial < 10; ++trial) {
    CommGraph comm;
    const auto n = static_cast<std::size_t>(rng.uniform(1, 4));
    for (std::size_t i = 0; i < n; ++i) {
      comm.add_element("e" + std::to_string(i), rng.uniform(1, 2));
    }
    GraphModel model(std::move(comm));
    const int k = static_cast<int>(rng.uniform(1, 3));
    for (int c = 0; c < k; ++c) {
      const auto e = static_cast<ElementId>(rng.uniform(0, static_cast<Time>(n) - 1));
      model.add_constraint(TimingConstraint{
          "c" + std::to_string(c), single(e), rng.uniform(1, 6), rng.uniform(2, 6),
          rng.chance(0.4) ? ConstraintKind::kPeriodic : ConstraintKind::kAsynchronous});
    }
    ExactOptions options;
    options.state_budget = 2;
    const ExactResult r = exact_feasible(model, options);
    EXPECT_LE(r.states_explored, options.state_budget) << "trial " << trial;
    if (r.status == FeasibilityStatus::kFeasible) {
      ASSERT_TRUE(r.schedule.has_value()) << "trial " << trial;
      EXPECT_TRUE(verify_schedule(*r.schedule, model).feasible) << "trial " << trial;
    }
  }
}

TEST(ExactFeasible, OversizedWeightThrows) {
  CommGraph comm;
  comm.add_element("w", 300, false);
  GraphModel model(comm);
  add_async(model, 0, 600);
  EXPECT_THROW((void)exact_feasible(model), std::invalid_argument);
}

TEST(BruteForce, FindsKnownSchedule) {
  GraphModel model = unit_model(2);
  add_async(model, 0, 2);
  add_async(model, 1, 2);
  const auto sched = brute_force_schedule(model, 2);
  ASSERT_TRUE(sched.has_value());
  EXPECT_TRUE(verify_schedule(*sched, model).feasible);
}

TEST(BruteForce, ReturnsNulloptWhenNoneAtThatLength) {
  GraphModel model = unit_model(2);
  add_async(model, 0, 1);
  add_async(model, 1, 1);
  EXPECT_EQ(brute_force_schedule(model, 4), std::nullopt);
  EXPECT_EQ(brute_force_schedule(model, 0), std::nullopt);
}

TEST(ExactFeasible, AgreesWithBruteForceOnRandomInstances) {
  sim::Rng rng(555);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform(1, 3));
    GraphModel model = unit_model(n);
    const int k = static_cast<int>(rng.uniform(1, 3));
    for (int i = 0; i < k; ++i) {
      add_async(model, static_cast<ElementId>(rng.uniform(0, static_cast<Time>(n) - 1)),
                rng.uniform(1, 4));
    }
    const ExactResult exact = exact_feasible(model);
    ASSERT_NE(exact.status, FeasibilityStatus::kUnknown) << "trial " << trial;

    bool brute_found = false;
    for (Time len = 1; len <= 6 && !brute_found; ++len) {
      brute_found = brute_force_schedule(model, len).has_value();
    }
    if (exact.status == FeasibilityStatus::kFeasible) {
      EXPECT_TRUE(verify_schedule(*exact.schedule, model).feasible) << "trial " << trial;
    }
    if (brute_found) {
      EXPECT_EQ(exact.status, FeasibilityStatus::kFeasible) << "trial " << trial;
    }
  }
}

TEST(ExactFeasible, CycleCandidatesImproveSchedule) {
  // One constraint with slack: the first cycle found is dense (the DFS
  // favours busy slots); searching more candidates finds leaner cycles.
  GraphModel model = unit_model(1);
  add_async(model, 0, 6);

  ExactOptions first;
  first.cycle_candidates = 1;
  const ExactResult quick = exact_feasible(model, first);
  ASSERT_EQ(quick.status, FeasibilityStatus::kFeasible);

  ExactOptions many;
  many.cycle_candidates = 64;
  const ExactResult lean = exact_feasible(model, many);
  ASSERT_EQ(lean.status, FeasibilityStatus::kFeasible);
  EXPECT_TRUE(verify_schedule(*lean.schedule, model).feasible);
  EXPECT_LE(lean.schedule->utilization(), quick.schedule->utilization());
  EXPECT_GE(lean.states_explored, quick.states_explored);
}

TEST(ExactFeasible, CycleCandidatesNeverChangeTheVerdict) {
  sim::Rng rng(808);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform(1, 3));
    GraphModel model = unit_model(n);
    const int k = static_cast<int>(rng.uniform(1, 2));
    for (int i = 0; i < k; ++i) {
      add_async(model, static_cast<ElementId>(rng.uniform(0, static_cast<Time>(n) - 1)),
                rng.uniform(1, 4));
    }
    ExactOptions one;
    ExactOptions many;
    many.cycle_candidates = 16;
    const auto a = exact_feasible(model, one);
    const auto b = exact_feasible(model, many);
    EXPECT_EQ(a.status, b.status) << "trial " << trial;
    if (b.status == FeasibilityStatus::kFeasible) {
      EXPECT_TRUE(verify_schedule(*b.schedule, model).feasible) << trial;
    }
  }
}

TEST(ExactFeasible, ScheduleStructureIsCyclicallyValid) {
  // The returned schedule must stay feasible when doubled (cyclic
  // repetition invariance).
  GraphModel model = unit_model(2);
  add_async(model, 0, 3);
  add_async(model, 1, 3);
  const ExactResult r = exact_feasible(model);
  ASSERT_EQ(r.status, FeasibilityStatus::kFeasible);
  StaticSchedule doubled;
  for (int rep = 0; rep < 2; ++rep) {
    for (const ScheduleEntry& entry : r.schedule->entries()) {
      if (entry.elem == kIdleEntry) {
        doubled.push_idle(entry.duration);
      } else {
        doubled.push_execution(entry.elem, entry.duration);
      }
    }
  }
  EXPECT_TRUE(verify_schedule(doubled, model).feasible);
}

}  // namespace
}  // namespace rtg::core
