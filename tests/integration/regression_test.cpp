// Golden regression tests: pinned end-to-end numbers for the paper's
// control system, the hardness gadgets and the exact game search. Every
// pinned number comes from a deterministic path (fixed seeds,
// deterministic tie-breaks, one single-threaded game search), so any
// change to these values is a behavioural change that should be
// deliberate.
#include <gtest/gtest.h>

#include <string>

#include "core/bounds.hpp"
#include "core/feasibility.hpp"
#include "core/heuristic.hpp"
#include "core/npc.hpp"
#include "core/optimize.hpp"
#include "core/pipeline.hpp"
#include "core/synthesis.hpp"
#include "gen/generator.hpp"

namespace rtg {
namespace {

using Time = sim::Time;

TEST(Golden, ControlSystemSynthesis) {
  const core::GraphModel model = core::make_control_system();
  EXPECT_NEAR(model.deadline_utilization(), 0.42, 1e-9);
  // fx 1/20 + fy 1/40 + fz 1/25 + fs 2*max-rate 1/20 + fk 1/20.
  EXPECT_NEAR(core::demand_density(model), 0.265, 1e-9);

  const core::HeuristicResult h = core::latency_schedule(model);
  ASSERT_TRUE(h.success);
  EXPECT_EQ(h.schedule->length(), 520);  // lcm(20, 40, ceil(25/2)=13)
  EXPECT_EQ(h.schedule->busy(), 276);
  ASSERT_TRUE(h.report.verdicts[2].latency.has_value());
  EXPECT_EQ(*h.report.verdicts[2].latency, 15);  // Z
}

TEST(Golden, ControlSystemHarmonizationCostsTooMuch) {
  // Harmonization converts periodic constraints to deadline-rate
  // servers: X jumps from 4/20 to 4/8, and the set overflows
  // (4/8 + 4/16 + 3/8 = 1.125 > 1). The option trades utilization for
  // short hyperperiods and is the wrong tool here — the failure is the
  // pinned behaviour.
  const core::GraphModel model = core::make_control_system();
  core::HeuristicOptions options;
  options.harmonize_periods = true;
  const core::HeuristicResult h = core::latency_schedule(model, options);
  EXPECT_FALSE(h.success);
  EXPECT_NE(h.failure_reason.find("demand-bound"), std::string::npos);
}

TEST(Golden, ControlSystemProcessSynthesis) {
  const core::GraphModel model = core::make_control_system();
  const core::ProcessSynthesis procs = core::synthesize_processes(model);
  EXPECT_EQ(procs.hyperperiod, 200);  // lcm(20, 40, 50)
  EXPECT_EQ(procs.work_per_hyperperiod, 10 * 4 + 5 * 4 + 4 * 3);
  EXPECT_EQ(procs.monitors.size(), 2u);  // fs, fk
}

TEST(Golden, ExactGameBoundaryInstance) {
  // Three unit constraints at deadline 3: the LRU-guided game closes a
  // cycle after exactly 6 states.
  //
  // Trace, writing P for a slot before the run starts: the root P P P,
  // then LRU ties broken in id order append e0, e1, e2 (P P e0, P e0 e1,
  // e0 e1 e2 — no window closes before clock 3), then e0, e1 (e1 e2 e0,
  // e2 e0 e1); appending e2 reaches the grey e0 e1 e2 again. No
  // backtracking: 1 + 5 = 6 states, cycle e0 e1 e2 (length 3, busy 3).
  core::CommGraph comm;
  for (int i = 0; i < 3; ++i) {
    comm.add_element("e" + std::to_string(i), 1, false);
  }
  core::GraphModel model(std::move(comm));
  for (core::ElementId e = 0; e < 3; ++e) {
    core::TaskGraph tg;
    tg.add_op(e);
    model.add_constraint(core::TimingConstraint{
        "c" + std::to_string(e), std::move(tg), 1, 3,
        core::ConstraintKind::kAsynchronous});
  }
  const core::ExactResult r = core::exact_feasible(model);
  ASSERT_EQ(r.status, core::FeasibilityStatus::kFeasible);
  EXPECT_EQ(r.states_explored, 6u);
  EXPECT_EQ(r.schedule->length(), 3);
  EXPECT_EQ(r.schedule->busy(), 3);
}

// The game search on the pipelined model of one corpus scenario, with
// default options except the state budget.
core::ExactResult exact_on_corpus(std::uint64_t index, std::size_t state_budget) {
  const gen::Scenario scenario = gen::generate(gen::corpus_options(index));
  core::ExactOptions options;
  options.state_budget = state_budget;
  return core::exact_feasible(core::pipeline_model(scenario.model).model, options);
}

// Corpus instances decided within their budget only because the budget
// is charged in the search's own DFS order: charging any subtree the DFS
// would not enter before its answer exhausts it and yields kUnknown.
TEST(Golden, ExactCorpus164DecidesWithinBudget) {
  const core::ExactResult r = exact_on_corpus(164, 20'000);
  EXPECT_EQ(r.status, core::FeasibilityStatus::kFeasible);
  EXPECT_EQ(r.states_explored, 10'659u);
}

TEST(Golden, ExactCorpus26DecidesWithinBudget) {
  const core::ExactResult r = exact_on_corpus(26, 20'000);
  EXPECT_EQ(r.status, core::FeasibilityStatus::kFeasible);
  EXPECT_EQ(r.states_explored, 8'547u);
}

TEST(Golden, ExactCorpus161DecidesWithinBudget) {
  const core::ExactResult r = exact_on_corpus(161, 60'000);
  EXPECT_EQ(r.status, core::FeasibilityStatus::kFeasible);
  EXPECT_EQ(r.states_explored, 53'932u);
}

TEST(Golden, ThreePartitionGadgetShape) {
  core::ThreePartitionInstance inst;
  inst.bins = 2;
  inst.capacity = 8;
  inst.items = {3, 3, 2, 4, 2, 2};
  ASSERT_TRUE(inst.balanced());
  ASSERT_TRUE(core::solve_three_partition(inst));

  const core::GraphModel model = core::three_partition_model(inst);
  EXPECT_EQ(model.constraint_count(), 7u);
  EXPECT_EQ(model.constraint(0).deadline, 9);
  EXPECT_EQ(model.constraint(1).deadline, 18 + 3 - 1);

  const core::ExactResult r = core::exact_feasible(model);
  ASSERT_EQ(r.status, core::FeasibilityStatus::kFeasible);
  EXPECT_TRUE(core::verify_schedule(*r.schedule, model).feasible);
  // The packing schedule occupies 2 gates + 16 item slots per cycle 18.
  EXPECT_EQ(r.schedule->length() % 18, 0);
}

TEST(Golden, OptimizerOnControlSystem) {
  const core::GraphModel model = core::make_control_system();
  const core::HeuristicResult h = core::latency_schedule(model);
  ASSERT_TRUE(h.success);
  core::OptimizeStats stats;
  const core::StaticSchedule lean =
      core::optimize_schedule(*h.schedule, h.scheduled_model, &stats);
  EXPECT_TRUE(core::verify_schedule(lean, h.scheduled_model).feasible);
  // The Z server over-polls (period 13 for deadline 25): compaction
  // must find something to remove.
  EXPECT_GT(stats.executions_removed, 0u);
  EXPECT_LT(lean.busy(), h.schedule->busy());
}

// Fingerprint of the Theorem-3 construction over the corpus prefix:
// every schedule entry, failure reason and verdict (satisfied and
// latency) of latency_schedule on corpus 0..1499, with harmonized
// periods off and on. It pins construction and verification outputs
// byte for byte, so a speedup in the EDF demand test, the EDF loop or
// the verifier's window set cannot change a schedule or a verdict
// unnoticed. Regenerate with
//   ctest --test-dir build -R LatencyScheduleCorpusFingerprint -V
// and take the value from the failure message; the pinned value was
// recorded at commit 21731a5, before the busy-period demand test, the
// idle skip and the per-constraint jump points went in.
TEST(Golden, LatencyScheduleCorpusFingerprint) {
  std::string bytes;
  const auto put = [&bytes](long long v) { bytes += std::to_string(v) + ','; };
  for (const bool harmonize : {false, true}) {
    for (std::uint64_t index = 0; index < 1500; ++index) {
      const gen::Scenario scenario = gen::generate(gen::corpus_options(index));
      core::HeuristicOptions options;
      options.harmonize_periods = harmonize;
      options.n_threads = 1;
      const core::HeuristicResult h = core::latency_schedule(scenario.model, options);
      bytes += h.failure_reason + '|';
      put(h.success ? 1 : 0);
      if (h.schedule) {
        for (const core::ScheduleEntry& entry : h.schedule->entries()) {
          put(static_cast<long long>(entry.elem));
          put(entry.duration);
        }
      }
      bytes += '|';
      put(h.report.feasible ? 1 : 0);
      for (const core::ConstraintVerdict& v : h.report.verdicts) {
        put(static_cast<long long>(v.constraint));
        put(v.satisfied ? 1 : 0);
        put(v.latency ? *v.latency : -1);
      }
      bytes += '\n';
    }
  }
  EXPECT_EQ(gen::fnv1a(bytes), 0xc0794953fe2a971dULL) << std::hex << "0x" << gen::fnv1a(bytes);
}

}  // namespace
}  // namespace rtg
