// The mapped differential suite: a 64-seed sweep of the mapped corpus
// where every deployment must be bit-identical across seam thread
// counts and against the flat (linear-scan) monolithic reference, every
// per-shard verdict must agree with the seam check, and every witness
// must re-validate independently. Plus the cancellation contract and
// golden latencies and deployments on a unit-slot shared TDMA bus.
#include "map/deploy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <utility>

#include "gen/generator.hpp"
#include "map/verify.hpp"

namespace rtg::map {
namespace {

constexpr std::uint64_t kSeeds = 64;

void expect_same_deployment(const Deployment& a, const Deployment& b,
                            std::uint64_t seed, const char* what) {
  ASSERT_EQ(a.success, b.success) << what << " seed " << seed << ": "
                                  << a.failure_reason << " vs "
                                  << b.failure_reason;
  EXPECT_EQ(a.failure_reason, b.failure_reason) << what << " seed " << seed;
  EXPECT_EQ(a.mapping.assignment, b.mapping.assignment) << what << " seed " << seed;
  EXPECT_EQ(a.comm, b.comm) << what << " seed " << seed;
  ASSERT_EQ(a.end_to_end.size(), b.end_to_end.size()) << what << " seed " << seed;
  for (std::size_t i = 0; i < a.end_to_end.size(); ++i) {
    EXPECT_EQ(a.end_to_end[i], b.end_to_end[i])
        << what << " seed " << seed << " constraint " << i;
  }
  ASSERT_EQ(a.witnesses.size(), b.witnesses.size()) << what << " seed " << seed;
  for (std::size_t i = 0; i < a.witnesses.size(); ++i) {
    EXPECT_EQ(a.witnesses[i], b.witnesses[i])
        << what << " seed " << seed << " witness " << i;
  }
  EXPECT_EQ(a.witness_constraint, b.witness_constraint) << what << " seed " << seed;
}

// The flat (linear-scan) reference is deliberately naive and goes
// superlinear in the seam's candidate-window count; a handful of
// mapped-corpus seeds have 10^5..10^6 windows where it would take
// minutes per seed. The flat leg therefore only runs when the serial
// deployment examined at most this many windows — a deterministic,
// seed-independent gate (the thread-identity legs always run on every
// seed), and the test asserts below that the gate still admits most of
// the sweep.
constexpr std::size_t kFlatWindowBudget = 25'000;

TEST(MappedCorpusDifferential, BitIdenticalAcrossThreadsAndFlatReference) {
  std::size_t deployed = 0;
  std::size_t flat_compared = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const gen::Scenario scenario =
        gen::generate(gen::mapped_corpus_options(seed));
    ASSERT_TRUE(scenario.hardware.has_value()) << "seed " << seed;

    DeployOptions base;
    const Deployment serial = deploy(scenario.model, *scenario.hardware, base);

    for (const std::size_t threads : {2u, 4u}) {
      DeployOptions opt = base;
      opt.seam_threads = threads;
      const Deployment d = deploy(scenario.model, *scenario.hardware, opt);
      expect_same_deployment(serial, d, seed,
                             threads == 2 ? "threads=2" : "threads=4");
    }
    if (serial.seam_stats.windows <= kFlatWindowBudget) {
      DeployOptions opt = base;
      opt.flat_reference = true;  // the monolithic linear-scan reference
      const Deployment d = deploy(scenario.model, *scenario.hardware, opt);
      expect_same_deployment(serial, d, seed, "flat");
      ++flat_compared;
    }

    if (!serial.success) continue;
    ++deployed;

    // Shard verdicts, seam results, and the deadline must agree.
    for (const ShardVerification& shard : serial.shard_reports) {
      EXPECT_TRUE(shard.report.feasible)
          << "seed " << seed << " proc " << shard.proc;
    }
    const auto& constraints = serial.scheduled_model.constraints();
    ASSERT_EQ(serial.end_to_end.size(), constraints.size());
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      ASSERT_TRUE(serial.end_to_end[i].has_value()) << "seed " << seed;
      EXPECT_LE(*serial.end_to_end[i], constraints[i].deadline)
          << "seed " << seed << " constraint " << i;
      // Re-verify the reassembled global deployment from scratch.
      const auto again = distributed_latency(
          constraints[i].task_graph, serial.processor_schedules,
          serial.mapping.assignment, serial.comm);
      EXPECT_EQ(again, serial.end_to_end[i]) << "seed " << seed;
    }
    // Every worst-window witness re-validates with no shared code.
    ASSERT_EQ(serial.witnesses.size(), serial.witness_constraint.size());
    for (std::size_t w = 0; w < serial.witnesses.size(); ++w) {
      const auto diag = check_witness(
          constraints[serial.witness_constraint[w]].task_graph,
          serial.processor_schedules, serial.mapping.assignment, serial.comm,
          serial.witnesses[w]);
      EXPECT_EQ(diag, std::nullopt) << "seed " << seed << ": " << *diag;
    }
  }
  // The sweep must actually exercise successful deployments, not just
  // reject everything — and the flat gate must admit most of it.
  EXPECT_GE(deployed, kSeeds / 4) << "mapped corpus success rate collapsed";
  EXPECT_GE(flat_compared, kSeeds - 8) << "flat window budget excludes too much";
}

TEST(MappedCorpusDifferential, RepeatRunsAreBitIdentical) {
  const gen::Scenario scenario = gen::generate(gen::mapped_corpus_options(5));
  DeployOptions sa;
  sa.mapper = "sa";
  const Deployment a = deploy(scenario.model, *scenario.hardware, sa);
  const Deployment b = deploy(scenario.model, *scenario.hardware, sa);
  expect_same_deployment(a, b, 5, "repeat");
}

TEST(MappedVerify, UnitSlotBusMatchesLegacyEngine) {
  // Per-constraint end-to-end latencies on a unit-slot shared bus,
  // recorded from the single-bus TDMA engine this path replaced. An
  // empty row is a corpus model no bus deployment admits.
  const std::vector<std::vector<Time>> golden = {
      {11, 15}, {36, 16, 17}, {19, 34, 19, 17}, {10, 7}, {14, 18, 40},
      {21, 28, 28, 8}, {5, 9}, {}, {7, 6, 7, 4}, {}, {6, 4, 10}, {},
  };
  for (std::uint64_t seed = 0; seed < golden.size(); ++seed) {
    const gen::Scenario scenario = gen::generate(gen::corpus_options(seed));
    Platform bus = Platform::bus(2 + 2 * (seed % 3));
    bus.fixed_message_size = 1;
    const Deployment d = deploy(scenario.model, bus);
    ASSERT_EQ(d.success, !golden[seed].empty())
        << "seed " << seed << ": " << d.failure_reason;
    ASSERT_EQ(d.end_to_end.size(), golden[seed].size()) << "seed " << seed;
    for (std::size_t i = 0; i < golden[seed].size(); ++i) {
      EXPECT_EQ(d.end_to_end[i], golden[seed][i])
          << "seed " << seed << " constraint " << i;
    }
  }
}

TEST(MappedVerify, CancellationIsUnknownNotInfeasible) {
  const gen::Scenario scenario = gen::generate(gen::mapped_corpus_options(0));
  std::atomic<bool> cancel{true};
  DeployOptions opt;
  opt.local.cancel = &cancel;
  const Deployment d = deploy(scenario.model, *scenario.hardware, opt);
  EXPECT_FALSE(d.success);
  EXPECT_TRUE(d.cancelled);
}

TEST(MappedVerify, SeamStatsCountWork) {
  const gen::Scenario scenario = gen::generate(gen::mapped_corpus_options(1));
  const Deployment d = deploy(scenario.model, *scenario.hardware);
  if (!d.success) GTEST_SKIP() << d.failure_reason;
  EXPECT_GT(d.seam_stats.windows, 0u);
  DeployOptions threaded;
  threaded.seam_threads = 4;
  const Deployment t = deploy(scenario.model, *scenario.hardware, threaded);
  EXPECT_EQ(t.seam_stats.windows, d.seam_stats.windows);
}

// A shared TDMA bus as a hand-built CommSchedule: one link whose slot k
// of every cycle carries channels[k] for one slot; cycle = channel count.
CommSchedule tdma_bus(const std::vector<std::pair<ElementId, ElementId>>& channels,
                      const std::vector<ProcId>& assignment) {
  CommSchedule comm;
  LinkSchedule table;
  table.cycle = static_cast<Time>(channels.empty() ? 1 : channels.size());
  for (std::size_t k = 0; k < channels.size(); ++k) {
    Message msg;
    msg.from = channels[k].first;
    msg.to = channels[k].second;
    msg.src = assignment[msg.from];
    msg.dst = assignment[msg.to];
    comm.messages.push_back(msg);
    comm.slot_of.emplace_back(0, k);
    table.slots.push_back(SlotAssignment{k, static_cast<Time>(k), 1});
  }
  comm.links.push_back(std::move(table));
  return comm;
}

TEST(MultiprocLatency, SingleProcessorMatchesUniprocessorSemantics) {
  // One processor, no bus: latency equals the uniprocessor value.
  core::TaskGraph tg;
  tg.add_op(0);
  core::StaticSchedule s;
  s.push_execution(0, 1);
  s.push_idle(1);
  EXPECT_EQ(distributed_latency(tg, {s}, {0}, tdma_bus({}, {0})), 2);
}

TEST(MultiprocLatency, CrossEdgeWaitsForBusSlot) {
  // stage0 on P0 (every slot), stage1 on P1 (every slot), one bus
  // channel. Execution: s0@[0,1), message in the next bus slot, s1
  // after arrival.
  core::TaskGraph tg;
  tg.add_dep(tg.add_op(0), tg.add_op(1));
  core::StaticSchedule p0;
  p0.push_execution(0, 1);
  core::StaticSchedule p1;
  p1.push_execution(1, 1);
  const auto lat = distributed_latency(tg, {p0, p1}, {0, 1}, tdma_bus({{0, 1}}, {0, 1}));
  ASSERT_TRUE(lat.has_value());
  // s0 finishes at 1, message rides slot [1,2), s1 runs [2,3): 3 slots
  // from a window start of 0; later starts shift uniformly.
  EXPECT_EQ(*lat, 3);
}

TEST(MultiprocLatency, MissingChannelIsInfinite) {
  core::TaskGraph tg;
  tg.add_dep(tg.add_op(0), tg.add_op(1));
  core::StaticSchedule p0;
  p0.push_execution(0, 1);
  core::StaticSchedule p1;
  p1.push_execution(1, 1);
  EXPECT_EQ(distributed_latency(tg, {p0, p1}, {0, 1}, tdma_bus({}, {0, 1})),
            std::nullopt);
}

TEST(MultiprocLatency, MissingElementIsInfinite) {
  core::TaskGraph tg;
  tg.add_op(1);
  core::StaticSchedule p0;
  p0.push_execution(0, 1);
  core::StaticSchedule p1_idle;
  p1_idle.push_idle(1);
  EXPECT_EQ(distributed_latency(tg, {p0, p1_idle}, {0, 1}, tdma_bus({}, {0, 1})),
            std::nullopt);
}

TEST(MultiprocEdge, BusCycleWithTwoChannelsDelaysSecondSlot) {
  // Elements a@P0 -> b@P1 and c@P0 -> d@P1: two channels share the bus,
  // cycle = 2. Channel order is sorted: (a,b) slot 0, (c,d) slot 1.
  core::TaskGraph tg;
  tg.add_dep(tg.add_op(2), tg.add_op(3));
  core::StaticSchedule p0;
  p0.push_execution(0, 1);
  p0.push_execution(2, 1);
  core::StaticSchedule p1;
  p1.push_execution(1, 1);
  p1.push_execution(3, 1);
  const std::vector<ProcId> assignment{0, 1, 0, 1};
  const auto lat = distributed_latency(tg, {p0, p1}, assignment,
                                       tdma_bus({{0, 1}, {2, 3}}, assignment));
  ASSERT_TRUE(lat.has_value());
  // c finishes at 2 (p0 slot 1); its bus slot is offset 1 of cycle 2:
  // next at 3, arrival 4; d runs at 5 (p1 slot 1 of cycle 3 -> start 5).
  // completion(0) = 6; worst-case window start shifts add more.
  EXPECT_GE(*lat, 6);
}

core::GraphModel pipeline_model_3(Time d) {
  core::CommGraph comm;
  comm.add_element("stage0", 1);
  comm.add_element("stage1", 1);
  comm.add_element("stage2", 1);
  comm.add_channel(0, 1);
  comm.add_channel(1, 2);
  core::GraphModel model(std::move(comm));
  core::TaskGraph tg;
  const core::OpId a = tg.add_op(0);
  const core::OpId b = tg.add_op(1);
  const core::OpId c = tg.add_op(2);
  tg.add_dep(a, b);
  tg.add_dep(b, c);
  model.add_constraint(core::TimingConstraint{"flow", std::move(tg), 30, d,
                                              core::ConstraintKind::kAsynchronous});
  return model;
}

// deploy() on a shared bus of m processors with unit message slots.
Deployment deploy_on_unit_bus(const core::GraphModel& model, std::size_t m,
                              const char* mapper) {
  Platform bus = Platform::bus(m);
  bus.fixed_message_size = 1;
  DeployOptions options;
  options.mapper = mapper;
  return deploy(model, bus, options);
}

TEST(MultiprocSchedule, SingleProcessorDegeneratesToUniprocessor) {
  const Deployment d = deploy_on_unit_bus(pipeline_model_3(24), 1, "lpt");
  ASSERT_TRUE(d.success) << d.failure_reason;
  EXPECT_TRUE(d.messages.empty());
  ASSERT_EQ(d.end_to_end.size(), 1u);
  EXPECT_LE(*d.end_to_end[0], 24);
}

TEST(MultiprocSchedule, TwoProcessorPipelineVerifies) {
  const Deployment d = deploy_on_unit_bus(pipeline_model_3(30), 2, "roundrobin");
  ASSERT_TRUE(d.success) << d.failure_reason;
  EXPECT_EQ(d.processor_schedules.size(), 2u);
  EXPECT_FALSE(d.messages.empty());
  EXPECT_LE(*d.end_to_end[0], 30);
  // One slot run per channel per cycle keeps transmissions FIFO.
  EXPECT_TRUE(check_comm_schedule(Platform::bus(2), d.comm).ok);
}

TEST(MultiprocSchedule, FailsWhenDeadlineTooTightForMessages) {
  EXPECT_FALSE(deploy_on_unit_bus(pipeline_model_3(3), 3, "roundrobin").success);
}

TEST(MultiprocSchedule, ZeroProcessorsFails) {
  EXPECT_FALSE(deploy_on_unit_bus(pipeline_model_3(24), 0, "lpt").success);
}

TEST(MultiprocSchedule, ControlSystemOnTwoProcessors) {
  core::ControlSystemParams params;
  params.px = params.dx = 40;
  params.py = params.dy = 80;
  params.pz = 100;
  params.dz = 50;
  const Deployment d =
      deploy_on_unit_bus(core::make_control_system(params), 2, "comm");
  ASSERT_TRUE(d.success) << d.failure_reason;
  for (std::size_t i = 0; i < d.end_to_end.size(); ++i) {
    ASSERT_TRUE(d.end_to_end[i].has_value()) << i;
  }
}

}  // namespace
}  // namespace rtg::map
