// The mapping portfolio: factory resolution, golden assignments of the
// route-blind greedy policies (round-robin / LPT / communication-aware),
// seeded determinism of the annealer, and the decomposition mapper's
// articulation cuts.
#include "map/mapper.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "gen/generator.hpp"

namespace rtg::map {
namespace {

using core::ConstraintKind;
using core::GraphModel;
using core::OpId;
using core::TaskGraph;
using core::TimingConstraint;

GraphModel chain_model(std::size_t n) {
  core::CommGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    g.add_element(name, 1 + static_cast<core::Time>(i % 3));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) g.add_channel(i, i + 1);
  GraphModel model(g);
  TaskGraph tg;
  OpId prev = tg.add_op(0);
  for (std::size_t i = 1; i < n; ++i) {
    const OpId next = tg.add_op(i);
    tg.add_dep(prev, next);
    prev = next;
  }
  model.add_constraint(TimingConstraint{"flow", std::move(tg), 60, 60,
                                        ConstraintKind::kAsynchronous});
  return model;
}

TEST(MakeMapper, ResolvesPortfolioAndAliases) {
  EXPECT_EQ(make_mapper("greedy")->name(), "greedy");
  EXPECT_EQ(make_mapper("sa")->name(), "sa");
  EXPECT_EQ(make_mapper("spd")->name(), "spd");
  EXPECT_NE(make_mapper("roundrobin"), nullptr);
  EXPECT_NE(make_mapper("lpt"), nullptr);
  EXPECT_NE(make_mapper("comm"), nullptr);
  EXPECT_EQ(make_mapper("simulated-annealing"), nullptr);
  EXPECT_EQ(make_mapper(""), nullptr);
}

using Policy = GreedyMapper::Policy;

// A policy's placement of a bare comm graph on a shared bus of m
// processors.
std::vector<ProcId> place(Policy policy, const core::CommGraph& comm,
                          std::size_t m) {
  return GreedyMapper(policy).assign(GraphModel(comm), Platform::bus(m)).assignment;
}

core::CommGraph pipeline_comm() {
  core::CommGraph g;
  g.add_element("stage0", 1);
  g.add_element("stage1", 1);
  g.add_element("stage2", 1);
  g.add_channel(0, 1);
  g.add_channel(1, 2);
  return g;
}

TEST(GreedyMapper, LegacyPoliciesMatchTheCoreShim) {
  // The assignments the core partition function gave before its passes
  // moved into GreedyMapper, recorded on a 7-element chain.
  struct Pin {
    std::size_t m;
    Policy policy;
    std::vector<ProcId> assignment;
  };
  const Pin golden[] = {
      {2, Policy::kRoundRobin, {0, 1, 0, 1, 0, 1, 0}},
      {2, Policy::kLpt, {0, 0, 0, 1, 1, 1, 0}},
      {2, Policy::kCommunication, {0, 0, 0, 0, 1, 1, 1}},
      {3, Policy::kRoundRobin, {0, 1, 2, 0, 1, 2, 0}},
      {3, Policy::kLpt, {0, 2, 0, 1, 2, 1, 0}},
      {3, Policy::kCommunication, {0, 0, 0, 1, 1, 1, 2}},
  };
  const core::CommGraph comm = chain_model(7).comm();
  for (const Pin& pin : golden) {
    EXPECT_EQ(place(pin.policy, comm, pin.m), pin.assignment)
        << "m=" << pin.m << " policy " << static_cast<int>(pin.policy);
  }
}

TEST(PartitionElements, RoundRobinCycles) {
  EXPECT_EQ(place(Policy::kRoundRobin, pipeline_comm(), 2),
            (std::vector<ProcId>{0, 1, 0}));
}

TEST(PartitionElements, SingleProcessorAllZero) {
  for (Policy policy : {Policy::kRoundRobin, Policy::kLpt, Policy::kCommunication}) {
    EXPECT_EQ(place(policy, pipeline_comm(), 1), (std::vector<ProcId>{0, 0, 0}));
  }
}

TEST(PartitionElements, ZeroProcessorsClampToOne) {
  // A processor-less platform places everything on processor 0;
  // deploy() rejects such a platform before mapping.
  for (Policy policy : {Policy::kRoundRobin, Policy::kLpt, Policy::kCommunication}) {
    EXPECT_EQ(place(policy, pipeline_comm(), 0), (std::vector<ProcId>{0, 0, 0}));
  }
}

TEST(PartitionElements, LptBalancesLoad) {
  core::CommGraph g;
  g.add_element("big", 6);
  g.add_element("m1", 3);
  g.add_element("m2", 3);
  // big alone (load 6), the two mediums together (load 6).
  EXPECT_EQ(place(Policy::kLpt, g, 2), (std::vector<ProcId>{0, 1, 1}));
}

TEST(PartitionElements, CommunicationPrefersColocation) {
  // A chain should stay on one processor when capacity allows.
  core::CommGraph g;
  g.add_element("a", 1);
  g.add_element("b", 1);
  g.add_channel(0, 1);
  g.add_element("c", 1);
  g.add_element("d", 1);
  g.add_channel(2, 3);
  EXPECT_EQ(place(Policy::kCommunication, g, 2), (std::vector<ProcId>{0, 0, 1, 1}));
}

TEST(PartitionEdge, CommunicationAwareFallsBackWhenCapExceeded) {
  // One giant element forces the soft cap to be exceeded; the fallback
  // least-loaded placement must still assign everything, and the tiny
  // elements must not pile onto the giant's processor.
  core::CommGraph comm;
  comm.add_element("giant", 100);
  for (int i = 0; i < 6; ++i) {
    comm.add_element("tiny" + std::to_string(i), 1);
    comm.add_channel(0, static_cast<ElementId>(i + 1));
  }
  EXPECT_EQ(place(Policy::kCommunication, comm, 3),
            (std::vector<ProcId>{0, 1, 2, 1, 2, 1, 2}));
}

TEST(Mappers, AssignmentsAreAlwaysValid) {
  for (std::uint64_t index : {0u, 5u, 11u, 23u}) {
    const gen::Scenario scenario = gen::generate(gen::corpus_options(index));
    for (const char* name : {"greedy", "sa", "spd", "roundrobin", "lpt", "comm"}) {
      for (const Platform& platform :
           {Platform::bus(3), Platform::full(4), Platform::ring(2)}) {
        const Mapping mapping =
            make_mapper(name)->assign(scenario.model, platform);
        ASSERT_EQ(mapping.assignment.size(), scenario.model.comm().size())
            << name << " on seed " << index;
        for (const ProcId p : mapping.assignment) {
          EXPECT_LT(p, platform.processors()) << name;
        }
      }
    }
  }
}

TEST(Mappers, SingleProcessorCollapsesToZero) {
  const GraphModel model = chain_model(5);
  for (const char* name : {"greedy", "sa", "spd"}) {
    const Mapping mapping = make_mapper(name)->assign(model, Platform::bus(1));
    EXPECT_EQ(mapping.assignment, std::vector<ProcId>(5, 0)) << name;
  }
}

TEST(SimulatedAnnealing, SeededAndDeterministic) {
  const gen::Scenario scenario = gen::generate(gen::corpus_options(17));
  const Platform platform = Platform::bus(4);
  const Mapping a = make_mapper("sa", 42)->assign(scenario.model, platform);
  const Mapping b = make_mapper("sa", 42)->assign(scenario.model, platform);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(SimulatedAnnealing, NeverWorseThanItsGreedyStart) {
  // The annealer starts from greedy and keeps the best state seen, so
  // its energy is bounded by greedy's on every instance.
  for (std::uint64_t index : {0u, 7u, 17u, 29u}) {
    const gen::Scenario scenario = gen::generate(gen::corpus_options(index));
    for (const Platform& platform : {Platform::bus(4), Platform::ring(4)}) {
      const Mapping greedy =
          make_mapper("greedy")->assign(scenario.model, platform);
      const Mapping sa = make_mapper("sa")->assign(scenario.model, platform);
      EXPECT_LE(SimulatedAnnealingMapper::energy(scenario.model, platform,
                                                 sa.assignment),
                SimulatedAnnealingMapper::energy(scenario.model, platform,
                                                 greedy.assignment))
          << "seed " << index;
    }
  }
}

TEST(SeriesParallelDecomposition, FindsArticulationPoints) {
  // a - b - c chain: b is the only cut vertex.
  core::CommGraph chain;
  chain.add_element("a", 1);
  chain.add_element("b", 1);
  chain.add_element("c", 1);
  chain.add_channel(0, 1);
  chain.add_channel(1, 2);
  EXPECT_EQ(SeriesParallelDecompositionMapper::articulation_points(chain),
            (std::vector<core::ElementId>{1}));

  // A diamond (a -> b, a -> c, b -> d, c -> d) is biconnected: no cuts.
  core::CommGraph diamond;
  for (const char* name : {"a", "b", "c", "d"}) diamond.add_element(name, 1);
  diamond.add_channel(0, 1);
  diamond.add_channel(0, 2);
  diamond.add_channel(1, 3);
  diamond.add_channel(2, 3);
  EXPECT_TRUE(
      SeriesParallelDecompositionMapper::articulation_points(diamond).empty());

  // Two diamonds joined at d: the join is the cut.
  core::CommGraph two;
  for (const char* name : {"a", "b", "c", "d", "e", "f", "g"}) {
    two.add_element(name, 1);
  }
  two.add_channel(0, 1);
  two.add_channel(0, 2);
  two.add_channel(1, 3);
  two.add_channel(2, 3);
  two.add_channel(3, 4);
  two.add_channel(3, 5);
  two.add_channel(4, 6);
  two.add_channel(5, 6);
  EXPECT_EQ(SeriesParallelDecompositionMapper::articulation_points(two),
            (std::vector<core::ElementId>{3}));
}

TEST(SeriesParallelDecomposition, KeepsFragmentsIntactWhenTheyFit) {
  // Two disconnected chains on two processors: each chain is one
  // fragment and must not be split.
  core::CommGraph g;
  for (int i = 0; i < 6; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    g.add_element(name, 1);
  }
  g.add_channel(0, 1);
  g.add_channel(2, 3);
  GraphModel model(g);
  TaskGraph tg;
  tg.add_op(0);
  model.add_constraint(
      TimingConstraint{"c", std::move(tg), 10, 10, ConstraintKind::kPeriodic});
  const Mapping mapping =
      SeriesParallelDecompositionMapper().assign(model, Platform::bus(2));
  EXPECT_EQ(mapping.assignment[0], mapping.assignment[1]);
  EXPECT_EQ(mapping.assignment[2], mapping.assignment[3]);
}

}  // namespace
}  // namespace rtg::map
