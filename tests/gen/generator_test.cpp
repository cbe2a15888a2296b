// Unit tests of the scenario factory: determinism, topology shapes,
// utilization targeting, domain packs, and the --gen spec-string
// round trip.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "gen/generator.hpp"
#include "graph/digraph.hpp"

namespace rtg::gen {
namespace {

TEST(Generator, IsDeterministic) {
  for (std::uint64_t index = 0; index < 24; ++index) {
    const ScenarioOptions options = corpus_options(index);
    const Scenario a = generate(options);
    const Scenario b = generate(options);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.spec, b.spec) << a.name;
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.fingerprint, fnv1a(a.spec));
  }
}

TEST(Generator, SeedsActuallyVaryTheScenario) {
  ScenarioOptions options;
  options.platform.topology = Topology::kLayered;
  std::set<std::uint64_t> fingerprints;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    options.seed = seed;
    fingerprints.insert(generate(options).fingerprint);
  }
  // Weights, wiring, and constraint carving must respond to the seed.
  EXPECT_GT(fingerprints.size(), 8u);
}

TEST(Generator, ShapeKnobsAreIndependentStreams) {
  // Same seed, different topology: unrelated randomness, not the same
  // draws reinterpreted.
  ScenarioOptions a;
  a.seed = 5;
  a.platform.topology = Topology::kChain;
  ScenarioOptions b = a;
  b.platform.topology = Topology::kRandomDag;
  EXPECT_NE(generate(a).fingerprint, generate(b).fingerprint);
}

TEST(Generator, ChainTopologyIsAPath) {
  ScenarioOptions options;
  options.platform.topology = Topology::kChain;
  options.platform.elements = 6;
  const Scenario s = generate(options);
  const graph::Digraph& g = s.model.comm().digraph();
  ASSERT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.edge_count(), 5u);
  for (graph::NodeId v = 0; v + 1 < g.node_count(); ++v) {
    EXPECT_EQ(g.successors(v).size(), 1u);
    EXPECT_EQ(g.successors(v).front(), v + 1);
  }
}

TEST(Generator, ForkJoinHasSingleSourceAndSink) {
  ScenarioOptions options;
  options.platform.topology = Topology::kForkJoin;
  options.platform.elements = 7;
  const Scenario s = generate(options);
  const graph::Digraph& g = s.model.comm().digraph();
  ASSERT_EQ(g.node_count(), 7u);
  EXPECT_EQ(g.out_degree(0), 5u);
  EXPECT_EQ(g.in_degree(g.node_count() - 1), 5u);
  for (graph::NodeId mid = 1; mid + 1 < g.node_count(); ++mid) {
    EXPECT_EQ(g.in_degree(mid), 1u);
    EXPECT_EQ(g.out_degree(mid), 1u);
  }
}

TEST(Generator, AllTopologiesEmitConnectedAcyclicPlatforms) {
  for (const Topology t : {Topology::kChain, Topology::kForkJoin,
                           Topology::kLayered, Topology::kDiamond,
                           Topology::kRandomDag}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      ScenarioOptions options;
      options.seed = seed;
      options.platform.topology = t;
      const Scenario s = generate(options);
      SCOPED_TRACE(s.name);
      const graph::Digraph& g = s.model.comm().digraph();
      // Edges only point from lower to higher element id (the
      // invariant that makes every induced task graph acyclic).
      for (const graph::Edge& e : g.edges()) EXPECT_LT(e.from, e.to);
      // No stranded non-source nodes.
      for (graph::NodeId v = 1; v < g.node_count(); ++v) {
        EXPECT_TRUE(g.in_degree(v) > 0 || g.out_degree(v) > 0) << "element " << v;
      }
      EXPECT_FALSE(s.model.constraints().empty());
    }
  }
}

TEST(Generator, ConstraintsRespectKnobs) {
  ScenarioOptions options;
  options.platform.topology = Topology::kLayered;
  options.platform.elements = 8;
  options.constraints.constraints = 4;
  options.constraints.max_ops = 3;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    options.seed = seed;
    const Scenario s = generate(options);
    ASSERT_EQ(s.model.constraints().size(), 4u);
    for (const core::TimingConstraint& c : s.model.constraints()) {
      EXPECT_LE(c.task_graph.size(), 3u);
      EXPECT_GE(c.task_graph.size(), 1u);
      EXPECT_GT(c.period, 0);
      EXPECT_GE(c.deadline, c.task_graph.computation_time(s.model.comm()));
      EXPECT_FALSE(c.task_graph.has_repeated_labels());
    }
  }
}

TEST(Generator, SporadicFractionExtremes) {
  ScenarioOptions options;
  options.constraints.constraints = 4;
  options.constraints.sporadic_fraction = 1.0;
  const Scenario sporadic = generate(options);
  for (const core::TimingConstraint& c : sporadic.model.constraints()) {
    EXPECT_FALSE(c.periodic());
  }
  options.constraints.sporadic_fraction = 0.0;
  const Scenario periodic = generate(options);
  for (const core::TimingConstraint& c : periodic.model.constraints()) {
    EXPECT_TRUE(c.periodic());
  }
}

TEST(Generator, LatencyDensityTightensDeadlines) {
  ScenarioOptions options;
  options.constraints.constraints = 4;
  options.constraints.latency_density = 1.0;
  std::size_t tight = 0;
  std::size_t total = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    options.seed = seed;
    const Scenario scenario = generate(options);
    for (const core::TimingConstraint& c : scenario.model.constraints()) {
      ++total;
      if (c.deadline < c.period) ++tight;
    }
  }
  // With density 1.0 every constraint is a strict latency constraint.
  EXPECT_EQ(tight, total);
}

TEST(Generator, UtilizationTargetingLandsInBand) {
  // The knob steers Σ w/d; clamping means individual scenarios scatter,
  // but the corpus average must track the target within a loose band.
  for (const double target : {0.2, 0.5}) {
    ScenarioOptions options;
    options.platform.topology = Topology::kLayered;
    options.platform.elements = 8;
    options.constraints.constraints = 3;
    options.constraints.utilization = target;
    double sum = 0;
    constexpr std::uint64_t kSeeds = 24;
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      options.seed = seed;
      sum += generate(options).model.deadline_utilization();
    }
    const double mean = sum / kSeeds;
    EXPECT_GT(mean, 0.4 * target) << "target " << target;
    EXPECT_LT(mean, 2.5 * target) << "target " << target;
  }
}

TEST(Generator, DomainPacksHaveTheirSignatureShapes) {
  ScenarioOptions options;
  options.seed = 3;

  options.domain = DomainPack::kSensorFusion;
  const Scenario fusion = generate(options);
  EXPECT_NE(fusion.spec.find("element imu"), std::string::npos);
  EXPECT_NE(fusion.spec.find("channel fuse -> kf"), std::string::npos);
  EXPECT_EQ(fusion.model.constraints().size(), 4u);

  options.domain = DomainPack::kAvionics;
  const Scenario avionics = generate(options);
  EXPECT_NE(avionics.spec.find("element modesel"), std::string::npos);
  EXPECT_NE(avionics.spec.find("channel mixer -> servo"), std::string::npos);

  options.domain = DomainPack::kMarketData;
  const Scenario market = generate(options);
  EXPECT_NE(market.spec.find("element md_feed"), std::string::npos);
  EXPECT_NE(market.spec.find("channel signal -> order"), std::string::npos);
}

TEST(Generator, CorpusEnumerationCoversTheLattice) {
  std::set<Topology> topologies;
  std::set<PeriodFamily> families;
  std::set<DomainPack> domains;
  for (std::uint64_t index = 0; index < 120; ++index) {
    const ScenarioOptions o = corpus_options(index);
    domains.insert(o.domain);
    if (o.domain == DomainPack::kNone) {
      topologies.insert(o.platform.topology);
      families.insert(o.constraints.periods);
    }
  }
  EXPECT_EQ(topologies.size(), 5u);
  EXPECT_EQ(families.size(), 3u);
  EXPECT_EQ(domains.size(), 4u);
}

TEST(GenSpecString, RoundTripsThroughTheParser) {
  for (std::uint64_t index = 0; index < 32; ++index) {
    const ScenarioOptions options = corpus_options(index);
    const std::string text = scenario_spec_string(options);
    std::string error;
    const std::optional<ScenarioOptions> parsed = parse_scenario_spec(text, &error);
    ASSERT_TRUE(parsed.has_value()) << text << ": " << error;
    EXPECT_EQ(scenario_spec_string(*parsed), text);
    EXPECT_EQ(generate(*parsed).fingerprint, generate(options).fingerprint) << text;
  }
}

TEST(Generator, PlatformShapesChangeHardwareNotTheModel) {
  ScenarioOptions options;
  options.seed = 11;
  options.processors = 4;

  ScenarioOptions ring = options;
  ring.platform_shape = PlatformShape::kRing;
  ScenarioOptions mesh = options;
  mesh.platform_shape = PlatformShape::kPartialMesh;

  const Scenario bus_s = generate(options);
  const Scenario ring_s = generate(ring);
  const Scenario mesh_s = generate(mesh);

  // The shape is a pure function of the knobs: the software model is
  // untouched (no RNG perturbation), only the hardware preamble moves.
  EXPECT_EQ(bus_s.model.comm().size(), ring_s.model.comm().size());
  EXPECT_EQ(bus_s.model.constraint_count(), mesh_s.model.constraint_count());

  ASSERT_TRUE(bus_s.hardware.has_value());
  ASSERT_TRUE(ring_s.hardware.has_value());
  ASSERT_TRUE(mesh_s.hardware.has_value());
  EXPECT_EQ(bus_s.hardware->links.size(), 1u);
  EXPECT_EQ(ring_s.hardware->links.size(), 4u);   // one wire per adjacency
  EXPECT_EQ(mesh_s.hardware->links.size(), 5u);   // wires + fallback bus
  EXPECT_EQ(mesh_s.hardware->links.back().name, "bb");

  // The emitted spec's link lines cover the shape, so fingerprints
  // distinguish all three automatically; names carry the suffix.
  EXPECT_NE(bus_s.fingerprint, ring_s.fingerprint);
  EXPECT_NE(bus_s.fingerprint, mesh_s.fingerprint);
  EXPECT_NE(ring_s.fingerprint, mesh_s.fingerprint);
  EXPECT_NE(ring_s.name.find("r"), std::string::npos);
  EXPECT_NE(mesh_s.name, bus_s.name);
}

TEST(Generator, MappedCorpusExercisesNonBusShapes) {
  bool saw_ring = false, saw_mesh = false, saw_bus = false;
  for (std::uint64_t index = 0; index < 24; ++index) {
    const ScenarioOptions options = mapped_corpus_options(index);
    ASSERT_GT(options.processors, 0u);
    if (index % 8 == 3) {
      EXPECT_EQ(options.platform_shape, PlatformShape::kRing) << index;
      saw_ring = true;
    } else if (index % 8 == 6) {
      EXPECT_EQ(options.platform_shape, PlatformShape::kPartialMesh) << index;
      saw_mesh = true;
    } else {
      EXPECT_EQ(options.platform_shape, PlatformShape::kBus) << index;
      saw_bus = true;
    }
  }
  EXPECT_TRUE(saw_ring);
  EXPECT_TRUE(saw_mesh);
  EXPECT_TRUE(saw_bus);
}

TEST(GenSpecString, PlatformShapeRoundTripsAndRejectsBadValues) {
  ScenarioOptions options;
  options.seed = 3;
  options.processors = 4;
  options.platform_shape = PlatformShape::kPartialMesh;
  const std::string text = scenario_spec_string(options);
  EXPECT_NE(text.find("platform_shape=partial_mesh"), std::string::npos);
  std::string error;
  const std::optional<ScenarioOptions> parsed = parse_scenario_spec(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->platform_shape, PlatformShape::kPartialMesh);
  EXPECT_EQ(generate(*parsed).fingerprint, generate(options).fingerprint);

  // Bus is the default and stays *out* of the spec string, so every
  // pre-ISSUE-10 repro line parses to the same scenario.
  options.platform_shape = PlatformShape::kBus;
  EXPECT_EQ(scenario_spec_string(options).find("platform_shape"), std::string::npos);

  EXPECT_FALSE(parse_scenario_spec("platform_shape=torus", &error));
  EXPECT_NE(error.find("platform_shape"), std::string::npos);
}

TEST(GenSpecString, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_scenario_spec("topology=moebius", &error));
  EXPECT_NE(error.find("topology"), std::string::npos);
  EXPECT_FALSE(parse_scenario_spec("bogus_key=1", &error));
  EXPECT_FALSE(parse_scenario_spec("seed", &error));
  EXPECT_FALSE(parse_scenario_spec("seed=-3", &error));
  EXPECT_FALSE(parse_scenario_spec("density=1.5", &error));
  EXPECT_FALSE(parse_scenario_spec("min_weight=2,max_weight=1", &error));
  EXPECT_FALSE(parse_scenario_spec("constraints=0", &error));
  // Empty string = all defaults; trailing commas are tolerated.
  EXPECT_TRUE(parse_scenario_spec("", &error));
  EXPECT_TRUE(parse_scenario_spec("seed=9,", &error));
}

}  // namespace
}  // namespace rtg::gen
