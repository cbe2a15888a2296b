// mapper.hpp — the mapping portfolio: algorithms that place functional
// elements onto processors.
//
// Every mapper implements the same contract: given a model and a
// platform, produce a Mapping (assignment vector). Mappers are pure and
// deterministic — SimulatedAnnealingMapper draws all randomness from an
// explicit seed — so corpus runs and benches are reproducible from a
// one-line repro. Quality is judged downstream: deploy() runs the full
// per-processor synthesis + communication scheduling + exact end-to-end
// verification on whatever the mapper emits, and the E23 bench compares
// portfolio members on success rate / latency margin / link slots /
// load balance.
//
// Portfolio members:
//  * GreedyMapper — one pass in a chosen order. Policies kRoundRobin /
//    kLpt / kCommunication are the original partition heuristics: one
//    pass over the bare comm graph, blind to routes and constraints
//    (tests/map/mapper_test pins their assignments). The default
//    kLatencyDensity policy orders elements by latency density (sum
//    over constraints of weight / deadline — tighter, heavier elements
//    first) and places each on the processor minimizing load + transfer
//    cost, skipping placements whose induced channels have no serving
//    link.
//  * SimulatedAnnealingMapper — anytime, seeded-deterministic annealing
//    from the greedy start. Move set: migrate one element / swap a
//    cross-processor pair / rebalance a maximal chain. Energy mixes
//    route misses (lexically dominant), estimated deadline overage,
//    peak load, and total transfer slots.
//  * SeriesParallelDecompositionMapper — cuts the undirected comm graph
//    at articulation vertices, packs the resulting fragments LPT, then
//    attaches the cut vertices by neighbour affinity. Keeps
//    series-parallel runs intact, so pipelines shard at their seams.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/model.hpp"
#include "map/mapping.hpp"
#include "map/platform.hpp"

namespace rtg::map {

class Mapper {
 public:
  virtual ~Mapper() = default;
  /// Places every element of `model` onto a processor of `platform`.
  [[nodiscard]] virtual Mapping assign(const core::GraphModel& model,
                                       const Platform& platform) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

class GreedyMapper final : public Mapper {
 public:
  enum class Policy : std::uint8_t {
    kRoundRobin,      ///< element i -> processor i mod m
    kLpt,             ///< longest processing time first onto least-loaded
    kCommunication,   ///< co-locate with neighbours under a soft load cap
    kLatencyDensity,  ///< density order, load+comm+route-aware placement
  };

  explicit GreedyMapper(Policy policy = Policy::kLatencyDensity) : policy_(policy) {}

  [[nodiscard]] Mapping assign(const core::GraphModel& model,
                               const Platform& platform) const override;
  [[nodiscard]] std::string name() const override;

 private:
  Policy policy_;
};

struct AnnealOptions {
  std::uint64_t seed = 1;
  /// Move attempts. The anytime knob: more iterations, better mappings.
  std::size_t iterations = 2000;
  double initial_temperature = 8.0;
  double cooling = 0.995;  ///< geometric per-iteration factor
};

class SimulatedAnnealingMapper final : public Mapper {
 public:
  explicit SimulatedAnnealingMapper(AnnealOptions options = {}) : options_(options) {}

  [[nodiscard]] Mapping assign(const core::GraphModel& model,
                               const Platform& platform) const override;
  [[nodiscard]] std::string name() const override { return "sa"; }

  /// The annealer's objective, exposed for tests and the bench: route
  /// misses dominate, then estimated deadline overage, peak load, and
  /// transfer slots.
  [[nodiscard]] static double energy(const core::GraphModel& model,
                                     const Platform& platform,
                                     const std::vector<ProcId>& assignment);

 private:
  AnnealOptions options_;
};

class SeriesParallelDecompositionMapper final : public Mapper {
 public:
  [[nodiscard]] Mapping assign(const core::GraphModel& model,
                               const Platform& platform) const override;
  [[nodiscard]] std::string name() const override { return "spd"; }

  /// Articulation vertices of the undirected view of `comm` (cut
  /// vertices whose removal disconnects a component).
  [[nodiscard]] static std::vector<ElementId> articulation_points(
      const core::CommGraph& comm);
};

/// Factory for the CLI / service surface: "greedy", "sa", "spd"
/// (aliases "roundrobin" / "lpt" / "comm" select the route-blind greedy
/// policies). Returns nullptr for unknown names. `seed` feeds the
/// annealer and is ignored by deterministic mappers.
[[nodiscard]] std::unique_ptr<Mapper> make_mapper(std::string_view name,
                                                  std::uint64_t seed = 1);

}  // namespace rtg::map
