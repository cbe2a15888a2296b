// platform.hpp — execution platform descriptions for mapped deployment.
//
// A Platform is the target of the paper's multiprocessor decomposition:
// P named processors plus a set of communication links. Each link owns
// a cyclic slot table (built by comm_schedule) and serves a set of
// directed processor pairs ("routes"). A classic shared TDMA bus is one
// link whose routes are all ordered pairs — shared capacity then falls
// out of the per-link slot table, with no special-casing. Point-to-point
// meshes and rings are just different route sets.
//
// Transfer costs follow the ComputationBasedSystem idiom (SNIPPETS.md
// §1): a message's transmission time is its size divided by the link
// bandwidth, rounded up to whole slots. Message size defaults to the
// producing element's weight (heavier computations emit bigger
// payloads); `fixed_message_size` pins it (1 makes every message take
// exactly one slot: unit TDMA slots).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"

namespace rtg::map {

using core::ElementId;
using core::Time;

/// Index of a processor within a Platform.
using ProcId = std::size_t;

/// A directed processor pair served by a link.
using Route = std::pair<ProcId, ProcId>;

/// A communication link: a broadcast bus, a point-to-point wire, or
/// anything between, depending on its route set.
struct Link {
  std::string name;
  /// Payload units moved per slot; transfer takes ceil(size/bandwidth)
  /// slots. Must be >= 1.
  Time bandwidth = 1;
  /// Directed processor pairs this link can carry, sorted ascending.
  std::vector<Route> routes;

  [[nodiscard]] bool serves(ProcId from, ProcId to) const;
  /// True iff routes == every ordered pair over `processors` (a bus).
  [[nodiscard]] bool is_bus(std::size_t processors) const;

  friend bool operator==(const Link&, const Link&) = default;
};

/// P processors + links. Processor names default to "p0", "p1", ...
struct Platform {
  std::vector<std::string> processor_names;
  std::vector<Link> links;
  /// When > 0, every message has this size regardless of its producer's
  /// weight. 1 gives unit TDMA slots.
  Time fixed_message_size = 0;

  [[nodiscard]] std::size_t processors() const { return processor_names.size(); }

  /// First link (declaration order) serving from->to, or nullopt.
  [[nodiscard]] std::optional<std::size_t> route(ProcId from, ProcId to) const;

  /// Slots needed to move `size` payload units over link `l`.
  [[nodiscard]] Time transfer_slots(std::size_t l, Time size) const;

  /// Shared-bus platform: P processors, one link serving all pairs.
  [[nodiscard]] static Platform bus(std::size_t processors, Time bandwidth = 1);
  /// Full point-to-point mesh: one link per ordered pair.
  [[nodiscard]] static Platform full(std::size_t processors, Time bandwidth = 1);
  /// Bidirectional ring: link i serves i <-> (i+1) mod P; non-adjacent
  /// processors have no route.
  [[nodiscard]] static Platform ring(std::size_t processors, Time bandwidth = 1);
  /// Partial mesh: adjacent point-to-point wires ("m0".."m{P-1}", double
  /// bandwidth) plus a shared fallback bus ("bb") at `bandwidth` serving
  /// every pair. Adjacent traffic prefers its wire (declaration order);
  /// every route survives any single wire loss via the bus — the
  /// redundancy fault_tolerance's reroute path exercises.
  [[nodiscard]] static Platform partial_mesh(std::size_t processors,
                                             Time bandwidth = 1);

  friend bool operator==(const Platform&, const Platform&) = default;
};

}  // namespace rtg::map
