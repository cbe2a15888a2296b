// mapping.hpp — element-to-processor assignments and their induced
// inter-processor message sets.
//
// A Mapping fixes where every functional element runs. Everything else
// the deployment pipeline needs is derived from it here:
//
//   * the induced message set — one Message per distinct cross-processor
//     channel any constraint's task graph uses. Channels whose endpoints
//     share a processor are *self-messages* and are eliminated (local
//     memory hand-off, no link traffic);
//   * per-processor sub-models (local comm graphs with local element
//     ids, plus the global<->local id maps the sharded verifier uses to
//     translate witnesses back).
//
// Messages are identified by their (producer, consumer) global element
// ids and sorted by that key, so slot-table construction is
// deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "map/platform.hpp"

namespace rtg::map {

/// A directed inter-processor message stream induced by a channel.
struct Message {
  ElementId from = 0;  ///< producer element (global id)
  ElementId to = 0;    ///< consumer element (global id)
  ProcId src = 0;      ///< processor of `from`
  ProcId dst = 0;      ///< processor of `to`
  std::size_t link = 0;  ///< index into Platform::links
  Time size = 1;         ///< payload units (producer weight or fixed)
  Time slots = 1;        ///< transfer_slots(link, size)

  friend bool operator==(const Message&, const Message&) = default;
};

/// One processor's share of the model: a local comm graph plus id maps.
struct ProcessorShard {
  core::CommGraph comm;
  std::vector<ElementId> to_global;  ///< local -> global
  /// global -> local; graph::kInvalidNode for foreign elements.
  std::vector<ElementId> to_local;
};

/// An element->processor assignment over a model/platform pair.
struct Mapping {
  /// assignment[element] = processor, over the model's elements.
  std::vector<ProcId> assignment;
  /// Name of the mapper that produced it (diagnostics / stats).
  std::string mapper;

  [[nodiscard]] bool empty() const { return assignment.empty(); }

  /// Per-processor computation load (sum of element weights).
  [[nodiscard]] std::vector<Time> loads(const core::CommGraph& comm,
                                        std::size_t processors) const;
};

/// Derives the message set a mapping induces: one Message per distinct
/// cross-processor channel used by any constraint edge, sorted by
/// (from, to) element id. Same-processor channels are eliminated.
/// Returns nullopt (with `why` set, if given) when some message has no
/// serving link on the platform.
[[nodiscard]] std::optional<std::vector<Message>> collect_messages(
    const core::GraphModel& model, const Platform& platform,
    const std::vector<ProcId>& assignment, std::string* why = nullptr);

/// Splits the model's comm graph into per-processor shards (channels
/// between co-located elements become local channels; cross channels
/// are dropped — they live in the message set instead).
[[nodiscard]] std::vector<ProcessorShard> shard_comm(const core::CommGraph& comm,
                                                     const std::vector<ProcId>& assignment,
                                                     std::size_t processors);

/// Load-balance metric: max processor load / mean processor load
/// (1.0 = perfectly balanced; 0 when the model is empty).
[[nodiscard]] double load_imbalance(const std::vector<Time>& loads);

}  // namespace rtg::map
