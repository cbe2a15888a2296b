// comm_schedule.hpp — static cyclic slot tables for inter-processor
// messages: the TDMA construction generalized to arbitrary link sets
// and multi-slot transfers.
//
// Each link gets a cyclic table: every message routed over it owns one
// run of `Message::slots` consecutive slots per cycle, in (from, to)
// element-id order, and the cycle is the total occupied length. A
// classic TDMA bus is the special case of one link with unit-size
// messages (`Platform::fixed_message_size = 1`): slot k of a C-slot
// cycle carries channel k.
//
// Any message therefore waits at most one link cycle before its slot
// comes around: arrival(msg, ready) <= ready + cycle. The deployment
// deadline split charges that worst case per crossing, and the checker
// below proves the structural invariants (every message slotted exactly
// once, no overlap, routes respected, no self-messages) that the
// arrival arithmetic silently assumes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "map/mapping.hpp"
#include "map/platform.hpp"

namespace rtg::map {

/// One message's slot run within a link cycle.
struct SlotAssignment {
  std::size_t message = 0;  ///< index into CommSchedule::messages
  Time offset = 0;          ///< first slot within the cycle
  Time duration = 1;        ///< consecutive slots occupied

  friend bool operator==(const SlotAssignment&, const SlotAssignment&) = default;
};

/// A link's cyclic slot table; slots sorted by offset, non-overlapping.
struct LinkSchedule {
  std::size_t link = 0;  ///< index into Platform::links
  Time cycle = 1;
  std::vector<SlotAssignment> slots;

  friend bool operator==(const LinkSchedule&, const LinkSchedule&) = default;
};

struct CommSchedule {
  std::vector<Message> messages;      ///< sorted by (from, to)
  std::vector<LinkSchedule> links;    ///< one table per platform link

  /// Index of the message for channel (from, to), or npos.
  [[nodiscard]] std::size_t find_message(ElementId from, ElementId to) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Earliest arrival of message `msg` whose transmission starts at or
  /// after `ready` (start of the next slot run, plus the transfer).
  [[nodiscard]] Time arrival(std::size_t msg, Time ready) const;

  /// Worst-case queueing+transfer delay of message `msg`: its link's
  /// cycle (the deadline split charges this per crossing).
  [[nodiscard]] Time worst_delay(std::size_t msg) const;

  /// Total occupied slots across all links (E23 link-slot metric).
  [[nodiscard]] Time total_slots() const;

  friend bool operator==(const CommSchedule&, const CommSchedule&) = default;

  // Filled by build_comm_schedule: per message, its slot's link-table
  // position — (link index, slot index within that link's table).
  std::vector<std::pair<std::size_t, std::size_t>> slot_of;
};

/// Builds the generalized-TDMA table: per link, its messages in
/// (from, to) order, consecutive slot runs, cycle = occupied length.
/// `messages` must already be routed (collect_messages output).
[[nodiscard]] CommSchedule build_comm_schedule(const Platform& platform,
                                               const std::vector<Message>& messages);

/// Structural validation of an arbitrary (possibly hand-built) comm
/// schedule. Checks: every message slotted exactly once, on a link that
/// serves its route, with duration == Message::slots; slots within
/// [0, cycle) and non-overlapping; no self-messages (src == dst); no
/// duplicated (from, to) channel — the generalized pipeline-ordering
/// rule (one slot run per channel per cycle keeps transmissions FIFO).
struct CommCheck {
  bool ok = false;
  std::vector<std::string> diagnostics;
};
[[nodiscard]] CommCheck check_comm_schedule(const Platform& platform,
                                            const CommSchedule& schedule);

}  // namespace rtg::map
