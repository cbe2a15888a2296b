#include "map/comm_schedule.hpp"

#include <algorithm>
#include <set>

namespace rtg::map {

std::size_t CommSchedule::find_message(ElementId from, ElementId to) const {
  // Linear first-match scan: message sets are small, and hand-built
  // tables need not be sorted.
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (messages[i].from == from && messages[i].to == to) return i;
  }
  return npos;
}

Time CommSchedule::arrival(std::size_t msg, Time ready) const {
  const auto& [link_idx, slot_idx] = slot_of[msg];
  const LinkSchedule& table = links[link_idx];
  const SlotAssignment& slot = table.slots[slot_idx];
  // First slot-run start j * cycle + offset at or after `ready`, plus
  // the transfer.
  Time j = (ready - slot.offset + table.cycle - 1) / table.cycle;
  if (j < 0) j = 0;
  return j * table.cycle + slot.offset + slot.duration;
}

Time CommSchedule::worst_delay(std::size_t msg) const {
  return links[slot_of[msg].first].cycle;
}

Time CommSchedule::total_slots() const {
  Time total = 0;
  for (const LinkSchedule& table : links) {
    for (const SlotAssignment& slot : table.slots) total += slot.duration;
  }
  return total;
}

CommSchedule build_comm_schedule(const Platform& platform,
                                 const std::vector<Message>& messages) {
  CommSchedule schedule;
  schedule.messages = messages;
  schedule.slot_of.assign(messages.size(), {0, 0});
  schedule.links.resize(platform.links.size());
  for (std::size_t l = 0; l < platform.links.size(); ++l) {
    schedule.links[l].link = l;
    schedule.links[l].cycle = 1;  // idle links tick in unit cycles
  }
  // Messages are (from, to)-sorted; appending in index order gives each
  // link a deterministic consecutive-run table.
  for (std::size_t i = 0; i < messages.size(); ++i) {
    LinkSchedule& table = schedule.links[messages[i].link];
    const Time offset = table.slots.empty()
                            ? 0
                            : table.slots.back().offset + table.slots.back().duration;
    schedule.slot_of[i] = {messages[i].link, table.slots.size()};
    table.slots.push_back(SlotAssignment{i, offset, messages[i].slots});
  }
  for (LinkSchedule& table : schedule.links) {
    if (!table.slots.empty()) {
      table.cycle = table.slots.back().offset + table.slots.back().duration;
    }
  }
  return schedule;
}

CommCheck check_comm_schedule(const Platform& platform, const CommSchedule& schedule) {
  CommCheck check;
  auto fail = [&](std::string why) { check.diagnostics.push_back(std::move(why)); };

  std::vector<std::size_t> slotted(schedule.messages.size(), 0);
  std::set<std::pair<ElementId, ElementId>> channels;
  for (std::size_t i = 0; i < schedule.messages.size(); ++i) {
    const Message& msg = schedule.messages[i];
    if (msg.src == msg.dst) {
      fail("message " + std::to_string(i) +
           ": self-message (src == dst) must be eliminated, not scheduled");
    }
    if (!channels.insert({msg.from, msg.to}).second) {
      fail("message " + std::to_string(i) +
           ": duplicated channel breaks pipeline (FIFO) ordering");
    }
  }

  for (const LinkSchedule& table : schedule.links) {
    if (table.link >= platform.links.size()) {
      fail("link table refers to unknown link " + std::to_string(table.link));
      continue;
    }
    if (table.cycle < 1) {
      fail("link " + platform.links[table.link].name + ": cycle < 1");
      continue;
    }
    Time prev_end = 0;
    for (std::size_t s = 0; s < table.slots.size(); ++s) {
      const SlotAssignment& slot = table.slots[s];
      const std::string where =
          "link " + platform.links[table.link].name + " slot " + std::to_string(s);
      if (slot.message >= schedule.messages.size()) {
        fail(where + ": unknown message " + std::to_string(slot.message));
        continue;
      }
      ++slotted[slot.message];
      const Message& msg = schedule.messages[slot.message];
      if (msg.link != table.link || !platform.links[table.link].serves(msg.src, msg.dst)) {
        fail(where + ": link does not serve route " + std::to_string(msg.src) +
             " -> " + std::to_string(msg.dst));
      }
      if (slot.duration != msg.slots) {
        fail(where + ": duration " + std::to_string(slot.duration) +
             " != transfer slots " + std::to_string(msg.slots));
      }
      if (slot.offset < prev_end) fail(where + ": overlaps the previous slot");
      if (slot.offset + slot.duration > table.cycle) {
        fail(where + ": runs past the cycle");
      }
      prev_end = slot.offset + slot.duration;
    }
  }
  for (std::size_t i = 0; i < schedule.messages.size(); ++i) {
    if (slotted[i] != 1) {
      fail("message " + std::to_string(i) + ": slotted " +
           std::to_string(slotted[i]) + " times (want exactly 1)");
    }
  }
  check.ok = check.diagnostics.empty();
  return check;
}

}  // namespace rtg::map
