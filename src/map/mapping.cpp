#include "map/mapping.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "graph/digraph.hpp"

namespace rtg::map {

std::vector<Time> Mapping::loads(const core::CommGraph& comm,
                                 std::size_t processors) const {
  std::vector<Time> load(processors, 0);
  for (ElementId e = 0; e < comm.size() && e < assignment.size(); ++e) {
    load[assignment[e]] += comm.weight(e);
  }
  return load;
}

std::optional<std::vector<Message>> collect_messages(
    const core::GraphModel& model, const Platform& platform,
    const std::vector<ProcId>& assignment, std::string* why) {
  // Distinct cross-processor channels used by any constraint edge,
  // keyed and ordered by (from, to) element id, so TDMA slot assignment
  // is reproducible.
  std::set<std::pair<ElementId, ElementId>> channels;
  for (const core::TimingConstraint& c : model.constraints()) {
    for (const graph::Edge& e : c.task_graph.skeleton().edges()) {
      const ElementId u = c.task_graph.label(e.from);
      const ElementId v = c.task_graph.label(e.to);
      if (assignment[u] != assignment[v]) channels.insert({u, v});
    }
  }

  std::vector<Message> messages;
  messages.reserve(channels.size());
  for (const auto& [u, v] : channels) {
    Message msg;
    msg.from = u;
    msg.to = v;
    msg.src = assignment[u];
    msg.dst = assignment[v];
    const auto link = platform.route(msg.src, msg.dst);
    if (!link) {
      if (why) {
        *why = "no link serves " + platform.processor_names[msg.src] + " -> " +
               platform.processor_names[msg.dst] + " (channel " +
               model.comm().name(u) + " -> " + model.comm().name(v) + ")";
      }
      return std::nullopt;
    }
    msg.link = *link;
    msg.size = platform.fixed_message_size > 0 ? platform.fixed_message_size
                                               : model.comm().weight(u);
    msg.slots = platform.transfer_slots(msg.link, msg.size);
    messages.push_back(msg);
  }
  return messages;
}

std::vector<ProcessorShard> shard_comm(const core::CommGraph& comm,
                                       const std::vector<ProcId>& assignment,
                                       std::size_t processors) {
  std::vector<ProcessorShard> shards(processors);
  for (ProcessorShard& s : shards) {
    s.to_local.assign(comm.size(), graph::kInvalidNode);
  }
  for (ElementId e = 0; e < comm.size(); ++e) {
    ProcessorShard& s = shards[assignment[e]];
    const ElementId local =
        s.comm.add_element(comm.name(e), comm.weight(e), comm.pipelinable(e));
    s.to_global.push_back(e);
    s.to_local[e] = local;
  }
  for (const graph::Edge& ch : comm.digraph().edges()) {
    if (assignment[ch.from] == assignment[ch.to]) {
      ProcessorShard& s = shards[assignment[ch.from]];
      s.comm.add_channel(s.to_local[ch.from], s.to_local[ch.to]);
    }
  }
  return shards;
}

double load_imbalance(const std::vector<Time>& loads) {
  if (loads.empty()) return 0.0;
  Time total = 0;
  Time peak = 0;
  for (Time l : loads) {
    total += l;
    peak = std::max(peak, l);
  }
  if (total == 0) return 0.0;
  const double mean = static_cast<double>(total) / static_cast<double>(loads.size());
  return static_cast<double>(peak) / mean;
}

}  // namespace rtg::map
