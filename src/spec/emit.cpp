#include "spec/emit.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

namespace rtg::spec {

namespace {

// Name of op `op` inside its task graph: the element name, plus a #k
// suffix whenever the element labels more than one op.
std::string op_ref(const core::TaskGraph& tg, const core::CommGraph& comm,
                   core::OpId op) {
  const core::ElementId e = tg.label(op);
  std::size_t count = 0;
  std::size_t index = 0;
  for (core::OpId other = 0; other < tg.size(); ++other) {
    if (tg.label(other) == e) {
      ++count;
      if (other < op) ++index;
    }
  }
  std::string ref = comm.name(e);
  if (count > 1) {
    ref.append("#").append(std::to_string(index + 1));
  }
  return ref;
}

}  // namespace

std::string emit(const core::GraphModel& model) {
  const core::CommGraph& comm = model.comm();
  std::ostringstream os;

  for (core::ElementId e = 0; e < comm.size(); ++e) {
    os << "element " << comm.name(e);
    if (comm.weight(e) != 1) os << " weight " << comm.weight(e);
    if (!comm.pipelinable(e)) os << " nopipeline";
    os << "\n";
  }
  if (comm.digraph().edge_count() > 0) os << "\n";
  for (const graph::Edge& ch : comm.digraph().edges()) {
    os << "channel " << comm.name(ch.from) << " -> " << comm.name(ch.to) << "\n";
  }

  for (const core::TimingConstraint& c : model.constraints()) {
    os << "\nconstraint " << c.name << " "
       << (c.periodic() ? "periodic period " : "sporadic separation ") << c.period
       << " deadline " << c.deadline << " {\n";
    // Edges and singletons are printed in ref-name order rather than
    // op-id order: re-compiling renumbers ops by first appearance, so
    // only a name-canonical order makes emit(compile(emit(m))) a byte
    // fixpoint (the generator corpus round-trip pins rely on this).
    std::vector<bool> covered(c.task_graph.size(), false);
    std::vector<std::pair<std::string, std::string>> edges;
    for (const graph::Edge& dep : c.task_graph.skeleton().edges()) {
      edges.emplace_back(op_ref(c.task_graph, comm, dep.from),
                         op_ref(c.task_graph, comm, dep.to));
      covered[dep.from] = covered[dep.to] = true;
    }
    std::sort(edges.begin(), edges.end());
    for (const auto& [from, to] : edges) {
      os << "  " << from << " -> " << to << ";\n";
    }
    std::vector<std::string> singletons;
    for (core::OpId op = 0; op < c.task_graph.size(); ++op) {
      if (!covered[op]) {
        singletons.push_back(op_ref(c.task_graph, comm, op));
      }
    }
    std::sort(singletons.begin(), singletons.end());
    for (const std::string& ref : singletons) {
      os << "  " << ref << ";\n";
    }
    os << "}\n";
  }
  return os.str();
}

std::string emit(const core::GraphModel& model, const map::Platform& platform) {
  std::ostringstream os;
  for (const std::string& name : platform.processor_names) {
    os << "processor " << name << "\n";
  }
  const std::size_t procs = platform.processor_names.size();
  for (const map::Link& link : platform.links) {
    if (link.is_bus(procs)) {
      os << "bus " << link.name;
      if (link.bandwidth != 1) os << " bandwidth " << link.bandwidth;
      os << "\n";
      continue;
    }
    // Routes are stored sorted, so per-route lines come out canonical;
    // compile merges same-name lines back into one link.
    for (const map::Route& route : link.routes) {
      os << "link " << link.name << " " << platform.processor_names[route.first]
         << " -> " << platform.processor_names[route.second];
      if (link.bandwidth != 1) os << " bandwidth " << link.bandwidth;
      os << "\n";
    }
  }
  if (procs > 0) os << "\n";
  os << emit(model);
  return os.str();
}

}  // namespace rtg::spec
