#include "core/viz.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

namespace rtg::core {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// The element's name, or "e<id>" for an id the comm graph lacks.
std::string element_name(const CommGraph& comm, ElementId e) {
  return comm.has_element(e) ? comm.name(e) : std::string("e").append(std::to_string(e));
}

std::string op_label(const TaskGraph& tg, const CommGraph& comm, OpId op) {
  const ElementId e = tg.label(op);
  std::size_t count = 0, index = 0;
  for (OpId other = 0; other < tg.size(); ++other) {
    if (tg.label(other) == e) {
      ++count;
      if (other < op) ++index;
    }
  }
  std::string label = element_name(comm, e);
  if (count > 1) label.append("#").append(std::to_string(index + 1));
  return label;
}

}  // namespace

std::string task_graph_dot(const TaskGraph& tg, const CommGraph& comm,
                           const std::string& name) {
  std::ostringstream os;
  os << "digraph " << name << " {\n  rankdir=LR;\n  node [shape=ellipse];\n";
  for (OpId op = 0; op < tg.size(); ++op) {
    os << "  o" << op << " [label=\"" << escape(op_label(tg, comm, op)) << "\"];\n";
  }
  for (const graph::Edge& e : tg.skeleton().edges()) {
    os << "  o" << e.from << " -> o" << e.to << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string model_dot(const GraphModel& model, const std::string& name) {
  const CommGraph& comm = model.comm();
  std::ostringstream os;
  os << "digraph " << name << " {\n  rankdir=LR;\n  node [shape=box];\n";
  for (ElementId e = 0; e < comm.size(); ++e) {
    os << "  n" << e << " [label=\"" << escape(comm.name(e)) << " (w="
       << comm.weight(e) << ")\"";
    if (!comm.pipelinable(e)) os << " style=filled fillcolor=lightgray";
    os << "];\n";
  }
  for (const graph::Edge& ch : comm.digraph().edges()) {
    os << "  n" << ch.from << " -> n" << ch.to << ";\n";
  }
  for (std::size_t i = 0; i < model.constraint_count(); ++i) {
    const TimingConstraint& c = model.constraint(i);
    os << "  c" << i << " [shape=note style=dashed label=\"" << escape(c.name)
       << "\\n" << (c.periodic() ? "periodic p=" : "sporadic sep=") << c.period
       << " d=" << c.deadline << "\"];\n";
    // Dashed arcs from the note to the elements the constraint touches.
    std::vector<ElementId> touched(c.task_graph.labels());
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (ElementId e : touched) {
      os << "  c" << i << " -> n" << e << " [style=dashed arrowhead=none];\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string schedule_gantt(const StaticSchedule& sched, const CommGraph& comm) {
  const Time len = sched.length();
  if (len == 0) return "(empty schedule)\n";

  // Rows for elements that actually run, id order.
  std::map<ElementId, std::string> rows;
  for (const ScheduledOp& op : sched.ops()) {
    rows.emplace(op.elem, std::string(static_cast<std::size_t>(len), '.'));
  }
  for (const ScheduledOp& op : sched.ops()) {
    for (Time k = 0; k < op.duration; ++k) {
      rows[op.elem][static_cast<std::size_t>(op.start + k)] = '#';
    }
  }

  std::size_t label_width = 4;
  for (const auto& [e, row] : rows) {
    const std::string name = element_name(comm, e);
    label_width = std::max(label_width, name.size());
  }

  std::ostringstream os;
  // Ruler: tens digits every 10 slots.
  os << std::string(label_width + 1, ' ') << '|';
  for (Time t = 0; t < len; ++t) {
    os << (t % 10 == 0 ? static_cast<char>('0' + (t / 10) % 10) : ' ');
  }
  os << "|\n";
  for (const auto& [e, row] : rows) {
    const std::string name = element_name(comm, e);
    os << name << std::string(label_width - name.size() + 1, ' ') << '|' << row
       << "|\n";
  }
  return os.str();
}

}  // namespace rtg::core
