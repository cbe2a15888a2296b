#include "graph/dot.hpp"

#include <sstream>

namespace rtg::graph {

namespace {

std::string node_label(const Digraph& g, NodeId v, const DotOptions& opts) {
  std::string label = g.name(v).empty() ? std::string("n").append(std::to_string(v)) : g.name(v);
  if (opts.show_weights) {
    label += " (w=" + std::to_string(g.weight(v)) + ")";
  }
  return label;
}

// Escapes double quotes in labels.
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string to_dot(const Digraph& g, const DotOptions& opts) {
  std::ostringstream os;
  os << "digraph " << opts.graph_name << " {\n";
  if (opts.left_to_right) os << "  rankdir=LR;\n";
  os << "  node [shape=box];\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "  n" << v << " [label=\"" << escape(node_label(g, v, opts)) << "\"];\n";
  }
  for (const Edge& e : g.edges()) {
    os << "  n" << e.from << " -> n" << e.to << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace rtg::graph
