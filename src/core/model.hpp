// model.hpp — Mok's graph-based computation model M = (G, T).
//
// G = (V, E, W_V) is the *communication graph*: nodes are functional
// elements with non-negative integer computation times (weights), edges
// are communication paths. T is a finite set of *timing constraints*
// (C, p, d): C a task graph compatible with G (an acyclic digraph whose
// nodes are labelled with functional elements and whose edges map to
// communication-graph edges), p the period / minimum separation, d the
// deadline. T splits into T_p (periodic: invoked at 0, p, 2p, ...) and
// T_a (asynchronous a.k.a. sporadic: invoked at arbitrary instants at
// least p apart). An invocation at time t requires an execution of C
// inside [t, t+d].
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/time.hpp"

namespace rtg::core {

using graph::NodeId;
using sim::Time;

/// Functional-element id within a communication graph.
using ElementId = graph::NodeId;

/// Task-graph node (operation) id.
using OpId = graph::NodeId;

/// The communication graph G = (V, E, W_V), plus the per-element
/// pipelinability flag Theorem 3 relies on (whether the element can be
/// decomposed into a chain of unit-time sub-functions).
class CommGraph {
 public:
  /// Adds a functional element. Weight is its worst-case computation
  /// time in slots (>= 1). Names must be unique and non-empty.
  ElementId add_element(std::string name, Time weight = 1, bool pipelinable = true);

  /// Adds a communication path u -> v. Returns false if already present.
  bool add_channel(ElementId u, ElementId v);

  [[nodiscard]] std::size_t size() const { return g_.node_count(); }
  [[nodiscard]] bool has_element(ElementId e) const { return g_.has_node(e); }
  [[nodiscard]] bool has_channel(ElementId u, ElementId v) const {
    return g_.has_edge(u, v);
  }
  [[nodiscard]] Time weight(ElementId e) const { return g_.weight(e); }
  [[nodiscard]] const std::string& name(ElementId e) const { return g_.name(e); }
  [[nodiscard]] bool pipelinable(ElementId e) const { return pipelinable_.at(e); }
  [[nodiscard]] std::optional<ElementId> find(std::string_view name) const {
    return g_.find(name);
  }
  /// Underlying digraph view (for algorithms and DOT export).
  [[nodiscard]] const graph::Digraph& digraph() const { return g_; }

  /// Names of all elements indexed by id (for trace rendering).
  [[nodiscard]] std::vector<std::string> element_names() const;

 private:
  graph::Digraph g_;
  std::vector<bool> pipelinable_;
};

/// A task graph C: acyclic digraph whose nodes (operations) are
/// labelled with functional elements of some communication graph, and
/// whose edges denote data transmission / precedence.
class TaskGraph {
 public:
  /// Adds an operation executing functional element `e`.
  OpId add_op(ElementId e);

  /// Adds a precedence/transmission edge between two operations.
  /// Returns false if already present.
  bool add_dep(OpId u, OpId v);

  [[nodiscard]] std::size_t size() const { return skel_.node_count(); }
  [[nodiscard]] bool empty() const { return skel_.empty(); }
  [[nodiscard]] ElementId label(OpId op) const { return labels_.at(op); }
  [[nodiscard]] const std::vector<ElementId>& labels() const { return labels_; }
  [[nodiscard]] const graph::Digraph& skeleton() const { return skel_; }

  /// Total computation time: Σ weight(label(op)).
  [[nodiscard]] Time computation_time(const CommGraph& g) const;

  /// Validation against a communication graph: acyclic, every label a
  /// valid element, every edge a valid channel. Returns human-readable
  /// diagnostics; empty means valid (a homomorphism into G exists).
  [[nodiscard]] std::vector<std::string> validate(const CommGraph& g) const;

  /// If the skeleton is a simple chain (each node <=1 pred / <=1 succ,
  /// connected), returns the ops in chain order; otherwise nullopt.
  /// A single op and the empty graph count as chains.
  [[nodiscard]] std::optional<std::vector<OpId>> as_chain() const;

  /// Ops in a deterministic topological order.
  [[nodiscard]] std::vector<OpId> topological_ops() const;

  /// True iff some element labels two or more ops.
  [[nodiscard]] bool has_repeated_labels() const;

 private:
  graph::Digraph skel_;
  std::vector<ElementId> labels_;
};

/// Periodic vs asynchronous (sporadic) constraint.
enum class ConstraintKind : std::uint8_t { kPeriodic, kAsynchronous };

/// Degradation priority of a constraint. When the adaptive executive
/// sheds load (core/degradation), asynchronous constraints are dropped
/// in increasing criticality order: level 0 is best-effort and goes
/// first, higher levels survive longer. Levels are relative; only the
/// ordering matters.
using Criticality = std::uint32_t;

/// A timing constraint (C, p, d).
struct TimingConstraint {
  std::string name;
  TaskGraph task_graph;
  Time period = 1;    ///< period (periodic) or minimum separation (async)
  Time deadline = 1;  ///< relative deadline d
  ConstraintKind kind = ConstraintKind::kPeriodic;
  Criticality criticality = 1;  ///< shed order under degradation (0 first)

  [[nodiscard]] bool periodic() const { return kind == ConstraintKind::kPeriodic; }
};

/// The full model M = (G, T).
class GraphModel {
 public:
  GraphModel() = default;
  explicit GraphModel(CommGraph g) : comm_(std::move(g)) {}

  [[nodiscard]] CommGraph& comm() { return comm_; }
  [[nodiscard]] const CommGraph& comm() const { return comm_; }

  /// Adds a constraint after validating it against the communication
  /// graph. Throws std::invalid_argument with the diagnostics on
  /// failure. Returns its index.
  std::size_t add_constraint(TimingConstraint c);

  [[nodiscard]] std::size_t constraint_count() const { return constraints_.size(); }
  [[nodiscard]] const TimingConstraint& constraint(std::size_t i) const {
    return constraints_.at(i);
  }
  [[nodiscard]] const std::vector<TimingConstraint>& constraints() const {
    return constraints_;
  }
  [[nodiscard]] std::optional<std::size_t> find_constraint(std::string_view name) const;

  /// Σ_i w_i / d_i over all constraints — the load measure of Theorem 3.
  [[nodiscard]] double deadline_utilization() const;

  /// True iff every constraint satisfies Theorem 3's hypotheses:
  /// Σ w_i/d_i <= 1/2, floor(d_i/2) >= w_i, and every element reachable
  /// from a task graph is pipelinable.
  [[nodiscard]] bool satisfies_theorem3() const;

  /// Elements used by two or more constraints (candidates for monitors
  /// in process-based synthesis and for sharing in latency scheduling).
  [[nodiscard]] std::vector<ElementId> shared_elements() const;

 private:
  CommGraph comm_;
  std::vector<TimingConstraint> constraints_;
};

/// Builds the paper's Figure 1 / Figure 2 control-system example:
/// elements f_x, f_y, f_z, f_s, f_k with channels
/// f_x->f_s, f_y->f_s, f_z->f_s, f_s->f_k, f_k->f_s; constraints
///   X: periodic (f_x -> f_s -> f_k), period p_x, deadline d_x
///   Y: periodic (f_y -> f_s -> f_k), period p_y, deadline d_y
///   Z: asynchronous (f_z -> f_s), separation p_z, deadline d_z.
struct ControlSystemParams {
  Time cx = 1, cy = 1, cz = 1, cs = 2, ck = 1;  ///< element weights
  Time px = 20, dx = 20;
  Time py = 40, dy = 40;
  Time pz = 50, dz = 25;
};
[[nodiscard]] GraphModel make_control_system(const ControlSystemParams& params = {});

}  // namespace rtg::core
