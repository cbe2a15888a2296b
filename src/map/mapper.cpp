#include "map/mapper.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

#include "graph/digraph.hpp"
#include "sim/rng.hpp"

namespace rtg::map {

namespace {

// Undirected adjacency (deduplicated) over the comm graph's channels.
std::vector<std::vector<ElementId>> undirected_adjacency(const core::CommGraph& comm) {
  const std::size_t n = comm.size();
  std::vector<std::vector<ElementId>> adj(n);
  for (ElementId e = 0; e < n; ++e) {
    std::set<ElementId> nbrs;
    for (ElementId u : comm.digraph().predecessors(e)) nbrs.insert(u);
    for (ElementId u : comm.digraph().successors(e)) nbrs.insert(u);
    nbrs.erase(e);
    adj[e].assign(nbrs.begin(), nbrs.end());
  }
  return adj;
}

// Distinct channels used by any constraint edge, (from, to) order.
std::set<std::pair<ElementId, ElementId>> constraint_channels(
    const core::GraphModel& model) {
  std::set<std::pair<ElementId, ElementId>> channels;
  for (const core::TimingConstraint& c : model.constraints()) {
    for (const graph::Edge& e : c.task_graph.skeleton().edges()) {
      const ElementId u = c.task_graph.label(e.from);
      const ElementId v = c.task_graph.label(e.to);
      if (u != v) channels.insert({u, v});
    }
  }
  return channels;
}

Time message_size(const core::GraphModel& model, const Platform& platform,
                  ElementId producer) {
  return platform.fixed_message_size > 0 ? platform.fixed_message_size
                                         : model.comm().weight(producer);
}

// GreedyMapper's kRoundRobin / kLpt / kCommunication policies: one pass
// over the bare comm graph, with no platform routing and no constraints.
std::vector<ProcId> partition_pass(const core::CommGraph& comm, std::size_t m,
                                   GreedyMapper::Policy policy) {
  const std::size_t n = comm.size();
  std::vector<ProcId> assignment(n, 0);
  if (m == 1) return assignment;

  switch (policy) {
    case GreedyMapper::Policy::kRoundRobin: {
      for (ElementId e = 0; e < n; ++e) assignment[e] = e % m;
      break;
    }
    case GreedyMapper::Policy::kLpt:
    case GreedyMapper::Policy::kLatencyDensity: {
      std::vector<ElementId> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](ElementId a, ElementId b) {
        return comm.weight(a) > comm.weight(b);
      });
      std::vector<Time> load(m, 0);
      for (ElementId e : order) {
        const std::size_t target = static_cast<std::size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        assignment[e] = target;
        load[target] += comm.weight(e);
      }
      break;
    }
    case GreedyMapper::Policy::kCommunication: {
      // Greedy in id order: prefer the processor hosting most of the
      // element's neighbours, unless it is overloaded past the average.
      std::vector<Time> load(m, 0);
      const Time total = comm.digraph().total_weight();
      const Time cap = (total + static_cast<Time>(m) - 1) / static_cast<Time>(m) +
                       1;  // soft per-processor cap
      for (ElementId e = 0; e < n; ++e) {
        std::vector<std::size_t> affinity(m, 0);
        for (ElementId u : comm.digraph().predecessors(e)) {
          if (u < e) ++affinity[assignment[u]];
        }
        for (ElementId u : comm.digraph().successors(e)) {
          if (u < e) ++affinity[assignment[u]];
        }
        std::size_t best = 0;
        bool chosen = false;
        for (std::size_t p = 0; p < m; ++p) {
          if (load[p] + comm.weight(e) > cap) continue;
          if (!chosen || affinity[p] > affinity[best] ||
              (affinity[p] == affinity[best] && load[p] < load[best])) {
            best = p;
            chosen = true;
          }
        }
        if (!chosen) {
          best = static_cast<std::size_t>(
              std::min_element(load.begin(), load.end()) - load.begin());
        }
        assignment[e] = best;
        load[best] += comm.weight(e);
      }
      break;
    }
  }
  return assignment;
}

}  // namespace

Mapping GreedyMapper::assign(const core::GraphModel& model,
                             const Platform& platform) const {
  const core::CommGraph& comm = model.comm();
  const std::size_t m = std::max<std::size_t>(platform.processors(), 1);
  Mapping mapping;
  mapping.mapper = name();

  if (policy_ != Policy::kLatencyDensity) {
    mapping.assignment = partition_pass(comm, m, policy_);
    return mapping;
  }

  const std::size_t n = comm.size();
  mapping.assignment.assign(n, 0);
  if (m == 1 || n == 0) return mapping;

  // Latency density: an element that appears in tight constraints and
  // carries weight is urgent — place it while processors are empty.
  std::vector<double> density(n, 0.0);
  for (const core::TimingConstraint& c : model.constraints()) {
    std::set<ElementId> labels(c.task_graph.labels().begin(),
                               c.task_graph.labels().end());
    for (ElementId e : labels) {
      density[e] += static_cast<double>(comm.weight(e)) /
                    static_cast<double>(std::max<Time>(c.deadline, 1));
    }
  }
  std::vector<ElementId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](ElementId a, ElementId b) {
    if (density[a] != density[b]) return density[a] > density[b];
    return comm.weight(a) > comm.weight(b);
  });

  std::vector<bool> placed(n, false);
  std::vector<Time> load(m, 0);
  for (ElementId e : order) {
    double best_cost = 0.0;
    std::size_t best = static_cast<std::size_t>(-1);
    for (std::size_t p = 0; p < m; ++p) {
      // Transfer cost of channels to already-placed neighbours, and a
      // hard skip when a channel would have no serving link.
      double comm_cost = 0.0;
      bool routable = true;
      auto channel_cost = [&](ElementId producer, ProcId src, ProcId dst) {
        if (src == dst) return;
        const auto link = platform.route(src, dst);
        if (!link) {
          routable = false;
          return;
        }
        comm_cost += static_cast<double>(
            platform.transfer_slots(*link, message_size(model, platform, producer)));
      };
      for (ElementId u : comm.digraph().predecessors(e)) {
        if (placed[u]) channel_cost(u, mapping.assignment[u], p);
      }
      for (ElementId u : comm.digraph().successors(e)) {
        if (placed[u]) channel_cost(e, p, mapping.assignment[u]);
      }
      if (!routable) continue;
      const double cost =
          static_cast<double>(load[p] + comm.weight(e)) + 2.0 * comm_cost;
      if (best == static_cast<std::size_t>(-1) || cost < best_cost) {
        best = p;
        best_cost = cost;
      }
    }
    if (best == static_cast<std::size_t>(-1)) {
      best = static_cast<std::size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
    }
    mapping.assignment[e] = best;
    placed[e] = true;
    load[best] += comm.weight(e);
  }
  return mapping;
}

std::string GreedyMapper::name() const {
  switch (policy_) {
    case Policy::kRoundRobin: return "greedy:roundrobin";
    case Policy::kLpt: return "greedy:lpt";
    case Policy::kCommunication: return "greedy:comm";
    case Policy::kLatencyDensity: return "greedy";
  }
  return "greedy";
}

double SimulatedAnnealingMapper::energy(const core::GraphModel& model,
                                        const Platform& platform,
                                        const std::vector<ProcId>& assignment) {
  const core::CommGraph& comm = model.comm();
  const std::size_t m = std::max<std::size_t>(platform.processors(), 1);

  // Cross-channel routing + transfer slots (distinct channels, like the
  // communication scheduler will see them).
  double miss = 0.0;
  double slots = 0.0;
  std::set<std::pair<ElementId, ElementId>> crossing;
  for (const auto& [u, v] : constraint_channels(model)) {
    if (assignment[u] == assignment[v]) continue;
    crossing.insert({u, v});
    const auto link = platform.route(assignment[u], assignment[v]);
    if (!link) {
      miss += 1.0;
      continue;
    }
    slots += static_cast<double>(
        platform.transfer_slots(*link, message_size(model, platform, u)));
  }

  // Deadline pressure: a constraint needs roughly twice its work for
  // the per-processor async servers plus its message budget; count how
  // far past the deadline that estimate runs.
  double overage = 0.0;
  for (const core::TimingConstraint& c : model.constraints()) {
    Time work = 0;
    std::set<ElementId> labels(c.task_graph.labels().begin(),
                               c.task_graph.labels().end());
    for (ElementId e : labels) work += comm.weight(e);
    Time msg_budget = 0;
    for (const graph::Edge& e : c.task_graph.skeleton().edges()) {
      const ElementId u = c.task_graph.label(e.from);
      const ElementId v = c.task_graph.label(e.to);
      if (assignment[u] == assignment[v]) continue;
      const auto link = platform.route(assignment[u], assignment[v]);
      if (!link) continue;  // already charged as a route miss
      msg_budget += platform.transfer_slots(*link, message_size(model, platform, u));
    }
    const Time estimate = 2 * work + msg_budget;
    if (estimate > c.deadline) overage += static_cast<double>(estimate - c.deadline);
  }

  std::vector<Time> load(m, 0);
  for (ElementId e = 0; e < comm.size(); ++e) load[assignment[e]] += comm.weight(e);
  const Time peak = load.empty() ? 0 : *std::max_element(load.begin(), load.end());

  return 1.0e6 * miss + 50.0 * overage + 4.0 * static_cast<double>(peak) +
         2.0 * slots;
}

Mapping SimulatedAnnealingMapper::assign(const core::GraphModel& model,
                                         const Platform& platform) const {
  const core::CommGraph& comm = model.comm();
  const std::size_t n = comm.size();
  const std::size_t m = std::max<std::size_t>(platform.processors(), 1);

  Mapping mapping = GreedyMapper().assign(model, platform);
  mapping.mapper = name();
  if (m == 1 || n == 0) return mapping;

  std::vector<ProcId> current = mapping.assignment;
  std::vector<ProcId> best = current;
  double current_e = energy(model, platform, current);
  double best_e = current_e;

  sim::Rng rng(options_.seed);
  double temperature = options_.initial_temperature;

  for (std::size_t iter = 0; iter < options_.iterations; ++iter) {
    std::vector<ProcId> candidate = current;
    const std::int64_t kind = rng.uniform(0, 2);
    if (kind == 0) {
      // Migrate one element to a different processor.
      const auto e = static_cast<ElementId>(rng.uniform(0, static_cast<std::int64_t>(n) - 1));
      auto p = static_cast<ProcId>(rng.uniform(0, static_cast<std::int64_t>(m) - 2));
      if (p >= candidate[e]) ++p;  // skip the current processor
      candidate[e] = p;
    } else if (kind == 1) {
      // Swap a pair of elements across processors.
      const auto a = static_cast<ElementId>(rng.uniform(0, static_cast<std::int64_t>(n) - 1));
      const auto b = static_cast<ElementId>(rng.uniform(0, static_cast<std::int64_t>(n) - 1));
      std::swap(candidate[a], candidate[b]);
    } else {
      // Rebalance a chain: migrate a maximal out-degree<=1 run starting
      // at a random element, keeping pipelines together.
      auto e = static_cast<ElementId>(rng.uniform(0, static_cast<std::int64_t>(n) - 1));
      const auto p = static_cast<ProcId>(rng.uniform(0, static_cast<std::int64_t>(m) - 1));
      std::size_t hops = 0;
      while (hops++ < n) {
        candidate[e] = p;
        const auto& succs = comm.digraph().successors(e);
        if (succs.size() != 1 || comm.digraph().in_degree(succs[0]) > 1) break;
        e = succs[0];
      }
    }
    const double cand_e = energy(model, platform, candidate);
    const double delta = cand_e - current_e;
    if (delta <= 0.0 || rng.uniform01() < std::exp(-delta / std::max(temperature, 1e-9))) {
      current = std::move(candidate);
      current_e = cand_e;
      if (current_e < best_e) {
        best = current;
        best_e = current_e;
      }
    }
    temperature *= options_.cooling;
  }

  mapping.assignment = std::move(best);
  return mapping;
}

std::vector<ElementId> SeriesParallelDecompositionMapper::articulation_points(
    const core::CommGraph& comm) {
  const std::size_t n = comm.size();
  const auto adj = undirected_adjacency(comm);
  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<bool> cut(n, false);
  int timer = 0;

  // Iterative DFS: each frame tracks the next neighbour to visit.
  struct Frame {
    ElementId v;
    ElementId parent;
    std::size_t next = 0;
    std::size_t children = 0;
  };
  for (ElementId root = 0; root < n; ++root) {
    if (disc[root] != -1) continue;
    std::vector<Frame> stack;
    stack.push_back({root, static_cast<ElementId>(-1)});
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next < adj[f.v].size()) {
        const ElementId u = adj[f.v][f.next++];
        if (u == f.parent) continue;
        if (disc[u] != -1) {
          low[f.v] = std::min(low[f.v], disc[u]);
        } else {
          disc[u] = low[u] = timer++;
          ++f.children;
          stack.push_back({u, f.v});
        }
      } else {
        const Frame done = f;
        stack.pop_back();
        if (!stack.empty()) {
          Frame& up = stack.back();
          low[up.v] = std::min(low[up.v], low[done.v]);
          if (up.parent != static_cast<ElementId>(-1) && low[done.v] >= disc[up.v]) {
            cut[up.v] = true;
          }
        }
        if (done.v == root && done.children >= 2) cut[root] = true;
      }
    }
  }

  std::vector<ElementId> points;
  for (ElementId e = 0; e < n; ++e) {
    if (cut[e]) points.push_back(e);
  }
  return points;
}

Mapping SeriesParallelDecompositionMapper::assign(const core::GraphModel& model,
                                                  const Platform& platform) const {
  const core::CommGraph& comm = model.comm();
  const std::size_t n = comm.size();
  const std::size_t m = std::max<std::size_t>(platform.processors(), 1);
  Mapping mapping;
  mapping.mapper = name();
  mapping.assignment.assign(n, 0);
  if (m == 1 || n == 0) return mapping;

  const auto adj = undirected_adjacency(comm);
  const auto cuts = articulation_points(comm);
  std::vector<bool> is_cut(n, false);
  for (ElementId e : cuts) is_cut[e] = true;

  // Fragments: connected components of the comm graph with the cut
  // vertices removed — the series-parallel pieces between seams.
  std::vector<int> fragment(n, -1);
  std::vector<Time> frag_weight;
  for (ElementId s = 0; s < n; ++s) {
    if (is_cut[s] || fragment[s] != -1) continue;
    const int id = static_cast<int>(frag_weight.size());
    frag_weight.push_back(0);
    std::vector<ElementId> queue{s};
    fragment[s] = id;
    while (!queue.empty()) {
      const ElementId v = queue.back();
      queue.pop_back();
      frag_weight[id] += comm.weight(v);
      for (ElementId u : adj[v]) {
        if (is_cut[u] || fragment[u] != -1) continue;
        fragment[u] = id;
        queue.push_back(u);
      }
    }
  }

  // LPT over fragments: heaviest fragment onto the least-loaded
  // processor, keeping each piece whole.
  std::vector<int> frag_order(frag_weight.size());
  std::iota(frag_order.begin(), frag_order.end(), 0);
  std::stable_sort(frag_order.begin(), frag_order.end(), [&](int a, int b) {
    return frag_weight[a] > frag_weight[b];
  });
  std::vector<Time> load(m, 0);
  std::vector<ProcId> frag_proc(frag_weight.size(), 0);
  for (int f : frag_order) {
    const auto target = static_cast<ProcId>(
        std::min_element(load.begin(), load.end()) - load.begin());
    frag_proc[f] = target;
    load[target] += frag_weight[f];
  }
  for (ElementId e = 0; e < n; ++e) {
    if (fragment[e] != -1) mapping.assignment[e] = frag_proc[fragment[e]];
  }

  // Attach the cut vertices where most of their neighbours live;
  // load-balance breaks ties.
  for (ElementId e : cuts) {
    std::vector<std::size_t> affinity(m, 0);
    for (ElementId u : adj[e]) {
      if (!is_cut[u] || u < e) ++affinity[mapping.assignment[u]];
    }
    ProcId best = 0;
    for (ProcId p = 1; p < m; ++p) {
      if (affinity[p] > affinity[best] ||
          (affinity[p] == affinity[best] && load[p] < load[best])) {
        best = p;
      }
    }
    mapping.assignment[e] = best;
    load[best] += comm.weight(e);
  }
  return mapping;
}

std::unique_ptr<Mapper> make_mapper(std::string_view name, std::uint64_t seed) {
  if (name == "greedy") return std::make_unique<GreedyMapper>();
  if (name == "roundrobin") {
    return std::make_unique<GreedyMapper>(GreedyMapper::Policy::kRoundRobin);
  }
  if (name == "lpt") return std::make_unique<GreedyMapper>(GreedyMapper::Policy::kLpt);
  if (name == "comm") {
    return std::make_unique<GreedyMapper>(GreedyMapper::Policy::kCommunication);
  }
  if (name == "sa") {
    AnnealOptions options;
    options.seed = seed;
    return std::make_unique<SimulatedAnnealingMapper>(options);
  }
  if (name == "spd") return std::make_unique<SeriesParallelDecompositionMapper>();
  return nullptr;
}

}  // namespace rtg::map
