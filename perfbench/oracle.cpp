// oracle.cpp — see oracle.hpp. Deliberately plain: linear setup, binary
// search per op, no caching, no threads.
#include "oracle.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace perfbench::oracle {
namespace {

// Kahn's algorithm; throws on a cycle (a task graph must be acyclic).
std::vector<std::uint32_t> topo_order(const TaskGraph& tg) {
  const std::size_t n = tg.labels.size();
  std::vector<std::size_t> indeg(n, 0);
  std::vector<std::vector<std::uint32_t>> succ(n);
  for (const auto& [u, v] : tg.edges) {
    succ.at(u).push_back(v);
    ++indeg.at(v);
  }
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> ready;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    const std::uint32_t v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (std::uint32_t w : succ[v]) {
      if (--indeg[w] == 0) ready.push_back(w);
    }
  }
  if (order.size() != n) throw std::invalid_argument("oracle: cyclic task graph");
  return order;
}

std::vector<std::vector<std::uint32_t>> predecessors(const TaskGraph& tg) {
  std::vector<std::vector<std::uint32_t>> pred(tg.labels.size());
  for (const auto& [u, v] : tg.edges) pred.at(v).push_back(u);
  return pred;
}

// Per-element executions, sorted by start. For a cyclic schedule the
// starts lie in [0, length); for a finite trace they are absolute.
struct ElementRows {
  std::vector<std::vector<Exec>> rows;

  ElementRows(const std::vector<Exec>& execs, std::size_t elements) : rows(elements) {
    for (const Exec& x : execs) {
      if (x.elem >= rows.size()) rows.resize(x.elem + 1);
      rows[x.elem].push_back(x);
    }
    for (auto& r : rows) {
      std::sort(r.begin(), r.end(),
                [](const Exec& a, const Exec& b) { return a.start < b.start; });
    }
  }

  [[nodiscard]] const std::vector<Exec>* row(std::uint32_t e) const {
    return e < rows.size() && !rows[e].empty() ? &rows[e] : nullptr;
  }
};

std::size_t max_label(const TaskGraph& tg) {
  std::size_t m = 0;
  for (std::uint32_t l : tg.labels) m = std::max<std::size_t>(m, l + 1);
  return m;
}

// First execution in `row` starting at or after `x`, in the cyclic
// extension of a schedule of `length` slots. Returns (start, finish).
std::pair<Time, Time> next_cyclic(const std::vector<Exec>& row, Time length, Time x) {
  const Time cycle = x / length;
  const Time offset = x - cycle * length;
  auto it = std::lower_bound(row.begin(), row.end(), offset,
                             [](const Exec& a, Time v) { return a.start < v; });
  Time base = cycle * length;
  if (it == row.end()) {
    it = row.begin();
    base += length;
  }
  return {base + it->start, base + it->start + it->duration};
}

// Greedy earliest-finish embedding (FORMALISM §2) with a pluggable
// "next execution at or after x" probe; nullopt when a probe fails.
template <typename Next>
std::optional<Time> greedy_finish(const TaskGraph& tg,
                                  const std::vector<std::uint32_t>& order,
                                  const std::vector<std::vector<std::uint32_t>>& pred,
                                  Time t, Next&& next) {
  std::vector<Time> finish(tg.labels.size(), 0);
  Time makespan = t;
  for (std::uint32_t v : order) {
    Time ready = t;
    for (std::uint32_t u : pred[v]) ready = std::max(ready, finish[u]);
    const std::optional<Time> f = next(tg.labels[v], ready);
    if (!f) return std::nullopt;
    finish[v] = *f;
    makespan = std::max(makespan, *f);
  }
  return makespan;
}

Time gcd_time(Time a, Time b) { return std::gcd(a, b); }

}  // namespace

bool label_injective(const TaskGraph& tg) {
  std::vector<std::uint32_t> l = tg.labels;
  std::sort(l.begin(), l.end());
  return std::adjacent_find(l.begin(), l.end()) == l.end();
}

std::optional<Time> cyclic_earliest_finish(const TaskGraph& tg, const Schedule& sched,
                                           Time t) {
  if (tg.labels.empty()) return t;
  if (sched.length <= 0) return std::nullopt;
  const ElementRows rows(sched.execs, max_label(tg));
  return greedy_finish(tg, topo_order(tg), predecessors(tg), t,
                       [&](std::uint32_t e, Time x) -> std::optional<Time> {
                         const auto* row = rows.row(e);
                         if (row == nullptr) return std::nullopt;
                         return next_cyclic(*row, sched.length, x).second;
                       });
}

Report check_schedule(const Model& model, const Schedule& sched) {
  Report report;
  const ElementRows rows(sched.execs, model.weight.size());
  for (const Constraint& c : model.constraints) {
    Verdict v;
    if (!label_injective(c.graph)) {
      v.decided = false;
      ++report.undecided;
      report.verdicts.push_back(v);
      continue;
    }
    const auto order = topo_order(c.graph);
    const auto pred = predecessors(c.graph);
    bool missing = sched.length <= 0;
    for (std::uint32_t l : c.graph.labels) missing = missing || rows.row(l) == nullptr;
    auto c_of = [&](Time t) {
      return greedy_finish(c.graph, order, pred, t,
                           [&](std::uint32_t e, Time x) -> std::optional<Time> {
                             return next_cyclic(*rows.row(e), sched.length, x).second;
                           });
    };
    if (c.graph.labels.empty()) {
      v.satisfied = true;
      if (!c.periodic) v.latency = 0;
    } else if (missing) {
      v.satisfied = false;
    } else if (c.periodic) {
      // Invocations at 0, p, 2p, ... repeat after lcm(length, p).
      const Time cycle = sched.length / gcd_time(sched.length, c.period) * c.period;
      v.satisfied = true;
      for (Time t = 0; t < cycle && v.satisfied; t += c.period) {
        v.satisfied = *c_of(t) <= t + c.deadline;
      }
    } else {
      // Every window start of one cycle.
      Time latency = 0;
      for (Time t = 0; t < sched.length; ++t) latency = std::max(latency, *c_of(t) - t);
      v.latency = latency;
      v.satisfied = latency <= c.deadline;
    }
    report.feasible = report.feasible && v.satisfied;
    report.verdicts.push_back(v);
  }
  return report;
}

std::vector<Exec> decode_trace(const std::vector<std::int64_t>& slots,
                               const std::vector<Time>& weight) {
  std::vector<Exec> out;
  std::size_t i = 0;
  while (i < slots.size()) {
    std::size_t j = i;
    while (j < slots.size() && slots[j] == slots[i]) ++j;
    if (slots[i] >= 0) {
      const auto e = static_cast<std::uint32_t>(slots[i]);
      const Time w = weight.at(e);
      const Time run = static_cast<Time>(j - i);
      for (Time k = 0; k + w <= run; k += w) {
        out.push_back(Exec{e, static_cast<Time>(i) + k, w});
      }
    }
    i = j;
  }
  return out;
}

WindowCount finite_windows(const Constraint& c, const std::vector<Exec>& execs,
                           Time horizon) {
  WindowCount out;
  if (!label_injective(c.graph)) {
    out.decided = false;
    return out;
  }
  const Time d = c.deadline;
  const Time stride = c.periodic ? c.period : 1;
  if (c.graph.labels.empty()) {
    for (Time t = 0; t + d <= horizon; t += stride) ++out.windows;
    return out;
  }
  const ElementRows rows(execs, max_label(c.graph));
  const auto order = topo_order(c.graph);
  const auto pred = predecessors(c.graph);
  Time last = -1;
  for (Time t = 0; t + d <= horizon; t += stride) {
    ++out.windows;
    const auto f = greedy_finish(c.graph, order, pred, t,
                                 [&](std::uint32_t e, Time x) -> std::optional<Time> {
                                   const auto* row = rows.row(e);
                                   if (row == nullptr) return std::nullopt;
                                   auto it = std::lower_bound(
                                       row->begin(), row->end(), x,
                                       [](const Exec& a, Time v) { return a.start < v; });
                                   if (it == row->end()) return std::nullopt;
                                   return it->start + it->duration;
                                 });
    if (f && *f <= t + d) continue;
    ++out.violated;
    out.violated_starts.push_back(t);
    if (last < 0 || t != last + stride) ++out.events;
    last = t;
  }
  return out;
}

bool refuted_by_bound(const Model& model) {
  std::vector<long double> rate(model.weight.size(), 0.0L);
  for (const Constraint& c : model.constraints) {
    const TaskGraph& tg = c.graph;
    // Window capacity and critical path (node-weighted longest path).
    Time total = 0;
    std::vector<Time> longest(tg.labels.size(), 0);
    const auto pred = predecessors(tg);
    Time cp = 0;
    for (std::uint32_t v : topo_order(tg)) {
      Time best = 0;
      for (std::uint32_t u : pred[v]) best = std::max(best, longest[u]);
      longest[v] = best + model.weight.at(tg.labels[v]);
      cp = std::max(cp, longest[v]);
      total += model.weight.at(tg.labels[v]);
    }
    if (cp > c.deadline || total > c.deadline) return true;
    // Demand density: each element must run at least cnt/L per slot.
    const Time span = !c.periodic                ? c.deadline
                      : c.deadline <= c.period ? c.period
                                               : c.period + c.deadline;
    std::vector<Time> cnt(model.weight.size(), 0);
    for (std::uint32_t l : tg.labels) ++cnt.at(l);
    for (std::size_t e = 0; e < cnt.size(); ++e) {
      rate[e] = std::max(rate[e], static_cast<long double>(cnt[e]) /
                                      static_cast<long double>(span));
    }
  }
  long double density = 0.0L;
  for (std::size_t e = 0; e < rate.size(); ++e) {
    density += static_cast<long double>(model.weight[e]) * rate[e];
  }
  // Refute only with a clear margin: the check built on this must never
  // flag a schedule because of rounding.
  return density > 1.0L + 1e-9L;
}

bool theorem3_hypotheses(const Model& model) {
  long double load = 0.0L;
  for (const Constraint& c : model.constraints) {
    Time w = 0;
    for (std::uint32_t l : c.graph.labels) {
      w += model.weight.at(l);
      if (model.weight.at(l) > 1 && !model.pipelinable.at(l)) return false;
    }
    if (c.deadline / 2 < w) return false;
    load += static_cast<long double>(w) / static_cast<long double>(c.deadline);
  }
  // Claim the hypotheses only with a margin, for the same reason.
  return load <= 0.5L - 1e-9L;
}

Time server_hyperperiod(const Model& model, Time cap) {
  Time h = 1;
  for (const Constraint& c : model.constraints) {
    const Time p = c.periodic ? c.period : (c.deadline + 1) / 2;
    h = h / gcd_time(h, p) * p;
    if (h > cap) return cap + 1;
  }
  return h;
}

}  // namespace perfbench::oracle
