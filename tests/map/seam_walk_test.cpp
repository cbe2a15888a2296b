// The seam walk: the indexed seam check completes only the windows no
// earlier completion dominates, over the narrowed candidate set (0 and
// every op start + 1), and
// must agree with the flat reference (full candidate set, no jumps) and
// with a brute force over every window of the cycle on small random
// deployments — multi-slot transfers, links with gaps and different
// cycles, repeated labels, missing messages. Plus the counters at every
// thread count on the two heaviest mapped-corpus deployments, and a
// cancel raised while a walk runs.
#include "map/verify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "gen/generator.hpp"
#include "map/deploy.hpp"
#include "sim/rng.hpp"

namespace rtg::map {
namespace {

struct TinyDeployment {
  std::vector<core::StaticSchedule> schedules;
  std::vector<ProcId> assignment;
  CommSchedule comm;
  std::vector<core::TaskGraph> graphs;
};

// 2-3 processors, 3-5 elements with 1-2 executions each and random idle
// gaps, two task graphs of 1-4 ops over random labels (repeats allowed),
// one message per crossing channel (rarely none) on one of two links,
// slot runs of 1-3 slots with gaps, so link cycles differ and the
// narrowed candidate set is smaller than the full one.
TinyDeployment make_tiny(std::uint64_t seed) {
  sim::Rng rng(seed);
  TinyDeployment d;
  const auto m = static_cast<std::size_t>(rng.uniform(2, 3));
  const auto n_elems = static_cast<std::size_t>(rng.uniform(3, 5));
  for (std::size_t e = 0; e < n_elems; ++e) {
    d.assignment.push_back(static_cast<ProcId>(rng.uniform(0, static_cast<Time>(m) - 1)));
  }
  d.schedules.resize(m);
  for (std::size_t p = 0; p < m; ++p) {
    std::vector<std::pair<ElementId, Time>> runs;
    for (ElementId e = 0; e < n_elems; ++e) {
      if (d.assignment[e] != p) continue;
      const Time weight = rng.uniform(1, 3);
      const std::int64_t copies = rng.uniform(1, 2);
      for (std::int64_t c = 0; c < copies; ++c) runs.emplace_back(e, weight);
    }
    std::shuffle(runs.begin(), runs.end(), rng);
    for (const auto& [e, w] : runs) {
      const Time gap = rng.uniform(0, 3);
      if (gap > 0) d.schedules[p].push_idle(gap);
      d.schedules[p].push_execution(e, w);
    }
    if (d.schedules[p].length() == 0) d.schedules[p].push_idle(rng.uniform(1, 2));
  }

  for (int g = 0; g < 2; ++g) {
    core::TaskGraph tg;
    const std::int64_t ops = rng.uniform(1, 4);
    for (std::int64_t i = 0; i < ops; ++i) {
      tg.add_op(static_cast<ElementId>(rng.uniform(0, static_cast<Time>(n_elems) - 1)));
    }
    for (core::OpId u = 0; u < tg.size(); ++u) {
      for (core::OpId v = u + 1; v < tg.size(); ++v) {
        if (rng.chance(0.5)) tg.add_dep(u, v);
      }
    }
    d.graphs.push_back(std::move(tg));
  }

  // One message per crossing channel the task graphs use, in (from, to)
  // order, each on one of two links.
  std::vector<std::pair<ElementId, ElementId>> channels;
  for (const core::TaskGraph& tg : d.graphs) {
    for (const graph::Edge& e : tg.skeleton().edges()) {
      const ElementId u = tg.label(e.from);
      const ElementId v = tg.label(e.to);
      if (d.assignment[u] != d.assignment[v]) channels.emplace_back(u, v);
    }
  }
  std::sort(channels.begin(), channels.end());
  channels.erase(std::unique(channels.begin(), channels.end()), channels.end());
  d.comm.links.resize(2);
  for (std::size_t l = 0; l < 2; ++l) d.comm.links[l].link = l;
  std::vector<Time> link_end(2, 0);
  for (const auto& [u, v] : channels) {
    if (rng.chance(0.03)) continue;  // an unserved crossing: infinite
    Message msg;
    msg.from = u;
    msg.to = v;
    msg.src = d.assignment[u];
    msg.dst = d.assignment[v];
    msg.link = static_cast<std::size_t>(rng.uniform(0, 1));
    msg.slots = rng.uniform(1, 3);
    LinkSchedule& table = d.comm.links[msg.link];
    const Time offset = link_end[msg.link] + rng.uniform(0, 2);
    d.comm.slot_of.emplace_back(msg.link, table.slots.size());
    table.slots.push_back(SlotAssignment{d.comm.messages.size(), offset, msg.slots});
    link_end[msg.link] = offset + msg.slots;
    d.comm.messages.push_back(msg);
  }
  for (std::size_t l = 0; l < 2; ++l) {
    d.comm.links[l].cycle = std::max<Time>(1, link_end[l] + rng.uniform(0, 2));
  }
  return d;
}

// Independent of the seam code: the greedy completion at every window
// start of [0, cycle), with linear scans over hand-unrolled executions
// (the same (2n + 2)-cycle horizon) and slot-run starts found by
// stepping one slot at a time.
struct Brute {
  std::optional<Time> latency;
  Time worst_window = 0;
};

Brute brute_force(const TinyDeployment& d, const core::TaskGraph& tg, Time cycle) {
  const Time horizon = static_cast<Time>(2 * tg.size() + 2) * cycle;
  std::vector<std::vector<core::ScheduledOp>> unrolled(d.schedules.size());
  for (std::size_t p = 0; p < d.schedules.size(); ++p) {
    const Time len = d.schedules[p].length();
    const std::vector<core::ScheduledOp> base = d.schedules[p].ops();
    for (Time r = 0; r <= horizon / len; ++r) {
      for (const core::ScheduledOp& op : base) {
        unrolled[p].push_back({op.elem, op.start + r * len, op.duration});
      }
    }
  }
  Brute out;
  Time worst = -1;
  for (Time t = 0; t < cycle; ++t) {
    std::vector<Time> finish(tg.size(), 0);
    Time makespan = t;
    for (core::OpId v : tg.topological_ops()) {
      const ElementId ev = tg.label(v);
      const ProcId pv = d.assignment[ev];
      Time ready = t;
      for (core::OpId u : tg.skeleton().predecessors(v)) {
        const ElementId eu = tg.label(u);
        if (d.assignment[eu] == pv) {
          ready = std::max(ready, finish[u]);
          continue;
        }
        const Message* msg = nullptr;
        std::size_t mi = 0;
        for (; mi < d.comm.messages.size(); ++mi) {
          if (d.comm.messages[mi].from == eu && d.comm.messages[mi].to == ev) {
            msg = &d.comm.messages[mi];
            break;
          }
        }
        if (!msg) return Brute{};
        const LinkSchedule& table = d.comm.links[msg->link];
        const SlotAssignment& slot = table.slots[d.comm.slot_of[mi].second];
        Time send = std::max(finish[u], t);
        while (send % table.cycle != slot.offset) ++send;
        ready = std::max(ready, send + slot.duration);
      }
      const core::ScheduledOp* placed = nullptr;
      for (const core::ScheduledOp& op : unrolled[pv]) {
        if (op.elem == ev && op.start >= ready) {
          placed = &op;
          break;
        }
      }
      if (!placed) return Brute{};
      finish[v] = placed->finish();
      makespan = std::max(makespan, finish[v]);
    }
    if (makespan - t > worst) {
      worst = makespan - t;
      out.worst_window = t;
    }
  }
  out.latency = worst;
  return out;
}

TEST(SeamWalk, MatchesFlatReferenceAndBruteForceOnTinyDeployments) {
  constexpr std::uint64_t kDeployments = 400;
  std::size_t finite = 0;
  std::size_t infinite = 0;
  std::size_t narrowed = 0;  // indexed list strictly smaller than the full one
  std::size_t skipped = 0;   // the walk jumped over some candidate
  for (std::uint64_t seed = 0; seed < kDeployments; ++seed) {
    const TinyDeployment d = make_tiny(seed);
    std::size_t max_ops = 0;
    for (const core::TaskGraph& tg : d.graphs) max_ops = std::max(max_ops, tg.size());
    const SeamContext indexed(d.schedules, d.assignment, d.comm, max_ops);
    const SeamContext flat(d.schedules, d.assignment, d.comm, max_ops, true);
    ASSERT_EQ(indexed.cycle(), flat.cycle()) << "seed " << seed;
    ASSERT_TRUE(std::includes(flat.candidates().begin(), flat.candidates().end(),
                              indexed.candidates().begin(), indexed.candidates().end()))
        << "seed " << seed;
    if (indexed.candidates().size() < flat.candidates().size()) ++narrowed;

    for (std::size_t g = 0; g < d.graphs.size(); ++g) {
      const core::TaskGraph& tg = d.graphs[g];
      GlobalWitness w_indexed;
      GlobalWitness w_flat;
      SeamStats s_indexed;
      SeamStats s_flat;
      SeamOptions o_indexed;
      o_indexed.witness = &w_indexed;
      o_indexed.stats = &s_indexed;
      SeamOptions o_flat;
      o_flat.flat_reference = true;
      o_flat.witness = &w_flat;
      o_flat.stats = &s_flat;
      const auto l_indexed = indexed.latency(tg, o_indexed);
      const auto l_flat = flat.latency(tg, o_flat);
      const Brute brute = brute_force(d, tg, indexed.cycle());

      ASSERT_EQ(l_indexed, l_flat) << "seed " << seed << " graph " << g;
      ASSERT_EQ(l_indexed, brute.latency) << "seed " << seed << " graph " << g;
      EXPECT_EQ(distributed_latency(tg, d.schedules, d.assignment, d.comm), l_indexed)
          << "seed " << seed << " graph " << g;
      EXPECT_LE(s_indexed.windows, s_indexed.candidates) << "seed " << seed;
      if (!l_indexed) {
        ++infinite;
        continue;
      }
      ++finite;
      if (s_indexed.windows < s_indexed.candidates) ++skipped;
      EXPECT_EQ(s_flat.windows, s_flat.candidates) << "seed " << seed;
      EXPECT_EQ(w_indexed, w_flat) << "seed " << seed << " graph " << g;
      EXPECT_EQ(w_indexed.window_begin, brute.worst_window) << "seed " << seed;
      EXPECT_EQ(w_indexed.makespan - w_indexed.window_begin, *l_indexed);
      const auto flaw = check_witness(tg, d.schedules, d.assignment, d.comm, w_indexed);
      EXPECT_EQ(flaw, std::nullopt) << "seed " << seed << ": " << *flaw;
    }
  }
  // The sweep must exercise every branch, not just one.
  EXPECT_GE(finite, kDeployments);
  EXPECT_GE(infinite, 10u);
  EXPECT_GE(narrowed, kDeployments / 4);
  EXPECT_GE(skipped, kDeployments / 4);
}

// Deploys mapped-corpus index `idx` at the given seam thread count.
Deployment deploy_mapped(std::uint64_t idx, std::size_t threads) {
  const gen::Scenario scenario = gen::generate(gen::mapped_corpus_options(idx));
  DeployOptions options;
  options.seam_threads = threads;
  return deploy(scenario.model, *scenario.hardware, options);
}

TEST(SeamWalk, CountersAreTheSameAtEveryThreadCount) {
  // Indices 5 and 2 have the longest seam walks of the fault_heal
  // scenarios: many chunks per constraint.
  for (const std::uint64_t idx : {5u, 2u}) {
    const Deployment serial = deploy_mapped(idx, 1);
    ASSERT_TRUE(serial.success) << "index " << idx << ": " << serial.failure_reason;
    EXPECT_GT(serial.seam_stats.candidates, 2 * 2048u) << "index " << idx;
    EXPECT_LT(serial.seam_stats.windows, serial.seam_stats.candidates);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      const Deployment d = deploy_mapped(idx, threads);
      ASSERT_TRUE(d.success) << "index " << idx << " threads " << threads;
      EXPECT_EQ(d.seam_stats.candidates, serial.seam_stats.candidates)
          << "index " << idx << " threads " << threads;
      EXPECT_EQ(d.seam_stats.windows, serial.seam_stats.windows)
          << "index " << idx << " threads " << threads;
      EXPECT_EQ(d.seam_stats.index_seeks, serial.seam_stats.index_seeks)
          << "index " << idx << " threads " << threads;
      EXPECT_GT(d.seam_stats.threads_used, 1u) << "index " << idx;
      EXPECT_EQ(d.end_to_end, serial.end_to_end) << "index " << idx;
      EXPECT_EQ(d.witnesses, serial.witnesses) << "index " << idx;
    }
  }
}

TEST(SeamWalk, CancelRaisedMidWalkReportsCancelled) {
  const gen::Scenario scenario = gen::generate(gen::mapped_corpus_options(5));
  const Deployment d = deploy(scenario.model, *scenario.hardware);
  ASSERT_TRUE(d.success) << d.failure_reason;
  // The constraint with the longest walk.
  const auto& constraints = d.scheduled_model.constraints();
  std::size_t max_ops = 0;
  for (const core::TimingConstraint& c : constraints) {
    max_ops = std::max(max_ops, c.task_graph.size());
  }
  const SeamContext context(d.processor_schedules, d.mapping.assignment, d.comm, max_ops);
  std::size_t longest = 0;
  std::size_t longest_windows = 0;
  std::optional<Time> longest_latency;
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    SeamStats stats;
    SeamOptions options;
    options.stats = &stats;
    const auto latency = context.latency(constraints[c].task_graph, options);
    ASSERT_TRUE(latency.has_value());
    if (stats.windows > longest_windows) {
      longest = c;
      longest_windows = stats.windows;
      longest_latency = latency;
    }
  }
  ASSERT_GT(longest_windows, 1000u);
  const core::TaskGraph& tg = constraints[longest].task_graph;

  for (const std::size_t threads : {1u, 4u}) {
    // Raised before the walk: nothing is completed.
    {
      const std::atomic<bool> cancel{true};
      bool cancelled = false;
      SeamStats stats;
      SeamOptions options;
      options.n_threads = threads;
      options.cancel = &cancel;
      options.cancelled = &cancelled;
      options.stats = &stats;
      EXPECT_EQ(context.latency(tg, options), std::nullopt);
      EXPECT_TRUE(cancelled) << "threads " << threads;
      EXPECT_EQ(stats.windows, 0u) << "threads " << threads;
    }
    // Raised by another thread once the walk has started. Where it
    // lands is up to the OS scheduler, so the walk is repeated until one
    // is cut short. Any cancel seen before the walk returns makes the
    // result unknown; one that lands after it leaves the result intact.
    bool cut_short = false;
    for (int attempt = 0; attempt < 50 && !cut_short; ++attempt) {
      std::atomic<bool> cancel{false};
      std::atomic<std::uint64_t> progress{0};
      std::atomic<bool> returned{false};
      bool cancelled = false;
      SeamStats stats;
      SeamOptions options;
      options.n_threads = threads;
      options.cancel = &cancel;
      options.progress = &progress;
      options.cancelled = &cancelled;
      options.stats = &stats;
      std::thread raiser([&] {
        while (progress.load() == 0 && !returned.load()) std::this_thread::yield();
        cancel.store(true);
      });
      const auto latency = context.latency(tg, options);
      returned.store(true);
      raiser.join();
      if (cancelled) {
        cut_short = stats.windows < longest_windows;
        EXPECT_EQ(latency, std::nullopt) << "threads " << threads;
        EXPECT_LE(stats.windows, longest_windows) << "threads " << threads;
      } else {
        EXPECT_EQ(latency, longest_latency) << "threads " << threads;
        EXPECT_EQ(stats.windows, longest_windows) << "threads " << threads;
      }
    }
    EXPECT_TRUE(cut_short) << "threads " << threads;
  }
}

}  // namespace
}  // namespace rtg::map
