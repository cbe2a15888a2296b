#include "map/deploy.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "core/pipeline.hpp"

namespace rtg::map {

std::optional<Time> Deployment::min_margin(const core::GraphModel& model) const {
  std::optional<Time> margin;
  const auto& constraints = model.constraints();
  for (std::size_t c = 0; c < constraints.size() && c < end_to_end.size(); ++c) {
    if (!end_to_end[c]) return std::nullopt;
    const Time slack = constraints[c].deadline - *end_to_end[c];
    if (!margin || slack < *margin) margin = slack;
  }
  return margin;
}

Deployment deploy(const core::GraphModel& input, const Platform& platform,
                  const DeployOptions& options) {
  Deployment out;
  out.platform = platform;
  if (platform.processors() == 0) {
    out.failure_reason = "zero processors";
    return out;
  }

  // Pipelining happens once, globally, so sub-problems share element ids.
  core::GraphModel model =
      options.local.pipeline ? core::pipeline_model(input).model : input;

  // 1. Map.
  std::unique_ptr<Mapper> owned;
  const Mapper* mapper = options.custom;
  if (!mapper) {
    owned = make_mapper(options.mapper, options.seed);
    if (!owned) {
      out.scheduled_model = std::move(model);
      out.failure_reason = "unknown mapper '" + options.mapper + "'";
      return out;
    }
    mapper = owned.get();
  }
  Mapping mapping = mapper->assign(model, platform);
  return deploy_assignment(model, platform, std::move(mapping.assignment), options,
                           std::move(mapping.mapper));
}

Deployment deploy_assignment(const core::GraphModel& model, const Platform& platform,
                             std::vector<ProcId> assignment,
                             const DeployOptions& options, std::string mapper_name) {
  Deployment out;
  out.platform = platform;
  if (platform.processors() == 0) {
    out.failure_reason = "zero processors";
    return out;
  }
  out.scheduled_model = model;
  const core::CommGraph& comm = model.comm();
  const std::size_t m = platform.processors();
  out.mapping.assignment = std::move(assignment);
  out.mapping.mapper = std::move(mapper_name);
  if (out.mapping.assignment.size() < comm.size()) {
    out.failure_reason = "assignment does not cover every element";
    return out;
  }

  // 2. Messages + slot tables.
  std::string why;
  auto messages = collect_messages(model, platform, out.mapping.assignment, &why);
  if (!messages) {
    out.failure_reason = "unroutable mapping: " + why;
    return out;
  }
  out.messages = std::move(*messages);
  out.comm = build_comm_schedule(platform, out.messages);
  const CommCheck comm_check = check_comm_schedule(platform, out.comm);
  if (!comm_check.ok) {
    out.failure_reason = "comm schedule invalid: " + comm_check.diagnostics.front();
    return out;
  }

  // 3. Shard the comm graph.
  out.shards = shard_comm(comm, out.mapping.assignment, m);

  // 4. Project constraints with the work-proportional deadline split:
  // one worst-case link cycle per crossing, the rest divided between
  // processor segments in proportion to their work.
  std::vector<std::vector<core::TimingConstraint>> local_constraints(m);
  for (const core::TimingConstraint& c : model.constraints()) {
    std::set<std::size_t> procs;
    for (ElementId e : c.task_graph.labels()) {
      procs.insert(out.mapping.assignment[e]);
    }
    Time msg_budget = 0;
    for (const graph::Edge& e : c.task_graph.skeleton().edges()) {
      const ElementId u = c.task_graph.label(e.from);
      const ElementId v = c.task_graph.label(e.to);
      if (out.mapping.assignment[u] == out.mapping.assignment[v]) continue;
      msg_budget += out.comm.worst_delay(out.comm.find_message(u, v));
    }
    const Time local_total = c.deadline - msg_budget;
    if (local_total < static_cast<Time>(procs.size())) {
      out.failure_reason = "constraint '" + c.name +
                           "': deadline too small after message budget " +
                           std::to_string(msg_budget);
      return out;
    }
    std::vector<Time> proc_work(m, 0);
    Time total_work = 0;
    for (ElementId e : c.task_graph.labels()) {
      proc_work[out.mapping.assignment[e]] += comm.weight(e);
      total_work += comm.weight(e);
    }
    // Heavier segments get more of the remaining budget, never less
    // than twice their work (so their async server can fit). The exact
    // seam check below is what ultimately decides feasibility.
    auto local_deadline_for = [&](std::size_t p) {
      const Time proportional =
          local_total * proc_work[p] / std::max<Time>(total_work, 1);
      return std::max<Time>(2 * proc_work[p], proportional);
    };

    for (std::size_t p : procs) {
      const ProcessorShard& shard = out.shards[p];
      core::TaskGraph sub;
      std::vector<core::OpId> sub_op(c.task_graph.size(), graph::kInvalidNode);
      for (core::OpId op = 0; op < c.task_graph.size(); ++op) {
        const ElementId e = c.task_graph.label(op);
        if (out.mapping.assignment[e] == p) {
          sub_op[op] = sub.add_op(shard.to_local[e]);
        }
      }
      if (sub.empty()) continue;
      for (const graph::Edge& e : c.task_graph.skeleton().edges()) {
        if (sub_op[e.from] != graph::kInvalidNode &&
            sub_op[e.to] != graph::kInvalidNode) {
          sub.add_dep(sub_op[e.from], sub_op[e.to]);
        }
      }
      core::TimingConstraint local;
      local.name = c.name + "@" + std::to_string(p);
      local.task_graph = std::move(sub);
      local.period = c.period;
      local.deadline = local_deadline_for(p);
      local.kind = core::ConstraintKind::kAsynchronous;
      local_constraints[p].push_back(std::move(local));
    }
  }

  // 5. Per-processor synthesis.
  out.shard_models.reserve(m);
  out.local_schedules.resize(m);
  out.processor_schedules.resize(m);
  for (std::size_t p = 0; p < m; ++p) {
    core::GraphModel local_model(out.shards[p].comm);
    for (core::TimingConstraint& c : local_constraints[p]) {
      local_model.add_constraint(std::move(c));
    }
    core::HeuristicOptions local_opts = options.local;
    local_opts.pipeline = false;  // already pipelined globally
    const core::HeuristicResult local = core::latency_schedule(local_model, local_opts);
    out.shard_models.push_back(std::move(local_model));
    if (!local.success) {
      out.cancelled = options.local.cancel &&
                      options.local.cancel->load(std::memory_order_relaxed);
      out.failure_reason = "processor " + std::to_string(p) + ": " +
                           local.failure_reason;
      return out;
    }
    out.local_schedules[p] = *local.schedule;
    core::StaticSchedule global_sched;
    for (const core::ScheduleEntry& entry : local.schedule->entries()) {
      if (entry.elem == core::kIdleEntry) {
        global_sched.push_idle(entry.duration);
      } else {
        global_sched.push_execution(out.shards[p].to_global[entry.elem],
                                    entry.duration);
      }
    }
    out.processor_schedules[p] = std::move(global_sched);
  }
  for (std::size_t p = 0; p < m; ++p) {
    if (out.processor_schedules[p].length() == 0) {
      out.processor_schedules[p].push_idle(1);
      out.local_schedules[p].push_idle(1);
    }
  }

  // 6a. Shard verification: core::verify_schedule per processor,
  // against the projected sub-model.
  core::VerifyOptions shard_verify;
  shard_verify.n_threads = 1;
  for (std::size_t p = 0; p < m; ++p) {
    ShardVerification shard;
    shard.proc = p;
    shard.report =
        core::verify_schedule(out.local_schedules[p], out.shard_models[p], shard_verify);
    const bool ok = shard.report.feasible;
    out.shard_reports.push_back(std::move(shard));
    if (!ok) {
      out.failure_reason =
          "processor " + std::to_string(p) + ": shard verification failed";
      return out;
    }
  }

  // 6b. Seam check: exact end-to-end latency across shards, every
  // constraint against one context.
  bool all_ok = true;
  const auto& constraints = model.constraints();
  std::size_t max_ops = 0;
  for (const core::TimingConstraint& c : constraints) {
    max_ops = std::max(max_ops, c.task_graph.size());
  }
  const SeamContext seam_context(out.processor_schedules, out.mapping.assignment,
                                 out.comm, max_ops, options.flat_reference);
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    GlobalWitness witness;
    bool cancelled = false;
    SeamOptions seam;
    seam.n_threads = options.seam_threads;
    seam.flat_reference = options.flat_reference;
    seam.witness = &witness;
    seam.stats = &out.seam_stats;
    seam.cancel = options.local.cancel;
    seam.progress = options.local.progress;
    seam.cancelled = &cancelled;
    const auto latency = seam_context.latency(constraints[c].task_graph, seam);
    if (cancelled) {
      out.cancelled = true;
      out.failure_reason = "cancelled";
      return out;
    }
    out.end_to_end.push_back(latency);
    if (!latency || *latency > constraints[c].deadline) {
      all_ok = false;
      continue;
    }
    if (options.check_witnesses) {
      const auto bad = check_witness(constraints[c].task_graph,
                                     out.processor_schedules,
                                     out.mapping.assignment, out.comm, witness);
      if (bad) {
        out.failure_reason = "constraint '" + constraints[c].name +
                             "': seam witness invalid: " + *bad;
        return out;
      }
    }
    out.witnesses.push_back(std::move(witness));
    out.witness_constraint.push_back(c);
  }
  if (!all_ok) {
    out.failure_reason = "end-to-end verification failed";
    return out;
  }
  out.success = true;
  return out;
}

}  // namespace rtg::map
