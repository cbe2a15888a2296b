// deploy.hpp — the end-to-end mapped deployment pipeline.
//
// deploy() realizes the paper's multiprocessor decomposition over an
// arbitrary Platform:
//
//   1. pipeline the model once, globally (sub-problems share element
//      ids);
//   2. run a portfolio Mapper to place elements on processors;
//   3. derive the induced message set (self-messages eliminated,
//      unroutable channels rejected) and build the generalized-TDMA
//      communication slot tables;
//   4. split every constraint's deadline between its processor segments
//      and its messages (work-proportional, one worst-case link cycle
//      per crossing — a deadline that cannot cover its message budget
//      is rejected here: the saturated-bus case);
//   5. synthesize a static schedule per processor with the existing
//      core::latency_schedule on the projected sub-constraints;
//   6. verify in shards: core::IncrementalVerifier per processor on the
//      local sub-model, then the cross-shard seam check
//      (map::distributed_latency) measuring exact end-to-end latency,
//      with the worst window's GlobalWitness re-validated by
//      check_witness.
//
// The final verification is exact, so the heuristic deadline split only
// affects *which* deployments are found, never whether a reported
// success is sound.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "core/model.hpp"
#include "core/static_schedule.hpp"
#include "map/comm_schedule.hpp"
#include "map/mapper.hpp"
#include "map/mapping.hpp"
#include "map/platform.hpp"
#include "map/verify.hpp"

namespace rtg::map {

struct DeployOptions {
  /// Portfolio member: "greedy", "sa", "spd" (or an alias, see
  /// make_mapper). Ignored when `custom` is set.
  std::string mapper = "greedy";
  /// Seed for stochastic mappers (the annealer).
  std::uint64_t seed = 1;
  /// Per-processor scheduling options; `pipeline` controls the global
  /// pipelining pass, and `cancel` / `progress` also thread into the
  /// seam check.
  core::HeuristicOptions local;
  /// Worker threads for the seam check's window fan-out (bit-identical
  /// at every count).
  std::size_t seam_threads = 1;
  /// Run the seam check on the flat (linear-scan) reference path.
  bool flat_reference = false;
  /// Re-validate every worst-window GlobalWitness with check_witness.
  bool check_witnesses = true;
  /// When non-null, used instead of make_mapper(mapper, seed).
  const Mapper* custom = nullptr;
};

/// One processor's local verification outcome.
struct ShardVerification {
  ProcId proc = 0;
  /// IncrementalVerifier report of the local schedule against the
  /// projected sub-model (local element ids).
  core::FeasibilityReport report;
};

struct Deployment {
  bool success = false;
  std::string failure_reason;
  /// True when the run was abandoned through HeuristicOptions::cancel;
  /// a cancelled deployment is "unknown", never "infeasible".
  bool cancelled = false;

  /// Pipelined model all ids below refer to.
  core::GraphModel scheduled_model;
  Platform platform;
  Mapping mapping;
  std::vector<Message> messages;
  CommSchedule comm;
  std::vector<ProcessorShard> shards;
  /// Per-processor sub-models (local ids) the shard verifier ran on.
  std::vector<core::GraphModel> shard_models;
  /// Per-processor schedules in local element ids...
  std::vector<core::StaticSchedule> local_schedules;
  /// ...and translated to global ids (what the seam check consumes).
  std::vector<core::StaticSchedule> processor_schedules;

  std::vector<ShardVerification> shard_reports;
  /// Measured exact end-to-end latency per constraint (nullopt =
  /// infinite). Populated up to the first hard failure.
  std::vector<std::optional<Time>> end_to_end;
  /// Worst-window witnesses for constraints with finite latency, in
  /// constraint order (paired via witness_constraint).
  std::vector<GlobalWitness> witnesses;
  std::vector<std::size_t> witness_constraint;
  SeamStats seam_stats;

  /// Latency slack min over constraints (deadline - latency); 0 when
  /// nothing verified. The E23 latency-margin metric.
  [[nodiscard]] std::optional<Time> min_margin(const core::GraphModel& model) const;
};

/// Maps, schedules, and verifies `model` on `platform`.
[[nodiscard]] Deployment deploy(const core::GraphModel& model, const Platform& platform,
                                const DeployOptions& options = {});

/// Steps 3–6 of deploy() for a fixed element→processor assignment:
/// derive messages and slot tables, split deadlines, synthesize the
/// per-processor schedules, and verify (shards + seam + witnesses).
/// `model` is deployed as-is — no pipelining pass runs, so a caller
/// re-verifying a patched assignment (fault_tolerance's migration
/// entries) passes the already-pipelined `Deployment::scheduled_model`.
/// `options.mapper`/`options.custom` are ignored; `mapper_name` only
/// labels the resulting Mapping.
[[nodiscard]] Deployment deploy_assignment(const core::GraphModel& model,
                                           const Platform& platform,
                                           std::vector<ProcId> assignment,
                                           const DeployOptions& options = {},
                                           std::string mapper_name = "fixed");

}  // namespace rtg::map
