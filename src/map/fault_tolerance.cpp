#include "map/fault_tolerance.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "sim/rng.hpp"

namespace rtg::map {

// ---------------------------------------------------------------------------
// Platform state

PlatformState PlatformState::nominal_for(const Platform& platform) {
  PlatformState s;
  s.proc_down.assign(platform.processors(), 0);
  s.link_down.assign(platform.links.size(), 0);
  s.link_factor.assign(platform.links.size(), 1);
  return s;
}

bool PlatformState::nominal() const {
  for (const std::uint8_t d : proc_down) {
    if (d) return false;
  }
  for (const std::uint8_t d : link_down) {
    if (d) return false;
  }
  for (const Time f : link_factor) {
    if (f > 1) return false;
  }
  return true;
}

std::vector<ProcId> PlatformState::failed_procs() const {
  std::vector<ProcId> failed;
  for (ProcId p = 0; p < proc_down.size(); ++p) {
    if (proc_down[p]) failed.push_back(p);
  }
  return failed;
}

bool PlatformState::links_disturbed() const {
  for (const std::uint8_t d : link_down) {
    if (d) return true;
  }
  for (const Time f : link_factor) {
    if (f > 1) return true;
  }
  return false;
}

std::string PlatformState::describe(const Platform& platform) const {
  std::string s;
  auto add = [&](const std::string& part) {
    if (!s.empty()) s += "; ";
    s += part;
  };
  for (ProcId p = 0; p < proc_down.size(); ++p) {
    if (proc_down[p]) add(platform.processor_names[p] + " down");
  }
  for (std::size_t l = 0; l < link_down.size(); ++l) {
    if (link_down[l]) {
      add("link " + platform.links[l].name + " down");
    } else if (l < link_factor.size() && link_factor[l] > 1) {
      add("link " + platform.links[l].name + " /" + std::to_string(link_factor[l]));
    }
  }
  return s.empty() ? "nominal" : s;
}

std::string PlatformState::key() const {
  std::string k;
  k.reserve(proc_down.size() + 2 * link_down.size() + 2);
  for (const std::uint8_t d : proc_down) k += d ? '1' : '0';
  k += '|';
  for (const std::uint8_t d : link_down) k += d ? '1' : '0';
  k += '|';
  for (const Time f : link_factor) {
    k += std::to_string(f);
    k += ',';
  }
  return k;
}

PlatformState platform_state_at(const core::FaultInjector& injector,
                                const Platform& platform, Time t) {
  PlatformState s = PlatformState::nominal_for(platform);
  for (ProcId p = 0; p < platform.processors(); ++p) {
    s.proc_down[p] = injector.processor_down(p, t) ? 1 : 0;
  }
  for (std::size_t l = 0; l < platform.links.size(); ++l) {
    s.link_down[l] = injector.link_down(l, t) ? 1 : 0;
    s.link_factor[l] = injector.link_degrade(l, t);
  }
  return s;
}

Platform apply_state(const Platform& base, const PlatformState& state) {
  Platform degraded = base;
  for (std::size_t l = 0; l < degraded.links.size(); ++l) {
    Link& link = degraded.links[l];
    if (l < state.link_down.size() && state.link_down[l]) {
      link.routes.clear();
      continue;
    }
    std::erase_if(link.routes, [&](const Route& r) {
      return (r.first < state.proc_down.size() && state.proc_down[r.first]) ||
             (r.second < state.proc_down.size() && state.proc_down[r.second]);
    });
    if (l < state.link_factor.size() && state.link_factor[l] > 1) {
      link.bandwidth = std::max<Time>(1, link.bandwidth / state.link_factor[l]);
    }
  }
  return degraded;
}

core::PlatformNames platform_names(const Platform& platform) {
  core::PlatformNames names;
  names.processors = platform.processor_names;
  names.links.reserve(platform.links.size());
  for (const Link& link : platform.links) names.links.push_back(link.name);
  return names;
}

// ---------------------------------------------------------------------------
// Tolerant deployment

const MigrationEntry* MigrationTable::find(const std::vector<ProcId>& failed) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), failed,
      [](const MigrationEntry& e, const std::vector<ProcId>& f) { return e.failed < f; });
  if (it == entries.end() || it->failed != failed) return nullptr;
  return &*it;
}

std::vector<ProcId> migrate_assignment(const std::vector<ProcId>& primary,
                                       const std::vector<ProcId>& standby,
                                       const std::vector<ProcId>& failed,
                                       std::size_t processors) {
  auto down = [&](ProcId p) {
    return std::binary_search(failed.begin(), failed.end(), p);
  };
  std::vector<ProcId> patched = primary;
  for (std::size_t e = 0; e < patched.size(); ++e) {
    if (!down(patched[e])) continue;
    ProcId target = e < standby.size() ? standby[e] : patched[e];
    for (std::size_t step = 0; step < processors && down(target); ++step) {
      target = (target + 1) % processors;
    }
    patched[e] = target;
  }
  return patched;
}

namespace {

// Standby placement: process elements in id order, put each replica on
// the processor (!= primary) with the least primary+replica load so far
// — deterministic, and replicas spread instead of stacking on the one
// lightest processor.
std::vector<ProcId> choose_standby(const core::CommGraph& comm,
                                   const std::vector<ProcId>& primary,
                                   std::size_t processors) {
  std::vector<Time> load(processors, 0);
  for (ElementId e = 0; e < comm.size(); ++e) {
    if (comm.has_element(e) && primary[e] < processors) {
      load[primary[e]] += comm.weight(e);
    }
  }
  std::vector<ProcId> standby(primary.size(), 0);
  for (ElementId e = 0; e < comm.size() && e < primary.size(); ++e) {
    const ProcId home = primary[e];
    ProcId best = home == 0 && processors > 1 ? 1 : 0;
    for (ProcId p = 0; p < processors; ++p) {
      if (p == home) continue;
      if (load[p] < load[best] || (load[p] == load[best] && p < best)) best = p;
    }
    standby[e] = best;
    if (comm.has_element(e)) load[best] += comm.weight(e);
  }
  return standby;
}

void enumerate_subsets(std::size_t processors, std::size_t k,
                       std::vector<std::vector<ProcId>>& out) {
  std::vector<ProcId> cur;
  auto rec = [&](auto&& self, ProcId start) -> void {
    if (!cur.empty()) out.push_back(cur);
    if (cur.size() == k) return;
    for (ProcId p = start; p < processors; ++p) {
      cur.push_back(p);
      self(self, p + 1);
      cur.pop_back();
    }
  };
  rec(rec, 0);
  std::sort(out.begin(), out.end(),
            [](const std::vector<ProcId>& a, const std::vector<ProcId>& b) {
              return a < b;
            });
}

std::string scenario_name(const std::vector<ProcId>& failed, const Platform& platform) {
  std::string s = "{";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i) s += ",";
    s += platform.processor_names[failed[i]];
  }
  s += "}";
  return s;
}

}  // namespace

TolerantDeployment deploy_tolerant(const core::GraphModel& model,
                                   const Platform& platform,
                                   const TolerantOptions& options) {
  TolerantDeployment out;
  out.k = options.k;
  out.base = deploy(model, platform, options.deploy);
  out.cancelled = out.base.cancelled;
  if (!out.base.success) {
    out.failure_reason = "nominal deployment failed: " + out.base.failure_reason;
    return out;
  }
  out.success = true;

  const std::size_t m = platform.processors();
  const std::size_t k = std::min(options.k, m > 0 ? m - 1 : 0);
  out.k = k;
  out.standby = choose_standby(out.base.scheduled_model.comm(),
                               out.base.mapping.assignment, m);
  if (k == 0) {
    out.tolerant = true;
    return out;
  }

  std::vector<std::vector<ProcId>> scenarios;
  enumerate_subsets(m, k, scenarios);
  if (scenarios.size() > options.max_scenarios) {
    out.failure_reason = "scenario budget exceeded: C(P,<=k) = " +
                         std::to_string(scenarios.size()) + " > max_scenarios = " +
                         std::to_string(options.max_scenarios);
    return out;
  }
  out.scenarios = scenarios.size();

  for (const std::vector<ProcId>& failed : scenarios) {
    PlatformState state = PlatformState::nominal_for(platform);
    for (const ProcId p : failed) state.proc_down[p] = 1;
    const Platform degraded = apply_state(platform, state);
    std::vector<ProcId> patched = migrate_assignment(
        out.base.mapping.assignment, out.standby, failed, m);
    Deployment d = deploy_assignment(out.base.scheduled_model, degraded,
                                     std::move(patched), options.deploy, "migrate");
    if (d.cancelled) {
      out.cancelled = true;
      out.failure_reason = "cancelled while proving migration " +
                           scenario_name(failed, platform);
      return out;
    }
    if (d.success) {
      out.table.entries.push_back(MigrationEntry{failed, std::move(d)});
    } else {
      out.uncovered.push_back(UncoveredScenario{
          failed, "migration " + scenario_name(failed, platform) +
                      " inadmissible: " + d.failure_reason});
    }
  }
  out.tolerant = out.uncovered.empty();
  if (!out.tolerant && out.failure_reason.empty()) {
    out.failure_reason = out.uncovered.front().reason;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Degraded-mode communication rescheduling

RerouteResult reroute_messages(const Deployment& deployment, const Platform& degraded,
                               const SeamOptions& seam) {
  RerouteResult out;
  std::string why;
  auto messages = collect_messages(deployment.scheduled_model, degraded,
                                   deployment.mapping.assignment, &why);
  if (!messages) {
    out.failure_reason = "no feasible reroute: " + why;
    return out;
  }
  out.messages = std::move(*messages);
  out.comm = build_comm_schedule(degraded, out.messages);
  const CommCheck check = check_comm_schedule(degraded, out.comm);
  if (!check.ok) {
    out.failure_reason = "rerouted comm schedule invalid: " + check.diagnostics.front();
    return out;
  }
  for (const Message& msg : out.comm.messages) {
    const std::size_t old = deployment.comm.find_message(msg.from, msg.to);
    if (old == CommSchedule::npos ||
        deployment.comm.messages[old].link != msg.link) {
      ++out.rerouted;
    }
  }

  bool all_ok = true;
  const auto& constraints = deployment.scheduled_model.constraints();
  std::size_t max_ops = 0;
  for (const core::TimingConstraint& c : constraints) {
    max_ops = std::max(max_ops, c.task_graph.size());
  }
  const SeamContext seam_context(deployment.processor_schedules,
                                 deployment.mapping.assignment, out.comm, max_ops,
                                 seam.flat_reference);
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    GlobalWitness witness;
    SeamOptions opts = seam;
    opts.witness = &witness;
    const auto latency = seam_context.latency(constraints[c].task_graph, opts);
    out.end_to_end.push_back(latency);
    if (!latency || *latency > constraints[c].deadline) {
      all_ok = false;
      if (out.failure_reason.empty()) {
        out.failure_reason =
            "constraint '" + constraints[c].name + "': no feasible reroute (" +
            (latency ? "latency " + std::to_string(*latency) + " > deadline " +
                           std::to_string(constraints[c].deadline)
                     : "no distributed execution over surviving routes") +
            ")";
      }
      continue;
    }
    const auto bad = check_witness(constraints[c].task_graph,
                                   deployment.processor_schedules,
                                   deployment.mapping.assignment, out.comm, witness);
    if (bad) {
      all_ok = false;
      if (out.failure_reason.empty()) {
        out.failure_reason = "constraint '" + constraints[c].name +
                             "': reroute witness invalid: " + *bad;
      }
      continue;
    }
    out.witnesses.push_back(std::move(witness));
    out.witness_constraint.push_back(c);
  }
  out.success = all_ok;
  return out;
}

// ---------------------------------------------------------------------------
// The run loop

namespace {

// One cached configuration: what the healed loop dispatches for a given
// platform state. `dep` points into the TolerantDeployment (base or a
// MigrationTable entry); reroute, when present, replaces its tables.
struct ActiveConfig {
  const Deployment* dep = nullptr;
  std::vector<ProcId> failed;  ///< the entry's failure set (empty = base)
  std::optional<RerouteResult> reroute;
  EpochRecord::Mode mode = EpochRecord::Mode::kNominal;
  /// Per-constraint verdict on the state this config was built for.
  std::vector<std::uint8_t> proven_ok;
  std::string state_key;
  std::string detail;
  bool outage = false;
};

// Structural verdict of a configuration evaluated against a state it
// was *not* built for (the blind baseline, the detection/switch gap,
// and outage epochs): every element of the constraint must sit on a
// live processor, and every cross message must ride a live link whose
// degraded bandwidth still fits the slot run its table reserved.
bool structural_ok(const Deployment& dep, const CommSchedule& comm,
                   const Platform& base_platform, const PlatformState& state,
                   const core::TimingConstraint& c) {
  const auto& assignment = dep.mapping.assignment;
  for (const ElementId e : c.task_graph.labels()) {
    const ProcId p = assignment[e];
    if (p < state.proc_down.size() && state.proc_down[p]) return false;
  }
  for (const graph::Edge& edge : c.task_graph.skeleton().edges()) {
    const ElementId u = c.task_graph.label(edge.from);
    const ElementId v = c.task_graph.label(edge.to);
    if (assignment[u] == assignment[v]) continue;
    const std::size_t mi = comm.find_message(u, v);
    if (mi == CommSchedule::npos) return false;
    const Message& msg = comm.messages[mi];
    if (msg.link < state.link_down.size() && state.link_down[msg.link]) return false;
    const Time factor =
        msg.link < state.link_factor.size() ? state.link_factor[msg.link] : 1;
    if (factor > 1) {
      const Time nominal_bw =
          std::max<Time>(base_platform.links[msg.link].bandwidth, 1);
      const Time degraded_bw = std::max<Time>(1, nominal_bw / factor);
      const Time needed = (std::max<Time>(msg.size, 1) + degraded_bw - 1) / degraded_bw;
      if (needed > msg.slots) return false;
    }
  }
  return true;
}

std::vector<std::uint8_t> structural_verdicts(const Deployment& dep,
                                              const CommSchedule& comm,
                                              const Platform& base_platform,
                                              const PlatformState& state) {
  const auto& constraints = dep.scheduled_model.constraints();
  std::vector<std::uint8_t> ok(constraints.size(), 0);
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    ok[c] = structural_ok(dep, comm, base_platform, state, constraints[c]) ? 1 : 0;
  }
  return ok;
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

}  // namespace

std::uint64_t PlatformFaultRun::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const EpochRecord& e : epochs) {
    fnv_mix(h, static_cast<std::uint64_t>(e.begin));
    fnv_mix(h, static_cast<std::uint64_t>(e.end));
    fnv_mix(h, static_cast<std::uint64_t>(e.mode));
    for (const std::uint8_t d : e.state.proc_down) fnv_mix(h, d);
    for (const std::uint8_t d : e.state.link_down) fnv_mix(h, d);
    for (const Time f : e.state.link_factor) fnv_mix(h, static_cast<std::uint64_t>(f));
    for (const std::uint8_t ok : e.constraint_ok) fnv_mix(h, ok);
  }
  fnv_mix(h, windows_total);
  fnv_mix(h, windows_ok);
  fnv_mix(h, migrations);
  fnv_mix(h, reroutes);
  fnv_mix(h, reverts);
  fnv_mix(h, outages);
  fnv_mix(h, proof_checks);
  fnv_mix(h, proof_failures);
  for (const rt::RecoveryAction& a : actions) {
    fnv_mix(h, static_cast<std::uint64_t>(a.kind));
    fnv_mix(h, static_cast<std::uint64_t>(a.onset));
    fnv_mix(h, static_cast<std::uint64_t>(a.completed));
  }
  return h;
}

PlatformFaultRun run_deployment_with_faults(const TolerantDeployment& td,
                                            const core::FaultPlan& plan, Time horizon,
                                            const FaultRunOptions& options) {
  PlatformFaultRun run;
  if (!td.success || horizon <= 0) return run;
  const Deployment& base = td.base;
  const Platform& platform = base.platform;
  const auto& constraints = base.scheduled_model.constraints();
  const core::FaultInjector injector(plan);

  // Epoch boundaries: every platform event, plus the switch-latency
  // echo of each (the gap where the old tables run on new hardware).
  std::vector<Time> cuts{0, horizon};
  for (const Time t : injector.platform_event_times(horizon)) {
    cuts.push_back(t);
    if (options.heal && options.switch_latency > 0 &&
        t + options.switch_latency < horizon) {
      cuts.push_back(t + options.switch_latency);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Config cache: state key -> the (proof-checked) configuration the
  // healed policy dispatches in that state.
  std::map<std::string, ActiveConfig> cache;
  auto config_for = [&](const PlatformState& state) -> const ActiveConfig& {
    const std::string key = state.key();
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    ActiveConfig cfg;
    cfg.state_key = key;
    cfg.failed = state.failed_procs();
    if (cfg.failed.empty()) {
      cfg.dep = &base;
    } else if (const MigrationEntry* entry = td.table.find(cfg.failed)) {
      cfg.dep = &entry->deployment;
      cfg.mode = EpochRecord::Mode::kMigrated;
    } else {
      // Uncovered failure set: no admissible configuration — the healed
      // policy degenerates to dispatching the nominal deployment on the
      // broken platform (exactly the blind baseline's position).
      cfg.dep = &base;
      cfg.outage = true;
      cfg.mode = EpochRecord::Mode::kOutage;
      cfg.detail = "no migration entry for " + scenario_name(cfg.failed, platform);
      cfg.proven_ok = structural_verdicts(base, base.comm, platform, state);
      return cache.emplace(key, std::move(cfg)).first->second;
    }
    if (state.links_disturbed()) {
      // Keeping the current tables is always an option: the reserved
      // slot runs are unchanged, so if every message still fits its
      // slots at the degraded bandwidth the nominal proof stands.
      // Rerouting regenerates the tables and can *lengthen* the TDMA
      // cycle, so it is adopted only when the kept tables actually
      // break AND the reroute re-proves every constraint — never a
      // trade of proved windows for unproved ones (the healed-vs-blind
      // dominance of E24 rests on this).
      const std::vector<std::uint8_t> keep_ok =
          structural_verdicts(*cfg.dep, cfg.dep->comm, platform, state);
      const bool keep_fine =
          std::all_of(keep_ok.begin(), keep_ok.end(),
                      [](std::uint8_t ok) { return ok != 0; });
      if (keep_fine) {
        cfg.proven_ok = keep_ok;
        cfg.detail = "nominal tables fit degraded links";
      } else {
        SeamOptions seam;
        seam.n_threads = options.seam_threads;
        RerouteResult reroute =
            reroute_messages(*cfg.dep, apply_state(platform, state), seam);
        if (reroute.success) {
          cfg.detail =
              "rerouted " + std::to_string(reroute.rerouted) + " message(s)";
          cfg.reroute = std::move(reroute);
          cfg.mode = cfg.failed.empty() ? EpochRecord::Mode::kRerouted
                                        : EpochRecord::Mode::kMigratedRerouted;
          cfg.proven_ok.assign(constraints.size(), 1);
        } else {
          // No admissible reroute: keep the current tables (exactly the
          // blind baseline's position) and surface the diagnostic.
          cfg.outage = true;
          cfg.mode = EpochRecord::Mode::kOutage;
          cfg.proven_ok = keep_ok;
          cfg.detail = "reroute rejected: " + reroute.failure_reason;
        }
      }
    } else {
      cfg.proven_ok.assign(constraints.size(), 0);
      for (std::size_t c = 0; c < constraints.size(); ++c) {
        const auto& l = cfg.dep->end_to_end[c];
        cfg.proven_ok[c] = l && *l <= constraints[c].deadline ? 1 : 0;
      }
    }
    return cache.emplace(key, std::move(cfg)).first->second;
  };

  // Re-validate every witness a configuration carries before
  // dispatching it: the "every executed migration is proof-checked"
  // guarantee. Returns false only on a busted proof (never expected).
  auto proof_check = [&](const ActiveConfig& cfg) {
    if (cfg.outage) return true;
    const CommSchedule& comm = cfg.reroute ? cfg.reroute->comm : cfg.dep->comm;
    const auto& witnesses = cfg.reroute ? cfg.reroute->witnesses : cfg.dep->witnesses;
    const auto& wc =
        cfg.reroute ? cfg.reroute->witness_constraint : cfg.dep->witness_constraint;
    bool all = true;
    for (std::size_t w = 0; w < witnesses.size(); ++w) {
      ++run.proof_checks;
      const auto bad =
          check_witness(constraints[wc[w]].task_graph, cfg.dep->processor_schedules,
                        cfg.dep->mapping.assignment, comm, witnesses[w]);
      if (bad) {
        ++run.proof_failures;
        all = false;
      }
    }
    return all;
  };

  const PlatformState nominal = PlatformState::nominal_for(platform);
  const ActiveConfig* active = &config_for(nominal);
  const ActiveConfig* pending = nullptr;
  Time pending_at = 0;
  Time pending_onset = 0;
  std::string last_state_key = nominal.key();

  // Activation: log the revert / migrate / reroute action, re-validate
  // the proofs of `next` and dispatch it from now on.
  auto activate = [&](const ActiveConfig& next, Time onset, Time completed) {
    rt::RecoveryAction action;
    action.onset = onset;
    action.detected = onset;
    action.completed = completed;
    if (next.failed != active->failed) {
      if (next.failed.empty()) {
        action.kind = rt::RecoveryActionKind::kRevert;
        ++run.reverts;
      } else {
        action.kind = rt::RecoveryActionKind::kMigrate;
        ++run.migrations;
      }
    } else {
      action.kind = rt::RecoveryActionKind::kReroute;
      ++run.reroutes;
    }
    proof_check(next);
    run.actions.push_back(action);
    active = &next;
    pending = nullptr;
  };

  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const Time a = cuts[i];
    const Time b = cuts[i + 1];
    const PlatformState state = platform_state_at(injector, platform, a);

    if (options.heal) {
      if (pending && a >= pending_at) {
        activate(*pending, pending_onset, a);
      }
      if (state.key() != last_state_key) {
        const ActiveConfig& desired = config_for(state);
        last_state_key = state.key();
        if (desired.state_key != active->state_key) {
          // Same placement, same tables (e.g. a degrade window the
          // nominal tables absorb, or its repair): nothing to execute,
          // so no action, no proof re-check, no switch gap.
          const bool same_tables = desired.failed == active->failed &&
                                   !desired.reroute.has_value() &&
                                   !active->reroute.has_value();
          if (same_tables) {
            active = &desired;
            pending = nullptr;
          } else if (options.switch_latency <= 0) {
            activate(desired, a, a);
          } else {
            pending = &desired;
            pending_at = a + options.switch_latency;
            pending_onset = a;
          }
        } else {
          pending = nullptr;
        }
      }
    }

    EpochRecord epoch;
    epoch.begin = a;
    epoch.end = b;
    epoch.state = state;
    if (!options.heal) {
      // Blind baseline: the nominal deployment, whatever the weather.
      epoch.mode = state.nominal() ? EpochRecord::Mode::kNominal
                                   : EpochRecord::Mode::kOutage;
      epoch.constraint_ok = structural_verdicts(base, base.comm, platform, state);
      epoch.detail = state.describe(platform);
    } else if (active->state_key == state.key()) {
      epoch.mode = active->mode;
      epoch.constraint_ok = active->proven_ok;
      epoch.detail = active->outage ? active->detail : state.describe(platform);
      if (active->outage) ++run.outages;
    } else {
      // Detection/switch gap: the previous configuration's tables on
      // the new platform state.
      epoch.mode = EpochRecord::Mode::kOutage;
      const CommSchedule& comm =
          active->reroute ? active->reroute->comm : active->dep->comm;
      epoch.constraint_ok =
          structural_verdicts(*active->dep, comm, platform, state);
      epoch.detail = "switching (" + state.describe(platform) + ")";
    }
    run.epochs.push_back(std::move(epoch));
  }

  // Score constraint windows at the maximum invocation rate: window
  // [t, t+deadline) is satisfied iff every epoch it overlaps carries an
  // ok verdict for the constraint.
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    const Time period = std::max<Time>(constraints[c].period, 1);
    const Time deadline = constraints[c].deadline;
    std::size_t ei = 0;
    for (Time t = 0; t + deadline <= horizon; t += period) {
      while (ei < run.epochs.size() && run.epochs[ei].end <= t) ++ei;
      bool ok = true;
      for (std::size_t j = ei; j < run.epochs.size() && run.epochs[j].begin < t + deadline;
           ++j) {
        if (!run.epochs[j].constraint_ok[c]) {
          ok = false;
          break;
        }
      }
      ++run.windows_total;
      if (ok) ++run.windows_ok;
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Seeded platform fault schedules

namespace {

// The unit_draw construction from core::FaultInjector, with its own
// decision tags: a pure hash of (seed, tag, resource, slot).
double platform_draw(std::uint64_t seed, std::uint64_t tag, std::uint64_t resource,
                     std::uint64_t slot) {
  std::uint64_t state = seed;
  std::uint64_t h = sim::splitmix64(state);
  state ^= (tag + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= sim::splitmix64(state);
  state ^= resource * 0xbf58476d1ce4e5b9ULL;
  h ^= sim::splitmix64(state);
  state ^= slot * 0x94d049bb133111ebULL;
  h ^= sim::splitmix64(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kTagProcFail = 11;
constexpr std::uint64_t kTagLinkFail = 12;
constexpr std::uint64_t kTagLinkDegrade = 13;

}  // namespace

core::FaultPlan make_platform_fault_plan(std::uint64_t seed, const Platform& platform,
                                         Time horizon, double proc_rate,
                                         double link_rate, Time repair,
                                         double degrade_rate) {
  core::FaultPlan plan;
  plan.seed = seed;
  repair = std::max<Time>(repair, 1);
  auto sweep = [&](std::uint64_t tag, std::size_t resource, double rate,
                   core::FaultKind kind) {
    if (rate <= 0.0) return;
    Time t = 0;
    while (t < horizon) {
      if (platform_draw(seed, tag, resource, static_cast<std::uint64_t>(t)) < rate) {
        core::FaultSpec spec;
        spec.kind = kind;
        spec.resource = resource;
        spec.begin = t;
        if (kind == core::FaultKind::kLinkDegrade) {
          spec.end = t + repair;
          spec.magnitude = 2;
        } else {
          spec.magnitude = repair;
        }
        plan.faults.push_back(spec);
        t += repair;  // one outage at a time per resource
      } else {
        ++t;
      }
    }
  };
  for (ProcId p = 0; p < platform.processors(); ++p) {
    sweep(kTagProcFail, p, proc_rate, core::FaultKind::kProcessorFail);
  }
  for (std::size_t l = 0; l < platform.links.size(); ++l) {
    sweep(kTagLinkFail, l, link_rate, core::FaultKind::kLinkFail);
    sweep(kTagLinkDegrade, l, degrade_rate, core::FaultKind::kLinkDegrade);
  }
  return plan;
}

}  // namespace rtg::map
