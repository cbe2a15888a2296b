// E21 — the scenario corpus: feasibility frontiers and the Theorem 3
// boundary map.
//
// Part 1 (frontier): for every topology family, sweep the utilization
// target and run the full differential tournament (exact game on the
// pipelined model, Theorem-3 heuristic, verifier stack, process-model
// EDF baseline) over a seed batch per cell. Reported per cell: the
// heuristic feasibility rate, the exact engine's verdict split, and the
// baseline's EDF-schedulability rate — the feasibility frontier of each
// graph family, and the gap between constructive scheduling and the
// paper's process-model translation.
//
// Part 2 (boundary map): sweep utilization x pipelinable-fraction and
// chart where Theorem 3's hypotheses hold and where the constructive
// heuristic keeps succeeding past them — the pipelining boundary the
// paper's Theorem 3 draws (Σ w/d <= 1/2 + all elements pipelinable).
//
// Any tournament coherence violation fails the bench (exit 1): the
// corpus numbers are only worth recording if every engine agreed.
//
// Emits BENCH_corpus.json in the working directory.
#include <cstdio>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "gen/tournament.hpp"

namespace {

using namespace rtg;

constexpr std::uint64_t kSeedsPerCell = 8;

struct FrontierCell {
  gen::Topology topology = gen::Topology::kChain;
  double utilization = 0;
  std::size_t heuristic_ok = 0;
  std::size_t exact_feasible = 0;
  std::size_t exact_infeasible = 0;
  std::size_t exact_unknown = 0;
  std::size_t baseline_edf = 0;
  std::size_t theorem3 = 0;
};

struct BoundaryCell {
  double utilization = 0;
  double pipelinable = 0;
  std::size_t theorem3 = 0;
  std::size_t heuristic_ok = 0;
};

struct DomainCell {
  gen::DomainPack domain = gen::DomainPack::kSensorFusion;
  std::size_t heuristic_ok = 0;
  std::size_t exact_feasible = 0;
  std::size_t baseline_edf = 0;
};

std::size_t g_violations = 0;

void account(const gen::TournamentRow& row) {
  if (!row.violations.empty()) {
    g_violations += row.violations.size();
    for (const std::string& v : row.violations) {
      std::fprintf(stderr, "VIOLATION [%s]: %s\n  repro: spec_compiler %s\n",
                   row.name.c_str(), v.c_str(), row.repro.c_str());
    }
  }
}

}  // namespace

int main() {
  gen::TournamentOptions tournament;
  tournament.exact_budget = 8'000;

  // Part 1: feasibility frontiers per topology family.
  const gen::Topology kTopologies[] = {gen::Topology::kChain, gen::Topology::kForkJoin,
                                       gen::Topology::kLayered, gen::Topology::kDiamond,
                                       gen::Topology::kRandomDag};
  const double kUtils[] = {0.2, 0.35, 0.5, 0.65, 0.8, 1.0};

  std::vector<FrontierCell> frontier;
  for (const gen::Topology t : kTopologies) {
    for (const double u : kUtils) {
      FrontierCell cell;
      cell.topology = t;
      cell.utilization = u;
      for (std::uint64_t seed = 0; seed < kSeedsPerCell; ++seed) {
        gen::ScenarioOptions options;
        options.seed = seed;
        options.platform.topology = t;
        options.platform.elements = 6;
        options.constraints.constraints = 3;
        options.constraints.utilization = u;
        const gen::TournamentRow row =
            gen::run_tournament_row(gen::generate(options), tournament);
        account(row);
        if (row.heuristic_success) ++cell.heuristic_ok;
        if (row.theorem3) ++cell.theorem3;
        if (row.baseline_edf) ++cell.baseline_edf;
        switch (row.exact_status) {
          case core::FeasibilityStatus::kFeasible: ++cell.exact_feasible; break;
          case core::FeasibilityStatus::kInfeasible: ++cell.exact_infeasible; break;
          case core::FeasibilityStatus::kUnknown: ++cell.exact_unknown; break;
        }
      }
      frontier.push_back(cell);
    }
  }

  std::printf("E21a: feasibility frontier (rates over %llu seeds per cell)\n",
              static_cast<unsigned long long>(kSeedsPerCell));
  std::printf("%-10s %6s | %9s %7s | %8s %8s %8s | %8s\n", "topology", "util",
              "heuristic", "thm3", "ex_feas", "ex_infe", "ex_unk", "edf_base");
  for (const FrontierCell& c : frontier) {
    std::printf("%-10s %6.2f | %8.2f%% %6zu | %8zu %8zu %8zu | %8zu\n",
                std::string(gen::topology_name(c.topology)).c_str(), c.utilization,
                100.0 * static_cast<double>(c.heuristic_ok) / kSeedsPerCell,
                c.theorem3, c.exact_feasible, c.exact_infeasible, c.exact_unknown,
                c.baseline_edf);
  }

  // Part 2: the Theorem 3 pipelining boundary map. No exact engine —
  // the question here is where the hypotheses hold and where the
  // construction succeeds, not ground-truth feasibility.
  gen::TournamentOptions construct_only = tournament;
  construct_only.run_exact = false;
  construct_only.run_baseline = false;

  const double kBoundaryUtils[] = {0.3, 0.4, 0.5, 0.6, 0.8};
  const double kPipelinable[] = {1.0, 0.8, 0.5, 0.0};
  std::vector<BoundaryCell> boundary;
  for (const double u : kBoundaryUtils) {
    for (const double p : kPipelinable) {
      BoundaryCell cell;
      cell.utilization = u;
      cell.pipelinable = p;
      for (std::uint64_t seed = 0; seed < kSeedsPerCell; ++seed) {
        gen::ScenarioOptions options;
        options.seed = seed;
        options.platform.topology = gen::Topology::kLayered;
        options.platform.elements = 6;
        options.platform.pipelinable = p;
        options.constraints.constraints = 3;
        options.constraints.utilization = u;
        const gen::TournamentRow row =
            gen::run_tournament_row(gen::generate(options), construct_only);
        account(row);
        if (row.theorem3) ++cell.theorem3;
        if (row.heuristic_success) ++cell.heuristic_ok;
      }
      boundary.push_back(cell);
    }
  }

  std::printf("\nE21b: Theorem 3 pipelining boundary (layered, %llu seeds per cell)\n",
              static_cast<unsigned long long>(kSeedsPerCell));
  std::printf("%6s %12s | %6s %10s\n", "util", "pipelinable", "thm3", "heuristic");
  for (const BoundaryCell& c : boundary) {
    std::printf("%6.2f %12.2f | %6zu %9.2f%%\n", c.utilization, c.pipelinable,
                c.theorem3,
                100.0 * static_cast<double>(c.heuristic_ok) / kSeedsPerCell);
  }

  // Domain packs through the full tournament.
  std::vector<DomainCell> domains;
  for (const gen::DomainPack d :
       {gen::DomainPack::kSensorFusion, gen::DomainPack::kAvionics,
        gen::DomainPack::kMarketData}) {
    DomainCell cell;
    cell.domain = d;
    for (std::uint64_t seed = 0; seed < kSeedsPerCell; ++seed) {
      gen::ScenarioOptions options;
      options.seed = seed;
      options.domain = d;
      const gen::TournamentRow row =
          gen::run_tournament_row(gen::generate(options), tournament);
      account(row);
      if (row.heuristic_success) ++cell.heuristic_ok;
      if (row.exact_status == core::FeasibilityStatus::kFeasible) ++cell.exact_feasible;
      if (row.baseline_edf) ++cell.baseline_edf;
    }
    domains.push_back(cell);
  }
  std::printf("\nE21c: domain packs\n%-14s | %9s %8s %8s\n", "domain", "heuristic",
              "ex_feas", "edf_base");
  for (const DomainCell& c : domains) {
    std::printf("%-14s | %9zu %8zu %8zu\n",
                std::string(gen::domain_name(c.domain)).c_str(), c.heuristic_ok,
                c.exact_feasible, c.baseline_edf);
  }

  std::printf("\ncoherence violations: %zu\n", g_violations);

  FILE* json = std::fopen("BENCH_corpus.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"experiment\": \"E21\",\n  \"seeds_per_cell\": %llu,\n",
                 static_cast<unsigned long long>(kSeedsPerCell));
    std::fprintf(json, "  \"violations\": %zu,\n  \"frontier\": [\n", g_violations);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const FrontierCell& c = frontier[i];
      std::fprintf(json,
                   "    {\"topology\": \"%s\", \"util\": %.2f, \"heuristic_ok\": %zu, "
                   "\"theorem3\": %zu, \"exact_feasible\": %zu, \"exact_infeasible\": "
                   "%zu, \"exact_unknown\": %zu, \"baseline_edf\": %zu}%s\n",
                   std::string(gen::topology_name(c.topology)).c_str(), c.utilization,
                   c.heuristic_ok, c.theorem3, c.exact_feasible, c.exact_infeasible,
                   c.exact_unknown, c.baseline_edf,
                   i + 1 < frontier.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"theorem3_boundary\": [\n");
    for (std::size_t i = 0; i < boundary.size(); ++i) {
      const BoundaryCell& c = boundary[i];
      std::fprintf(json,
                   "    {\"util\": %.2f, \"pipelinable\": %.2f, \"theorem3\": %zu, "
                   "\"heuristic_ok\": %zu}%s\n",
                   c.utilization, c.pipelinable, c.theorem3, c.heuristic_ok,
                   i + 1 < boundary.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"domains\": [\n");
    for (std::size_t i = 0; i < domains.size(); ++i) {
      const DomainCell& c = domains[i];
      std::fprintf(json,
                   "    {\"domain\": \"%s\", \"heuristic_ok\": %zu, "
                   "\"exact_feasible\": %zu, \"baseline_edf\": %zu}%s\n",
                   std::string(gen::domain_name(c.domain)).c_str(), c.heuristic_ok,
                   c.exact_feasible, c.baseline_edf,
                   i + 1 < domains.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_corpus.json\n");
  }

  if (g_violations != 0) {
    std::fprintf(stderr, "bench_scenario_corpus: %zu coherence violations\n",
                 g_violations);
    return 1;
  }
  return 0;
}
