// Satellite: the property-based corpus differential suite. Runs the
// full differential synthesis tournament (exact game, Theorem-3
// heuristic, verifier stack at 1/2/4 threads + flat reference,
// IncrementalVerifier + drop probe, process-model baseline) over a
// seeded corpus and requires zero coherence violations.
//
// RTG_CORPUS_SEEDS scales the sweep; the default covers the full
// 500-scenario corpus (CI's per-PR sanitizer job sets 64, the nightly
// gate restores 500). On any violation the scenario is shrunk — fewer
// constraints, smaller platform, smaller task graphs — while the
// violation persists, and the minimized one-line reproduction recipe
// (`spec_compiler --gen <spec>`) is printed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "gen/generator.hpp"
#include "gen/tournament.hpp"

namespace rtg::gen {
namespace {

std::uint64_t corpus_size() {
  if (const char* env = std::getenv("RTG_CORPUS_SEEDS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return 500;
}

bool violates(const ScenarioOptions& options, const TournamentOptions& to) {
  return !run_tournament_row(generate(options), to).violations.empty();
}

// Greedy shrink: try each reduction repeatedly, keep those that
// preserve a violation. Every probe is itself deterministic, so the
// minimized recipe reproduces exactly.
ScenarioOptions minimize(ScenarioOptions options, const TournamentOptions& to) {
  bool progress = true;
  while (progress) {
    progress = false;
    ScenarioOptions candidate = options;
    if (options.constraints.constraints > 1) {
      candidate = options;
      --candidate.constraints.constraints;
      if (violates(candidate, to)) { options = candidate; progress = true; continue; }
    }
    if (options.platform.elements > 2) {
      candidate = options;
      --candidate.platform.elements;
      if (violates(candidate, to)) { options = candidate; progress = true; continue; }
    }
    if (options.constraints.max_ops > 1) {
      candidate = options;
      --candidate.constraints.max_ops;
      if (violates(candidate, to)) { options = candidate; progress = true; continue; }
    }
    if (options.platform.max_weight > options.platform.min_weight) {
      candidate = options;
      --candidate.platform.max_weight;
      if (violates(candidate, to)) { options = candidate; progress = true; continue; }
    }
    if (options.domain != DomainPack::kNone) {
      candidate = options;
      candidate.domain = DomainPack::kNone;
      if (violates(candidate, to)) { options = candidate; progress = true; continue; }
    }
  }
  return options;
}

TEST(CorpusDifferential, TournamentRunsGreenAcrossTheCorpus) {
  TournamentOptions to;
  to.exact_budget = 12'000;  // corpus-sized: answers or kUnknown, fast

  const std::uint64_t n = corpus_size();
  std::size_t feasible = 0;
  std::size_t exact_answers = 0;
  for (std::uint64_t index = 0; index < n; ++index) {
    const ScenarioOptions options = corpus_options(index);
    const TournamentRow row = run_tournament_row(generate(options), to);
    if (row.heuristic_success) ++feasible;
    if (row.exact_status != core::FeasibilityStatus::kUnknown) ++exact_answers;
    if (!row.violations.empty()) {
      const ScenarioOptions small = minimize(options, to);
      const TournamentRow shrunk = run_tournament_row(generate(small), to);
      std::string detail;
      for (const std::string& v :
           (shrunk.violations.empty() ? row : shrunk).violations) {
        detail += "\n  - " + v;
      }
      ADD_FAILURE() << "corpus index " << index << " (" << row.name
                    << ") violated tournament coherence:" << detail
                    << "\nminimized repro: spec_compiler "
                    << (shrunk.violations.empty() ? row : shrunk).repro;
      return;  // one minimized failure is the actionable signal
    }
  }
  // The corpus must actually exercise both sides of the frontier and
  // get real exact verdicts — an all-kUnknown sweep would be vacuous.
  EXPECT_GT(feasible, n / 4) << "corpus skews infeasible";
  EXPECT_LT(feasible, n) << "corpus skews trivial";
  EXPECT_GT(exact_answers, n / 4) << "exact budget too small to decide anything";
}

TEST(CorpusDifferential, ViolationMachineryActuallyFires) {
  // Guard the guard: hand the tournament a corrupted scenario (spec
  // text that no longer matches the model) and check the round-trip
  // rule reports it — so a future refactor cannot silently turn the
  // suite into a no-op.
  Scenario s = generate(corpus_options(0));
  s.spec += "element smuggled\n";
  const TournamentRow row = run_tournament_row(s, {});
  EXPECT_FALSE(row.violations.empty());
}

}  // namespace
}  // namespace rtg::gen
