// synth_verify: the .rts -> verdict path of spec_compiler. One operation
// compiles a spec, runs core::latency_schedule and core::verify_schedule,
// both with default options.
#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "adapt.hpp"
#include "core/heuristic.hpp"
#include "core/latency.hpp"
#include "gen/generator.hpp"
#include "oracle.hpp"
#include "spec/compile.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = rtg::core;
namespace gen = rtg::gen;
using core::Time;
using Span = Tracer::Span;

// An rtgraph report against the checker's (undecided verdicts skipped).
bool reports_agree(const core::FeasibilityReport& r, const oracle::Report& o) {
  if (r.verdicts.size() != o.verdicts.size()) return false;
  for (std::size_t i = 0; i < r.verdicts.size(); ++i) {
    const oracle::Verdict& ov = o.verdicts[i];
    if (!ov.decided) continue;
    if (r.verdicts[i].satisfied != ov.satisfied || r.verdicts[i].latency != ov.latency) {
      return false;
    }
  }
  return o.undecided > 0 || r.feasible == o.feasible;
}

class SynthVerify final : public Workload {
 public:
  /// Corpus specs per round, drawn by the seed from indices 0..4095.
  static constexpr std::size_t kMedium = 384;
  static constexpr Time kMaxMediumHyper = 20'000;
  /// Large coprime-period specs per round, the same for every seed.
  static constexpr std::size_t kLarge = 24;
  static constexpr Time kMinHyper = 100'000;
  static constexpr Time kMaxHyper = 130'000;
  static constexpr Time kMaxScheduleLength = core::HeuristicOptions{}.max_schedule_length;

  using Workload::Workload;

  void generate(std::uint64_t seed) override {
    // Medium specs: corpus scenarios whose server hyperperiod is at most
    // kMaxMediumHyper, drawn by the seed.
    std::mt19937_64 rng(mix(seed, 1));
    std::uniform_int_distribution<std::uint64_t> pick(0, 4095);
    while (specs_.size() < kMedium) {
      gen::Scenario sc = gen::generate(gen::corpus_options(pick(rng)));
      if (oracle::server_hyperperiod(to_oracle(sc.model), kMaxMediumHyper) <= kMaxMediumHyper) {
        specs_.push_back(std::move(sc.spec));
      }
    }
    // Large specs: 24-element coprime-period scenarios whose Theorem-3
    // server hyperperiod (the schedule length) lies in [kMinHyper,
    // kMaxHyper]. They carry most of the work, so they are the same for
    // every seed; the seed picks the medium specs and the order.
    for (std::uint64_t draw = 0; specs_.size() < kMedium + kLarge; ++draw) {
      gen::ScenarioOptions o;
      o.seed = 1000 + draw;
      o.platform.topology = static_cast<gen::Topology>(draw % 5);
      o.platform.elements = 24;
      o.platform.max_weight = 2;
      o.constraints.constraints = 8;
      o.constraints.utilization = 0.3;
      o.constraints.periods = gen::PeriodFamily::kCoprime;
      o.constraints.max_ops = 5;
      gen::Scenario sc = gen::generate(o);
      const Time h = oracle::server_hyperperiod(to_oracle(sc.model), kMaxHyper);
      if (h >= kMinHyper && h <= kMaxHyper) specs_.push_back(std::move(sc.spec));
    }
    order_.resize(specs_.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::shuffle(order_.begin(), order_.end(), rng);
    fingerprint_.resize(specs_.size());
  }

  void setup() override { decisions_.cutoff = core::serial_parallel_cutoff(); }

  void run_timed(double seconds) override {
    Workload::run_timed(seconds);
    if (!tracer_.on()) return;
    // Traced run only: the same verifications again at n_threads = 1,
    // once per spec and round, timed apart from the operations.
    double total = 0;
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      const auto compiled = rtg::spec::compile_text(specs_[k]);
      const core::HeuristicResult hr = core::latency_schedule(*compiled.model);
      if (!hr.success) continue;
      const auto t0 = Clock::now();
      for (std::size_t r = 0; r < rounds(); ++r) {
        (void)core::verify_schedule(*hr.schedule, hr.scheduled_model,
                                    core::VerifyOptions{.n_threads = 1});
      }
      total += seconds_between(t0, Clock::now());
    }
    verify_serial_s_ = total;
  }

  void layer_metrics(std::vector<Metric>& out) override {
    const double ops = static_cast<double>(std::max<std::size_t>(1, attempted_));
    const double v = static_cast<double>(std::max<std::size_t>(1, verifies_));
    const double q = static_cast<double>(stats_.memo_hits + stats_.embedding_queries);
    auto per_verify = [&](std::size_t x) { return static_cast<double>(x) / v; };
    out.push_back({"spec.compile_s", per_op("spec.compile")});
    out.push_back({"core.heuristic_s", per_op("core.heuristic")});
    out.push_back({"core.verify_s", per_op("core.verify")});
    out.push_back({"core.verify_serial_s", verify_serial_s_ / ops});
    out.push_back({"core.verify.work_units", per_verify(stats_.work_units)});
    out.push_back({"core.verify.queries", per_verify(stats_.embedding_queries)});
    out.push_back({"core.verify.memo_hits", per_verify(stats_.memo_hits)});
    out.push_back({"core.verify.memo_hit_ratio",
                   q == 0 ? 0.0 : static_cast<double>(stats_.memo_hits) / q});
    out.push_back({"core.verify.index_seeks", per_verify(stats_.index_seeks)});
    out.push_back({"core.verify.bitset_skips", per_verify(stats_.bitset_skips)});
    out.push_back({"core.verify.arena_reuses", per_verify(stats_.arena_reuses)});
    out.push_back({"core.verify.arena_bytes_peak", static_cast<double>(stats_.arena_bytes_peak)});
    out.push_back({"core.verify.threads_used", static_cast<double>(stats_.threads_used)});
    out.push_back({"schedules_found", static_cast<double>(schedules_found_)});
  }

  [[nodiscard]] std::string notes() const override {
    return "\"specs\": " + std::to_string(specs_.size()) +
           ", \"schedules_per_round\": " + std::to_string(schedules_per_round_) +
           ", \"verify_parallel_specs\": " + std::to_string(parallel_specs_) +
           ", \"specs_near_cutoff\": " + std::to_string(near_cutoff_) +
           ", \"theorem3_over_cap\": " + std::to_string(over_cap_) +
           ", \"undecided_constraints\": " + std::to_string(undecided_);
  }

 protected:
  [[nodiscard]] std::size_t round_size() const override { return specs_.size(); }

  bool run_op(std::size_t i) override {
    const std::size_t k = order_[i];
    {
      Span s(tracer_, "spec.compile");
      last_.compiled = rtg::spec::compile_text(specs_[k]);
    }
    if (!last_.compiled.ok()) return false;
    {
      Span s(tracer_, "core.heuristic");
      last_.result = core::latency_schedule(*last_.compiled.model);
    }
    if (!last_.result.success) return true;
    if (tracer_.on()) {
      core::VerifyStats st;
      {
        Span s(tracer_, "core.verify");
        last_.report = core::verify_schedule(*last_.result.schedule, last_.result.scheduled_model,
                                             core::VerifyOptions{.stats = &st});
      }
      stats_ += st;
      ++verifies_;
    } else {
      last_.report = core::verify_schedule(*last_.result.schedule, last_.result.scheduled_model);
    }
    return true;
  }

  void after_op(std::size_t i) override {
    const std::size_t k = order_[i];
    Fnv fp;
    fp.add(last_.result.success);
    if (last_.result.success) {
      for (const auto& e : last_.result.schedule->entries()) {
        fp.add(e.elem);
        fp.add(static_cast<std::uint64_t>(e.duration));
      }
      for (const auto& v : last_.report.verdicts) {
        fp.add(v.satisfied);
        fp.add(v.latency ? static_cast<std::uint64_t>(*v.latency) : ~0ull);
      }
      fp.add(last_.report.feasible);
    }
    if (!fingerprint_[k]) {
      fingerprint_[k] = fp.h;
      check_first(k);
    } else {
      checks_.expect(*fingerprint_[k] == fp.h,
                     "spec " + std::to_string(k) + ": output differs from its first round");
    }
    schedules_found_ += last_.result.success && last_.report.feasible && accepted_[k] ? 1 : 0;
    last_ = Out{};
  }

 private:
  struct Out {
    rtg::spec::CompileResult compiled;
    core::HeuristicResult result;
    core::FeasibilityReport report;
  };

  // Every check of the first output of spec k.
  void check_first(std::size_t k) {
    const std::string tag = "spec " + std::to_string(k);
    checks_.expect(last_.compiled.ok(), tag + " did not compile");
    if (!last_.compiled.ok()) return;
    const oracle::Model original = to_oracle(*last_.compiled.model);
    const core::HeuristicResult& hr = last_.result;
    if (oracle::theorem3_hypotheses(original)) {
      // The heuristic refuses server hyperperiods above
      // HeuristicOptions::max_schedule_length even under the hypotheses
      // (a documented resource cap); such specs are counted, any other
      // refusal fails.
      const bool over_cap =
          oracle::server_hyperperiod(original, kMaxScheduleLength) > kMaxScheduleLength;
      if (over_cap && !hr.success &&
          hr.failure_reason.find("max_schedule_length") != std::string::npos) {
        ++over_cap_;
      } else {
        checks_.expect(hr.success, tag + " meets the Theorem-3 hypotheses but got no schedule (" +
                                       hr.failure_reason + ")");
      }
    }
    if (!hr.success) return;
    const oracle::Model scheduled = to_oracle(hr.scheduled_model);
    const oracle::Report rep = oracle::check_schedule(scheduled, to_oracle(*hr.schedule));
    undecided_ += rep.undecided;
    checks_.expect(reports_agree(last_.report, rep),
                   tag + ": verify_schedule disagrees with the window checker");
    if (oracle::refuted_by_bound(scheduled)) {
      checks_.expect(!last_.report.feasible, tag + " is refuted by the bound but reported feasible");
    }
    const core::FeasibilityReport serial = core::verify_schedule(
        *hr.schedule, hr.scheduled_model, core::VerifyOptions{.n_threads = 1});
    checks_.expect(serial == last_.report,
                   tag + ": default-thread report differs from n_threads=1");
    // Which path the calibrated cutoff picked for this spec.
    core::VerifyStats st;
    (void)core::verify_schedule(*hr.schedule, hr.scheduled_model, core::VerifyOptions{.stats = &st});
    decisions_.threads_used = std::max(decisions_.threads_used, st.threads_used);
    parallel_specs_ += st.threads_used > 1 ? 1 : 0;
    near_cutoff_ += st.work_units >= 1000 && st.work_units <= 10000 ? 1 : 0;
    accepted_[k] = rep.feasible;
    schedules_per_round_ += last_.report.feasible && rep.feasible ? 1 : 0;
  }

  std::vector<std::string> specs_;
  std::vector<std::size_t> order_;
  std::vector<std::optional<std::uint64_t>> fingerprint_;
  std::vector<bool> accepted_ = std::vector<bool>(kMedium + kLarge, false);
  Out last_;
  std::size_t schedules_found_ = 0;
  std::size_t schedules_per_round_ = 0;
  std::size_t parallel_specs_ = 0;
  std::size_t near_cutoff_ = 0;
  std::size_t over_cap_ = 0;
  std::size_t undecided_ = 0;
  core::VerifyStats stats_;
  std::size_t verifies_ = 0;
  double verify_serial_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_synth_verify(bool trace) {
  return std::make_unique<SynthVerify>(trace);
}

}  // namespace perfbench
