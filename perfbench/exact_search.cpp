// exact_search: the spec_compiler --exact path. One operation compiles a
// corpus spec, pipelines it and runs core::exact_feasible with default
// options and one fixed state budget.
#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "adapt.hpp"
#include "core/feasibility.hpp"
#include "core/heuristic.hpp"
#include "core/pipeline.hpp"
#include "gen/generator.hpp"
#include "oracle.hpp"
#include "spec/compile.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = rtg::core;
namespace gen = rtg::gen;
using Span = Tracer::Span;
using Status = core::FeasibilityStatus;

class ExactSearch final : public Workload {
 public:
  static constexpr std::size_t kBudget = 60'000;
  /// Decided by the serial search within kBudget (53932 states), while
  /// the default search spends more than twice the budget on it in
  /// every run seen: its kUnknown is the kept failure (FOUND in
  /// CHANGES.md).
  static constexpr std::uint64_t kFaulty = 161;

  using Workload::Workload;

  // Corpus indices 0..199 whose serial search decides within kBudget / 8
  // and whose default search stayed below kBudget / 8 in 30 repeats and
  // decided all of 100 more (at a 30000 budget for 0..119, at kBudget for
  // 120..199), plus kFaulty. kFaulty is under 1% of the operations, so
  // op_p95_ms lies in the tail of the decided searches. Indices whose
  // default-thread status flips between runs are left out; see README
  // "exact_search".
  static const std::vector<std::uint64_t>& instances() {
    static const std::vector<std::uint64_t> kKept = {
        0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 13, 15, 16, 17, 18, 19, 20,
        21, 23, 24, 25, 27, 28, 29, 30, 32, 33, 35, 36, 37, 38, 39, 40, 42,
        43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 56, 58, 59, 60, 61,
        62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 75, 76, 77, 78, 80,
        81, 82, 84, 87, 88, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 100, 101,
        102, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119,
        120, 121, 122, 123, 124, 125, 126, 127, 128, 129, 131, 132, 133, 135, 136, 137, 138,
        139, 140, 141, 142, 144, 145, 146, 147, 148, 149, 150, 152, 153, 154, 156, 157, 158,
        159, 162, 163, 165, 166, 167, 168, 169, 170, 171, 172, 173, 174, 175, 176, 177, 178,
        179, 180, 181, 182, 183, 184, 185, 186, 187, 188, 189, 190, 191, 192, 193, 195, 196,
        197, 198, 199, kFaulty};
    return kKept;
  }

  void generate(std::uint64_t seed) override {
    for (std::uint64_t i : instances()) {
      specs_.push_back(gen::generate(gen::corpus_options(i)).spec);
    }
    order_.resize(specs_.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::mt19937_64 rng(mix(seed, 2));
    std::shuffle(order_.begin(), order_.end(), rng);
    reference_.resize(specs_.size());
  }

  void setup() override { decisions_.cutoff = core::serial_parallel_cutoff(); }

  void layer_metrics(std::vector<Metric>& out) override {
    const double ops = static_cast<double>(std::max<std::size_t>(1, attempted_));
    const double exact_s = per_op("core.exact");
    const double states = static_cast<double>(states_) / ops;
    out.push_back({"spec.compile_s", per_op("spec.compile")});
    out.push_back({"core.pipeline_s", per_op("core.pipeline")});
    out.push_back({"core.exact_s", exact_s});
    out.push_back({"core.exact.states", states});
    out.push_back({"core.exact.states_per_s", exact_s == 0 ? 0.0 : states / exact_s});
    out.push_back({"core.exact_serial_s",
                   serial_s_ / static_cast<double>(std::max<std::size_t>(1, specs_.size()))});
    out.push_back({"exact_decided", static_cast<double>(decided_)});
    out.push_back({"schedules_found", static_cast<double>(found_)});
  }

  [[nodiscard]] std::string notes() const override {
    return "\"instances\": " + std::to_string(specs_.size()) + ", \"state_budget\": " +
           std::to_string(kBudget) + ", \"faulty_index\": " + std::to_string(kFaulty) +
           ", \"decided\": " + std::to_string(decided_) + ", \"distinct_witnesses\": " +
           std::to_string(witnesses_);
  }

 protected:
  [[nodiscard]] std::size_t round_size() const override { return specs_.size(); }

  bool run_op(std::size_t i) override {
    const std::size_t k = order_[i];
    std::optional<rtg::spec::CompileResult> compiled;
    {
      Span s(tracer_, "spec.compile");
      compiled = rtg::spec::compile_text(specs_[k]);
    }
    if (!compiled->ok()) return false;
    {
      Span s(tracer_, "core.pipeline");
      model_ = core::pipeline_model(*compiled->model).model;
    }
    core::ExactOptions opts;
    opts.state_budget = kBudget;
    {
      Span s(tracer_, "core.exact");
      result_ = core::exact_feasible(model_, opts);
    }
    // Every kept instance is decided by the serial search within the
    // budget (after_op confirms it), so an exhausted budget is a failure.
    return result_.status != Status::kUnknown;
  }

  void after_op(std::size_t i) override {
    check_op(order_[i]);
    model_ = core::GraphModel{};
    result_ = core::ExactResult{};
  }

 private:
  struct Reference {
    Status serial = Status::kUnknown;
    bool heuristic_accepted = false;
  };

  void check_op(std::size_t k) {
    const std::string tag = "corpus index " + std::to_string(instances()[k]);
    states_ += result_.states_explored;
    if (!reference_[k]) reference_[k] = make_reference();
    const Reference& ref = *reference_[k];
    checks_.expect(ref.serial != Status::kUnknown,
                   tag + ": the serial search does not decide it within the budget");
    if (result_.status == Status::kUnknown) {
      checks_.expect(instances()[k] == kFaulty,
                     tag + ": default search returned kUnknown, serial search decided");
      return;
    }
    checks_.expect(result_.status == ref.serial, tag + ": status differs from the serial search");
    ++decided_;
    if (result_.status == Status::kInfeasible) {
      checks_.expect(!ref.heuristic_accepted,
                     tag + ": kInfeasible although the heuristic's schedule passes the checker");
      return;
    }
    // kFeasible: every distinct witness passes the window checker.
    const bool has = result_.schedule.has_value();
    checks_.expect(has, tag + ": kFeasible without a witness");
    if (!has) return;
    Fnv fp;
    for (const auto& e : result_.schedule->entries()) {
      fp.add(e.elem);
      fp.add(static_cast<std::uint64_t>(e.duration));
    }
    if (!accepted_witnesses_.count({k, fp.h}) && !rejected_witnesses_.count({k, fp.h})) {
      ++witnesses_;
      const bool ok = oracle::check_schedule(to_oracle(model_), to_oracle(*result_.schedule)).feasible;
      (ok ? accepted_witnesses_ : rejected_witnesses_).insert({k, fp.h});
    }
    const bool ok = accepted_witnesses_.count({k, fp.h}) > 0;
    checks_.expect(ok, tag + ": kFeasible witness fails the window checker");
    found_ += ok ? 1 : 0;
  }

  // The serial search's answer and whether the heuristic's schedule
  // passes the checker (which rules out kInfeasible).
  Reference make_reference() {
    Reference ref;
    core::ExactOptions opts;
    opts.state_budget = kBudget;
    opts.n_threads = 1;
    const auto t0 = Clock::now();
    ref.serial = core::exact_feasible(model_, opts).status;
    serial_s_ += seconds_between(t0, Clock::now());
    const core::HeuristicResult h = core::latency_schedule(model_);
    ref.heuristic_accepted =
        h.success &&
        oracle::check_schedule(to_oracle(h.scheduled_model), to_oracle(*h.schedule)).feasible;
    return ref;
  }

  std::vector<std::string> specs_;
  std::vector<std::size_t> order_;
  std::vector<std::optional<Reference>> reference_;
  core::GraphModel model_;
  core::ExactResult result_;
  std::set<std::pair<std::size_t, std::uint64_t>> accepted_witnesses_;
  std::set<std::pair<std::size_t, std::uint64_t>> rejected_witnesses_;
  std::size_t witnesses_ = 0;
  std::size_t states_ = 0;
  std::size_t decided_ = 0;
  std::size_t found_ = 0;
  double serial_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_exact_search(bool trace) {
  return std::make_unique<ExactSearch>(trace);
}

}  // namespace perfbench
