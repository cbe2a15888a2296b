// workload.hpp — the shape every benchmark workload shares.
//
// A workload generates its inputs from the seed (the benchmark's own
// work, excluded from set-up time), does the program's set-up, then runs
// whole rounds of the same operations until the run length has passed.
// The first occurrence of every distinct operation is checked against
// the independent checker right after it runs (outside the operation's
// latency); later occurrences are compared with the first by
// fingerprint. The timing metrics are taken over the quiet rounds
// (see Workload::quiet_rounds), never over round 0, whose warm-up does
// not enter them.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// A measured value; its unit comes from BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0;
};

/// Records every check; the first failure is the run's one-line reason.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++checked_;
    if (ok) return;
    ++failed_;
    if (first_.empty()) first_ = what;
  }
  void merge(const Checks& o) {
    checked_ += o.checked_;
    failed_ += o.failed_;
    if (first_.empty()) first_ = o.first_;
  }
  [[nodiscard]] bool ok() const { return failed_ == 0; }
  [[nodiscard]] const std::string& first() const { return first_; }
  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::string first_;
  std::size_t checked_ = 0;
  std::size_t failed_ = 0;
};

/// Timing decisions the program made, reported with every run.
struct Decisions {
  std::size_t cutoff = 0;        ///< core::serial_parallel_cutoff()
  std::size_t threads_used = 0;  ///< max VerifyStats::threads_used seen
};

/// Closes a window every 100 ms, on its own thread, with the window's
/// completions and the process's CPU time in it.
class Sampler {
 public:
  struct Window {
    std::size_t completed = 0;
    double cpu_s = 0;
    double wall_s = 0;
  };
  explicit Sampler(const std::atomic<std::size_t>* completed);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  /// Stops sampling and returns the closed windows.
  std::vector<Window> stop();

 private:
  void loop();
  const std::atomic<std::size_t>* completed_;
  std::atomic<bool> stop_{false};
  std::vector<Window> windows_;
  std::thread thread_;  // last: runs loop() over the members above
};

class Workload {
 public:
  explicit Workload(bool trace) : tracer_(trace) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// The benchmark's own input generation and reference computations.
  virtual void generate(std::uint64_t seed) = 0;
  /// The program's set-up before the first timed operation.
  virtual void setup() = 0;
  /// Runs whole rounds until `seconds` have passed.
  virtual void run_timed(double seconds);
  /// Checks that need the whole run (after timing).
  virtual void finish() {}
  /// Per-layer metrics of a traced run.
  virtual void layer_metrics(std::vector<Metric>& out) = 0;
  /// Workload facts for the host line, as JSON members.
  [[nodiscard]] virtual std::string notes() const = 0;
  virtual void collect_spans(std::vector<const Tracer*>& out) const { out.push_back(&tracer_); }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] std::size_t rounds() const { return rounds_.size(); }
  [[nodiscard]] std::size_t whole_rounds() const { return attempted_ / round_size(); }
  [[nodiscard]] const Checks& checks() const { return checks_; }
  [[nodiscard]] const Decisions& decisions() const { return decisions_; }
  /// Operations per wall second and CPU ms per operation over the quiet
  /// rounds (quiet sampler windows for a workload without rounds).
  [[nodiscard]] double ops_per_s() const;
  [[nodiscard]] double cpu_ms_per_op() const;
  /// Percentile `q` of the latencies of the quiet rounds (of all
  /// latencies for a workload without rounds).
  [[nodiscard]] double op_ms(double q) const;

 protected:
  [[nodiscard]] virtual std::size_t round_size() const = 0;
  /// One operation (timed); false = the operation failed.
  virtual bool run_op(std::size_t i) = 0;
  /// Untimed follow-up of operation i (checks, fingerprints).
  virtual void after_op(std::size_t) {}

  /// Per-operation mean of a span name's self time, in seconds.
  [[nodiscard]] double per_op(const char* name) const;

  Tracer tracer_;
  Checks checks_;
  Decisions decisions_;
  std::vector<Sampler::Window> windows_;
  std::vector<double> latencies_ms_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;

 private:
  /// One round: its operations' latencies are latencies_ms_[first,
  /// first + ops); its time and CPU are summed over those operations.
  struct Round {
    std::size_t first = 0;
    std::size_t ops = 0;
    double wall_s = 0;
    double cpu_s = 0;
  };
  /// The quiet rounds always hold at least this many operations, so
  /// that fifty lie beyond their 95th percentile.
  static constexpr std::size_t kQuietOps = 1000;

  /// Every round runs the same operations, so rounds differ only by
  /// what the host does meanwhile, which changes in phases of seconds
  /// to minutes. The quiet rounds are the fastest tenth of rounds 1..,
  /// or as many more as hold kQuietOps operations. A change in the
  /// program moves every round, the fastest ones included.
  [[nodiscard]] std::vector<std::size_t> quiet_rounds() const;
  /// The tenth of sampler windows 1.. with the most completions per
  /// second (at least one).
  [[nodiscard]] std::vector<std::size_t> quiet_windows() const;

  std::vector<Round> rounds_;
};

// Helpers shared by the workloads.
double cpu_seconds();
double percentile(std::vector<double> v, double q);
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// FNV-1a accumulator for output fingerprints.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

std::unique_ptr<Workload> make_synth_verify(bool trace);
std::unique_ptr<Workload> make_exact_search(bool trace);
std::unique_ptr<Workload> make_service_batch(bool trace, const std::string& scratch);
std::unique_ptr<Workload> make_fault_heal(bool trace);

}  // namespace perfbench
