// workload.cpp — the shared round loop and helpers (see workload.hpp).
#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return x;
}

Sampler::Sampler(const std::atomic<std::size_t>* completed)
    : completed_(completed), thread_([this] { loop(); }) {}

Sampler::~Sampler() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

std::vector<Sampler::Window> Sampler::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return std::move(windows_);
}

void Sampler::loop() {
  constexpr auto kWindow = std::chrono::milliseconds(100);
  auto start = Clock::now();
  double cpu0 = cpu_seconds();
  std::size_t done0 = completed_->load();
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto now = Clock::now();
    if (now - start < kWindow) continue;
    const double cpu = cpu_seconds();
    const std::size_t done = completed_->load();
    windows_.push_back(Window{done - done0, cpu - cpu0, seconds_between(start, now)});
    start = now;
    cpu0 = cpu;
    done0 = done;
  }
}

void Workload::run_timed(double seconds) {
  const auto start = Clock::now();
  do {
    // A round's time and CPU are those of its operations; the untimed
    // follow-ups (checks, fingerprints) are left out.
    Round round{latencies_ms_.size(), round_size(), 0.0, 0.0};
    for (std::size_t i = 0; i < round_size(); ++i) {
      tracer_.set_op(attempted_);
      const double c0 = cpu_seconds();
      const auto a = Clock::now();
      const bool ok = run_op(i);
      const double s = seconds_between(a, Clock::now());
      round.cpu_s += cpu_seconds() - c0;
      round.wall_s += s;
      latencies_ms_.push_back(1e3 * s);
      ++attempted_;
      failed_ += ok ? 0 : 1;
      after_op(i);
    }
    rounds_.push_back(round);
  } while (seconds_between(start, Clock::now()) < seconds);
}

namespace {

// Rounds (or windows) 1..: the first warms the program up (first
// allocations, pool spawns, cache fills). All of them when there is
// only one.
std::vector<std::size_t> after_warm_up(std::size_t n) {
  std::vector<std::size_t> idx;
  for (std::size_t r = n > 1 ? 1 : 0; r < n; ++r) idx.push_back(r);
  return idx;
}

// The quiet tenth of `idx`, ranked best first by `rank`, but at least
// `min_count` of them.
template <typename F>
std::vector<std::size_t> quiet_tenth(std::vector<std::size_t> idx, std::size_t min_count, F&& rank) {
  std::vector<double> key(idx.empty() ? 0 : idx.back() + 1);
  for (std::size_t r : idx) key[r] = rank(r);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
  const std::size_t n = std::max((idx.size() + 9) / 10, min_count);
  idx.resize(std::min(idx.size(), n));
  return idx;
}

}  // namespace

std::vector<std::size_t> Workload::quiet_rounds() const {
  const std::size_t min_count = (kQuietOps + round_size() - 1) / round_size();
  return quiet_tenth(after_warm_up(rounds_.size()), min_count,
                     [&](std::size_t r) { return rounds_[r].wall_s; });
}

std::vector<std::size_t> Workload::quiet_windows() const {
  return quiet_tenth(after_warm_up(windows_.size()), 1, [&](std::size_t w) {
    return -static_cast<double>(windows_[w].completed) / windows_[w].wall_s;
  });
}

double Workload::ops_per_s() const {
  double ops = 0;
  double wall = 0;
  if (rounds_.empty()) {
    for (std::size_t w : quiet_windows()) {
      ops += static_cast<double>(windows_[w].completed);
      wall += windows_[w].wall_s;
    }
  } else {
    for (std::size_t r : quiet_rounds()) {
      ops += static_cast<double>(rounds_[r].ops);
      wall += rounds_[r].wall_s;
    }
  }
  return wall > 0 ? ops / wall : 0.0;
}

double Workload::cpu_ms_per_op() const {
  double ops = 0;
  double cpu = 0;
  if (rounds_.empty()) {
    for (std::size_t w : quiet_windows()) {
      ops += static_cast<double>(windows_[w].completed);
      cpu += windows_[w].cpu_s;
    }
  } else {
    for (std::size_t r : quiet_rounds()) {
      ops += static_cast<double>(rounds_[r].ops);
      cpu += rounds_[r].cpu_s;
    }
  }
  return ops > 0 ? 1e3 * cpu / ops : 0.0;
}

double Workload::op_ms(double q) const {
  // The service's concurrent clients do not run in rounds: all of its
  // latencies.
  if (rounds_.empty()) return percentile(latencies_ms_, q);
  std::vector<double> quiet;
  for (std::size_t r : quiet_rounds()) {
    const auto first = latencies_ms_.begin() + static_cast<std::ptrdiff_t>(rounds_[r].first);
    quiet.insert(quiet.end(), first, first + static_cast<std::ptrdiff_t>(rounds_[r].ops));
  }
  return percentile(std::move(quiet), q);
}

double Workload::per_op(const char* name) const {
  std::map<std::string, Tracer::LayerTime> layers;
  std::vector<const Tracer*> tracers;
  collect_spans(tracers);
  for (const Tracer* t : tracers) t->accumulate(layers);
  const auto it = layers.find(name);
  if (it == layers.end() || attempted_ == 0) return 0.0;
  return it->second.self_s / static_cast<double>(attempted_);
}

}  // namespace perfbench
