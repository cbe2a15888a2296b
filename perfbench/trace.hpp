// trace.hpp — the benchmark's span recorder.
//
// A span is one public call the benchmark makes into a layer: name,
// start, end, parent span and operation id. Spans stay in memory (one
// recorder per thread) and are written out when the run ends. With
// tracing off a Span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  const char* name = "";
  std::uint64_t op = 0;
  int parent = -1;  ///< index into the same recorder, -1 = root
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }
  void set_op(std::uint64_t op) { op_ = op; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  class Span {
   public:
    Span(Tracer& t, const char* name) : t_(t.on_ ? &t : nullptr) {
      if (t_ == nullptr) return;
      idx_ = static_cast<int>(t_->spans_.size());
      t_->spans_.push_back(SpanRecord{name, t_->op_, t_->current_, Clock::now(), {}});
      t_->current_ = idx_;
    }
    ~Span() {
      if (t_ == nullptr) return;
      t_->spans_[idx_].end = Clock::now();
      t_->current_ = t_->spans_[idx_].parent;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  /// Total and self seconds per span name (self = duration minus the
  /// time covered by direct children).
  struct LayerTime {
    double total_s = 0;
    double self_s = 0;
    std::size_t calls = 0;
  };
  void accumulate(std::map<std::string, LayerTime>& out) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) child[s.parent] += seconds_between(s.start, s.end);
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = seconds_between(spans_[i].start, spans_[i].end);
      LayerTime& lt = out[spans_[i].name];
      lt.total_s += d;
      lt.self_s += d - child[i];
      ++lt.calls;
    }
  }

 private:
  bool on_;
  std::uint64_t op_ = 0;
  int current_ = -1;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
