// thread_pool.hpp — a plain FIFO thread pool and the process-wide
// compute fan-out built on it.
//
// ThreadPool is one mutex-guarded queue drained by a fixed set of
// workers. parallel_for is the engines' only way to go parallel: it
// runs on one lazily built pool shared by the whole process (sized to
// the hardware concurrency), so a parallel verification or seam check
// costs a few queue pushes instead of a thread spawn and join.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rtg::util {

/// Resolves a user-facing thread-count knob into a count worth running
/// *compute* threads at: 0 means "auto" (the hardware concurrency, at
/// least 1); any other value is clamped to the hardware concurrency —
/// workers beyond the physical cores cannot run in parallel, they only
/// preempt the ones that do. Engines partition and report by the
/// *requested* count (results and stats stay a function of the knob,
/// not the machine) and pass this as parallel_for's width.
[[nodiscard]] std::size_t resolve_threads(std::size_t n_threads);

class ThreadPool {
 public:
  /// Spawns `n_threads` workers (0 = hardware concurrency). An explicit
  /// count is honoured as given, even past the core count.
  explicit ThreadPool(std::size_t n_threads = 0);
  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return threads_.size(); }

  /// Appends a task to the queue; tasks start in submission order. A
  /// task must not throw: as with std::thread, an exception escaping it
  /// ends the program.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running. Tasks may
  /// submit further tasks; wait_idle() covers those too. Must not be
  /// called from inside a task of the same pool.
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mutex_;  // guards queue_, in_flight_, stopping_
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // tasks queued or currently running
  bool stopping_ = false;
  std::vector<std::thread> threads_;  // last: the workers use every member above
};

/// Runs fn(i) for every i in [0, n) and blocks until all n calls have
/// returned. At most `width` threads run them: the calling thread plus
/// up to width - 1 workers of the process-wide pool, all claiming
/// indices from one shared counter. The caller waits only for its own
/// n calls, so concurrent and nested calls are safe — a nested call
/// whose helpers are stuck behind busy workers simply runs its indices
/// itself. With width <= 1 or n <= 1 the calls run inline, in order.
/// If some call throws, the remaining indices are skipped and the first
/// exception is rethrown once every started call has returned.
void parallel_for(std::size_t n, std::size_t width,
                  const std::function<void(std::size_t)>& fn);

}  // namespace rtg::util
