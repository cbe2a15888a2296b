#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace rtg::util {

namespace {

// The process-wide compute pool behind parallel_for, built on first use.
ThreadPool& compute_pool() {
  static ThreadPool pool(resolve_threads(0));
  return pool;
}

// One parallel_for call. Helpers hold it by shared_ptr: a helper that
// starts after the caller has returned finds no index left and touches
// nothing but this state.
struct ForState {
  ForState(std::size_t count, const std::function<void(std::size_t)>& body)
      : n(count), fn(body) {}

  const std::size_t n;
  const std::function<void(std::size_t)>& fn;  // only called on a claimed index
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;  // guards error; pairs with cv for the caller's wait
  std::condition_variable cv;
  std::exception_ptr error;

  // Claims and runs indices until none is left.
  void drain() {
    for (std::size_t i = next++; i < n; i = next++) {
      if (!failed) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
          failed = true;
        }
      }
      if (++done == n) {
        std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

std::size_t resolve_threads(std::size_t n_threads) {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t hw = hw_raw == 0 ? 1 : static_cast<std::size_t>(hw_raw);
  if (n_threads == 0) return hw;
  return std::min(n_threads, hw);
}

ThreadPool::ThreadPool(std::size_t n_threads) {
  const std::size_t n = n_threads == 0 ? resolve_threads(0) : n_threads;
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  // Workers leave only once stopping_ is set *and* the queue is empty,
  // so every task queued before or during shutdown still runs.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    bool idle;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      idle = --in_flight_ == 0;
    }
    if (idle) idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void parallel_for(std::size_t n, std::size_t width,
                  const std::function<void(std::size_t)>& fn) {
  if (width <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool& pool = compute_pool();
  const auto state = std::make_shared<ForState>(n, fn);
  const std::size_t helpers = std::min({width, n, pool.size() + 1}) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state] { state->drain(); });
  }
  state->drain();
  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&state] { return state->done == state->n; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace rtg::util
