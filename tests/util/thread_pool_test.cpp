// Shutdown ordering and drain semantics of the FIFO pool, and the
// shared-pool parallel_for. These run under TSan in CI: the destructor's
// drain-before-stop ordering and the in-flight accounting behind
// wait_idle are exactly the kind of races that only a sanitized
// regression test keeps fixed.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace rtg::util {
namespace {

TEST(ThreadPool, DestructorRunsEverySubmittedTask) {
  // Destroy the pool while tasks are still queued/running; the
  // drain-then-stop shutdown order must run all of them, not strand
  // any in the queue.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No wait_idle(): the destructor must do the draining itself.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, WaitIdleCoversNestedSubmissions) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &ran] {
      ran.fetch_add(1);
      pool.submit([&pool, &ran] {
        ran.fetch_add(1);
        pool.submit([&ran] { ran.fetch_add(1); });
      });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 24);
}

TEST(ThreadPool, RepeatedWaitIdleIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.wait_idle();  // idle pool: returns immediately
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ManyShortLivedPoolsShutDownCleanly) {
  // Rapid construct/submit/destroy cycles must not race the worker
  // startup path.
  std::atomic<int> ran{0};
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), 500);
}

TEST(ResolveThreads, ClampsToHardwareConcurrency) {
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  EXPECT_EQ(resolve_threads(0), hw);  // auto
  EXPECT_EQ(resolve_threads(1), 1u);
  // Requests past the core count resolve to the core count: running
  // more compute workers than cores only adds preemption (E16).
  EXPECT_EQ(resolve_threads(hw), hw);
  EXPECT_EQ(resolve_threads(hw + 7), hw);
  EXPECT_EQ(resolve_threads(1000), hw);
}

TEST(ThreadPool, ConstructorHonorsExplicitOversubscribedCount) {
  // A caller that parks one resident (blocking) task per worker needs
  // an explicit count to produce exactly that many threads even past
  // the core count — clamping here would deadlock it.
  ThreadPool pool(8);
  EXPECT_EQ(pool.size(), 8u);
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&parked, &release] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
  }
  // All eight residents must be running *simultaneously*.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (parked.load() < 8 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(parked.load(), 8);
  release.store(true);
  pool.wait_idle();
}

TEST(ThreadPool, OversubscribedPoolDrainsPromptly) {
  // Regression for the E16 collapse: a pool with more workers than
  // cores must drain a burst of small tasks in bounded time instead of
  // livelocking on spin loops. The generous bound only guards against
  // the pathological pre-fix behavior (seconds of scheduler thrash).
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<int> ran{0};
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(8);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(ran.load(), 20 * 64);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(seconds, 20.0);
}

TEST(ThreadPool, ParallelForVisitsEachIndexOnce) {
  std::vector<std::atomic<int>> visits(1000);
  parallel_for(visits.size(), 4,
               [&visits](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForRethrowsAfterEveryStartedCallReturns) {
  std::atomic<int> running{0};
  EXPECT_THROW(parallel_for(64, 4,
                            [&](std::size_t i) {
                              running.fetch_add(1);
                              std::this_thread::sleep_for(std::chrono::microseconds(200));
                              running.fetch_sub(1);
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // No call may still be running once parallel_for has rethrown.
  EXPECT_EQ(running.load(), 0);
}

}  // namespace
}  // namespace rtg::util
