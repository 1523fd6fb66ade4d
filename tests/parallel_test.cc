// ThreadPool semantics — the pool the serving tests and bench run their
// concurrent reader sessions on — and the debug check that keeps pool
// workers off the thread-local ExecContext fallback.

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "exec/exec_context.h"

namespace lsens {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&](size_t) { ran.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, WorkerIndexStaysInRange) {
  ThreadPool pool(3);
  std::atomic<bool> out_of_range{false};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&](size_t worker) {
      if (worker >= 3) out_of_range.store(true);
    });
  }
  pool.Wait();
  EXPECT_FALSE(out_of_range.load());
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&](size_t) { ran.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(ran.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&, i](size_t) {
      if (i == 3) throw std::runtime_error("task 3 failed");
      ran.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // Non-throwing tasks of the batch all still ran, and the pool is usable.
  EXPECT_EQ(ran.load(), 7);
  pool.Submit([&](size_t) { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesPoolThreads) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(2);
  std::atomic<bool> on_worker{false};
  pool.Submit([&](size_t) { on_worker.store(ThreadPool::OnWorkerThread()); });
  pool.Wait();
  EXPECT_TRUE(on_worker.load());
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

// Task accounting is per submitting thread: two top-level callers sharing
// one pool never wait on — or receive exceptions from — each other.
TEST(ThreadPoolTest, ConcurrentCallersAreIndependent) {
  ThreadPool pool(4);
  std::atomic<int> ok_ran{0};
  bool clean_caller_threw = false;
  bool failing_caller_threw = false;
  std::thread clean_caller([&] {
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&](size_t) { ok_ran.fetch_add(1); });
    }
    try {
      pool.Wait();
    } catch (...) {
      clean_caller_threw = true;
    }
  });
  std::thread failing_caller([&] {
    for (int i = 0; i < 32; ++i) {
      pool.Submit([i](size_t) {
        if (i == 7) throw std::runtime_error("failing caller's task");
      });
    }
    try {
      pool.Wait();
    } catch (const std::runtime_error&) {
      failing_caller_threw = true;
    }
  });
  clean_caller.join();
  failing_caller.join();
  EXPECT_FALSE(clean_caller_threw);
  EXPECT_TRUE(failing_caller_threw);
  EXPECT_EQ(ok_ran.load(), 32);
}

// Death tests fork; keep them away from sanitizer-threaded runs. GCC
// defines __SANITIZE_THREAD__ under -fsanitize=thread; Clang only reports
// it through __has_feature(thread_sanitizer).
#if defined(__SANITIZE_THREAD__)
#define LSENS_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LSENS_TSAN_BUILD 1
#endif
#endif
#ifndef LSENS_TSAN_BUILD
#define LSENS_TSAN_BUILD 0
#endif

#if !LSENS_TSAN_BUILD
TEST(ThreadPoolDeathTest, NestedSubmissionRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Submit([&](size_t) { pool.Submit([](size_t) {}); });
        pool.Wait();
      },
      "nested ThreadPool submission");
}

#ifndef NDEBUG
TEST(ThreadPoolDeathTest, PooledWorkerMustNotHitThreadLocalFallback) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.Submit([](size_t) { DefaultExecContext(); });
        pool.Wait();
      },
      "fallback hit on a pool worker");
}
#endif  // NDEBUG
#endif  // !LSENS_TSAN_BUILD

}  // namespace
}  // namespace lsens
