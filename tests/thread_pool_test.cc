#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

namespace mmdb {
namespace {

TEST(ThreadPoolTest, StartupAndShutdownIdle) {
  // A pool that never receives work must still construct and join cleanly.
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadExecutesInSubmissionOrder) {
  // FIFO dispatch: with one worker, execution order == submission order.
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFutureAndWorkerSurvives) {
  ThreadPool pool(2);
  std::future<void> bad =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still process new work.
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([&] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPoolTest, ReentrantSubmitFromInsideATask) {
  // A running task may submit follow-up work to the same pool without
  // deadlocking — the queue lock is not held while tasks run.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::future<void> inner_future;
  std::future<void> outer = pool.Submit([&] {
    inner_future = pool.Submit([&] { ran.fetch_add(1); });
    ran.fetch_add(1);
  });
  outer.get();
  inner_future.get();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 30; ++i) {
      // Small sleep so most tasks are still queued at destruction time.
      pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      });
    }
  }  // ~ThreadPool: finishes every already-submitted task, then joins.
  EXPECT_EQ(ran.load(), 30);
}

TEST(ThreadPoolTest, ManyConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  std::mutex mu;
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        std::future<void> f = pool.Submit([&] { ran.fetch_add(1); });
        std::lock_guard<std::mutex> lock(mu);
        futures.push_back(std::move(f));
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 100);
}

}  // namespace
}  // namespace mmdb
