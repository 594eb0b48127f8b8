#include "common/thread_pool.h"

#include "common/check.h"

namespace mmdb {

ThreadPool::ThreadPool(int num_threads) {
  MMDB_CHECK(num_threads >= 1);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    MMDB_CHECK_MSG(!shutdown_, "Submit on a shut-down ThreadPool");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown requested and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // an exception lands in the task's future, not on this thread
  }
}

}  // namespace mmdb
