#ifndef MMDB_COMMON_THREAD_POOL_H_
#define MMDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace mmdb {

/// A fixed-size worker pool (the SQL scheduler's statement workers, the
/// instant-recovery background restorer).
///
/// Guarantees:
///  * tasks are dequeued in submission order (FIFO dispatch — with one
///    worker thread, execution order equals submission order);
///  * Submit is safe from any thread, including from inside a running task
///    (reentrant submit): the queue lock is never held while a task runs;
///  * an exception escaping a task is captured in that task's future and
///    rethrown from future::get(); the worker thread survives;
///  * the destructor finishes every already-submitted task, then joins.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Enqueues `fn`. The returned future becomes ready when `fn` completes
  /// and rethrows anything `fn` threw.
  std::future<void> Submit(std::function<void()> fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace mmdb

#endif  // MMDB_COMMON_THREAD_POOL_H_
