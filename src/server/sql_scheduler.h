#ifndef MMDB_SERVER_SQL_SCHEDULER_H_
#define MMDB_SERVER_SQL_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace mmdb {

class Session;

/// Dispatches session statements onto a private worker pool with bounded
/// admission (DESIGN.md §10). A statement is *admitted* (counted against
/// the queue bound from submission until completion) or *rejected* with a
/// distinct status the client can use for backpressure:
///  * kOverloaded    — the scheduler-wide bound or the submitting session's
///                     in-flight cap is full; retry after backing off;
///  * kFailedPrecondition — the scheduler is draining (server shutdown).
///
/// Drain() stops admission and blocks until every admitted statement has
/// finished, which is what lets Server::Shutdown stop the checkpointer and
/// log flusher afterwards without yanking them out from under running
/// statements.
class SqlScheduler {
 public:
  struct Options {
    int num_workers = 4;
    /// Max statements admitted (queued + executing) across all sessions.
    int max_queue_depth = 128;
    /// Max statements admitted per session at once (a client pipelining
    /// deeper than this is rejected, not queued).
    int max_inflight_per_session = 4;
  };

  /// `metrics` receives the server.admission.* counters (may be null).
  SqlScheduler(Options options, MetricsRegistry* metrics);
  ~SqlScheduler();

  SqlScheduler(const SqlScheduler&) = delete;
  SqlScheduler& operator=(const SqlScheduler&) = delete;

  /// Admits and enqueues `work` on behalf of `session` (null for
  /// sessionless work: only the queue bound applies). `work` runs on a
  /// worker thread and returns a *publish* continuation (may be empty),
  /// which the scheduler invokes only after releasing the statement's
  /// admission slots. Fulfil the caller-visible future in the publish
  /// step, not in `work`: a closed-loop client woken by the future then
  /// resubmits against up-to-date counters instead of racing the
  /// decrement and drawing a spurious kOverloaded.
  Status Submit(Session* session,
                std::function<std::function<void()>()> work);

  /// Stops admission (new Submits fail kFailedPrecondition) and waits for
  /// all admitted work to finish. Idempotent.
  void Drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Admitted-but-unfinished statement count (tests/bench).
  int64_t admitted_in_flight() const {
    return admitted_.load(std::memory_order_acquire);
  }

  /// Test hook: runs on the worker thread immediately before each admitted
  /// statement executes. Lets tests hold workers to fill the queue
  /// deterministically. Set before submitting; not synchronized against
  /// in-flight work.
  void set_before_execute_hook(std::function<void()> hook) {
    hook_ = std::move(hook);
  }

 private:
  /// Gives one scheduler-wide admission slot back: decrement under mu_,
  /// then wake Drain(). Used by completion and every admission-undo path.
  void ReleaseAdmittedSlot();

  Options options_;
  MetricsRegistry* metrics_;
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> admitted_{0};
  std::mutex mu_;
  std::condition_variable drained_cv_;
  std::function<void()> hook_;
  /// The statement workers; drain waits for exactly this queue.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace mmdb

#endif  // MMDB_SERVER_SQL_SCHEDULER_H_
