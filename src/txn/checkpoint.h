#ifndef MMDB_TXN_CHECKPOINT_H_
#define MMDB_TXN_CHECKPOINT_H_

#include <atomic>
#include <chrono>
#include <thread>

#include "common/metrics.h"
#include "common/status.h"
#include "txn/recoverable_store.h"

namespace mmdb {

struct CheckpointerOptions {
  /// Pause between background sweeps.
  std::chrono::milliseconds sweep_interval{50};
  /// Max pages written per sweep (throttle; <= 0 = unlimited).
  int64_t pages_per_sweep = 0;
};

/// §5.3: "data pages are periodically written to disk by a background
/// process that sweeps through data buffers to find dirty pages". Because
/// the database never quiesces, the checkpoint is fuzzy — pages may carry
/// uncommitted data, which recovery undoes from the log's old values.
///
/// Every sweep, background or forced, counts "checkpoint.*" into the
/// registry passed at construction (a private one when null).
class Checkpointer {
 public:
  /// `wal` (optional) enforces the WAL rule per page before it is written.
  Checkpointer(RecoverableStore* store, FirstUpdateTable* fut,
               class Wal* wal = nullptr, CheckpointerOptions options = {},
               MetricsRegistry* metrics = nullptr);
  ~Checkpointer();

  /// One full sweep over the currently dirty pages. Returns pages written.
  StatusOr<int64_t> CheckpointOnce();

  /// Background mode.
  void Start();
  void Stop();

  MetricsRegistry* metrics() const { return counters_.registry(); }

 private:
  void Loop();

  RecoverableStore* store_;
  FirstUpdateTable* fut_;
  class Wal* wal_;
  CheckpointerOptions options_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  enum Counter { kPagesWritten, kSweeps, kNumCounters };
  MetricCounters<kNumCounters> counters_;
};

}  // namespace mmdb

#endif  // MMDB_TXN_CHECKPOINT_H_
