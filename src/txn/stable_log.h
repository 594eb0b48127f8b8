#ifndef MMDB_TXN_STABLE_LOG_H_
#define MMDB_TXN_STABLE_LOG_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "sim/stable_memory.h"
#include "txn/log_manager.h"

namespace mmdb {

struct StableLogOptions {
  /// Drop undo images before the disk write (§5.4: "only new values of
  /// committed transactions are ever written to disk" — about half the log).
  bool compress = true;
  /// Backpressure bound on the stable output queue. When the drainer falls
  /// behind, committers block until space frees — §5.4: "in the steady
  /// state, the number of transactions processed per second is still
  /// limited by how fast we can empty buffer pages".
  int64_t max_queue_bytes = 1 << 20;
};

/// §5.4's stable-memory log: transactions keep their log records in a
/// per-transaction area of battery-backed memory and COMMIT THE MOMENT the
/// commit record lands there — no disk wait at all. A background drainer
/// empties filled pages of the stable output queue to the log device; in
/// steady state throughput is still bounded by the device, but commit
/// latency is memory-speed and the disk log shrinks ~2× via new-value-only
/// compression.
///
/// Crash semantics: the per-transaction areas and the output queue live in
/// StableMemory and survive; recovery reads disk + stable queue (committed
/// work) and the areas of in-flight transactions (undo images).
class StableLogBuffer : public Wal {
 public:
  StableLogBuffer(StableMemory* stable, LogDevice* device,
                  StableLogOptions options = {},
                  MetricsRegistry* metrics = nullptr);
  ~StableLogBuffer() override;

  void Start() override;
  void Stop() override;

  Lsn Append(LogRecord rec) override;
  Lsn AppendCommit(LogRecord rec, const std::vector<TxnId>& deps) override;
  /// Returns immediately: stable memory IS durable.
  void WaitCommitDurable(TxnId /*txn*/) override {}
  void DiscardTxn(TxnId txn) override;
  std::vector<LogRecord> ReadAllForRecovery(
      LogReadStats* stats = nullptr) override;

  /// Bytes currently queued in stable memory awaiting drain.
  int64_t queued_bytes() const;

 private:
  static std::string TxnRegionName(TxnId txn);

  void DrainerLoop();

  StableMemory* stable_;
  LogDevice* device_;
  StableLogOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread drainer_;
  bool stop_ = false;
  std::unordered_set<TxnId> active_txns_;

  std::atomic<Lsn> next_lsn_{0};
};

}  // namespace mmdb

#endif  // MMDB_TXN_STABLE_LOG_H_
