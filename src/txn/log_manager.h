#ifndef MMDB_TXN_LOG_MANAGER_H_
#define MMDB_TXN_LOG_MANAGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "txn/log_device.h"
#include "txn/log_record.h"

namespace mmdb {

/// Write-ahead-log abstraction the TransactionManager talks to. Two
/// implementations reproduce §5's ladder:
///   * GroupCommitLog, 1 device, group_commit=false — one log I/O per
///     commit, the ~100 tps baseline;
///   * GroupCommitLog, 1 device, group_commit=true — commit groups share a
///     page write, ~1000 tps;
///   * GroupCommitLog, k devices — partitioned log with the commit-group
///     dependency lattice (§5.2), ~k× further;
///   * StableLogBuffer (stable_log.h) — commit at memory speed, compressed
///     new-value-only disk log (§5.4).
///
/// Both count "log.*" into the registry passed at construction (a private
/// one when null). GroupCommitLog also records "log.group_size" (commits
/// per commit-carrying write), "log.write_us" (page-write time) and its
/// holds for returning committers ("log.lingers", "log.linger_timeouts").
class Wal {
 public:
  /// View over the "log.*" counters.
  struct Stats {
    int64_t device_writes = 0;
    int64_t device_bytes = 0;
    int64_t logical_bytes = 0;  ///< uncompressed log bytes generated
    int64_t commits = 0;
    double avg_commit_group = 0;  ///< commits per commit-carrying write
    int64_t io_retries = 0;      ///< transient write errors retried
    int64_t write_failures = 0;  ///< bounded retries exhausted (requeued)
  };

  /// What the recovery log scan had to tolerate (per ReadAllForRecovery).
  struct LogReadStats {
    int64_t corrupt_records_skipped = 0;  ///< checksum-failed, resynced past
    int64_t torn_tail_bytes = 0;          ///< partial tail discarded
    int64_t unreadable_pages = 0;         ///< zero-substituted log pages
    int64_t retries = 0;                  ///< transient read errors retried
  };

  explicit Wal(MetricsRegistry* metrics);
  virtual ~Wal() = default;

  virtual void Start() {}
  virtual void Stop() {}

  /// Power-failure stop: kill the background threads and DROP any volatile
  /// buffered bytes (a clean Stop flushes them instead). Media that are
  /// already durable (stable memory) lose nothing.
  virtual void CrashStop() { Stop(); }

  /// Appends a non-commit record; returns its assigned LSN.
  virtual Lsn Append(LogRecord rec) = 0;

  /// Appends a commit record carrying the transaction's dependency list
  /// (the pre-committed transactions whose locks it inherited); returns
  /// its LSN. The transaction is *pre-committed* from this moment.
  virtual Lsn AppendCommit(LogRecord rec, const std::vector<TxnId>& deps) = 0;

  /// Blocks until `txn`'s commit record is durable ("the user is not
  /// notified that the transaction has committed until this event").
  virtual void WaitCommitDurable(TxnId txn) = 0;

  /// Blocks until every record with LSN <= `lsn` that had been assigned
  /// when the call began is durable — the WAL rule the checkpointer needs
  /// before persisting a page, and the hot backup's end fence (forces
  /// partial-page flushes if necessary). Records assigned during the wait
  /// are not waited for, so a fence past the log's end means "everything
  /// so far". Default: no-op for already-durable media.
  virtual void WaitLsnDurable(Lsn lsn) { (void)lsn; }

  /// Releases any per-transaction buffered state after abort.
  virtual void DiscardTxn(TxnId /*txn*/) {}

  /// Post-crash: every durable record, merged across fragments in LSN
  /// order (the paper's sort-merge of log fragments). Corrupt records and
  /// unreadable pages are skipped and reported through `stats` (when
  /// non-null) rather than aborting the scan.
  virtual std::vector<LogRecord> ReadAllForRecovery(
      LogReadStats* stats = nullptr) = 0;

  /// Log shipping (backup capture, read replicas). The durable horizon is
  /// an LSN H such that every record with lsn < H is either durable on a
  /// log device or permanently gone (dropped by a crash) — no record below
  /// H is still in flight in a volatile buffer. A WAL that does not
  /// support shipping returns 0 (nothing readable below the horizon).
  virtual Lsn DurableHorizon() const { return 0; }

  /// The durable records with `from <= lsn < upto`, in LSN order. `upto`
  /// must not exceed DurableHorizon() at the time of the call; gaps are
  /// possible (records lost to a crash before reaching the device).
  virtual std::vector<LogRecord> ReadDurableRange(Lsn from, Lsn upto) {
    (void)from;
    (void)upto;
    return {};
  }

  Stats stats() const;
  MetricsRegistry* metrics() const { return counters_.registry(); }

 protected:
  enum Counter { kDeviceWrites, kDeviceBytes, kLogicalBytes, kCommits,
                 kIoRetries, kWriteFailures, kLingers, kLingerTimeouts,
                 kNumCounters };
  MetricCounters<kNumCounters> counters_;
  /// Commits per device write that made a commit durable (GroupCommitLog
  /// only); its mean is Stats::avg_commit_group.
  MetricHistogram* group_size_;
};

struct GroupCommitLogOptions {
  /// false: flush the log page immediately on every commit (baseline).
  bool group_commit = true;
  /// How long a partial page holding a pre-committed transaction may
  /// linger for more commits, counted from the oldest waiting commit's
  /// append. 0 (the default) means no fixed linger: the page goes out as
  /// soon as the device is idle, unless the log's own measurements say
  /// the committers the last write released are about to return and
  /// waiting for them costs less than the write it saves (see
  /// GroupCommitLog).
  std::chrono::microseconds flush_timeout{0};
};

/// §5.2's log manager over one or more log devices. Records append to a
/// per-stripe buffer; a flusher thread per stripe writes full pages, and
/// partial pages once a commit waits on them. The flusher is self-clocking:
/// while a page write is in flight, new commits queue in the buffer and
/// leave together in the next write, so the device's own latency paces
/// the groups and group size grows with load. Left at that, a small
/// closed-loop population splits into groups that never merge: the commit
/// queued behind a write goes out alone just before the committers that
/// write released return. So, under the default flush_timeout of 0, each
/// stripe measures the gap from a write's completion to the next commit
/// append and times its page writes. It holds a partial page for the
/// returning committers only while the expected group is incomplete and
/// the p90 gap falls inside the break-even horizon write time / (waiting
/// + 1), and no longer than that horizon after the release. A lone
/// committer never waits. Commit records become
/// durable when their bytes reach the device; with several stripes, a page
/// holding a commit whose dependencies are not yet durable is held back
/// (the topological commit-group ordering), flushing the safe prefix
/// instead.
class GroupCommitLog : public Wal {
 public:
  GroupCommitLog(std::vector<LogDevice*> devices,
                 GroupCommitLogOptions options,
                 MetricsRegistry* metrics = nullptr);
  ~GroupCommitLog() override;

  void Start() override;
  void Stop() override;
  void CrashStop() override;

  Lsn Append(LogRecord rec) override;
  Lsn AppendCommit(LogRecord rec, const std::vector<TxnId>& deps) override;
  void WaitCommitDurable(TxnId txn) override;
  void WaitLsnDurable(Lsn lsn) override;

  /// Non-blocking durability probe (tests assert the dependency-lattice
  /// invariant with it).
  bool IsCommitDurable(TxnId txn) const;
  std::vector<LogRecord> ReadAllForRecovery(
      LogReadStats* stats = nullptr) override;
  Lsn DurableHorizon() const override;
  std::vector<LogRecord> ReadDurableRange(Lsn from, Lsn upto) override;


 private:
  struct PendingRecord {
    Lsn lsn = kInvalidLsn;
    int64_t bytes_left;
    bool is_commit = false;
    TxnId txn = kInvalidTxn;
    std::vector<TxnId> deps;
    /// Commit records: when the commit was appended (the linger clock).
    std::chrono::steady_clock::time_point appended;
    /// Shared with ship_log_ once the bytes are durable, so log shipping
    /// can read the record back without touching the device.
    std::shared_ptr<const LogRecord> record;
  };

  using Clock = std::chrono::steady_clock;
  /// Return gaps a stripe remembers.
  static constexpr int kGapRing = 64;

  struct Stripe {
    LogDevice* device = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    std::string buffer;
    /// In LSN order: LSNs are assigned under `mu`, in queue order.
    std::deque<PendingRecord> pending;
    /// Commit records in `pending`.
    int64_t commits_waiting = 0;
    /// Append time of the oldest commit still in `pending`.
    Clock::time_point oldest_commit;
    /// The default policy's measurements. A release is a write that made
    /// commits durable; `expect` is the commits it made durable plus the
    /// commits queued behind it, the group its committers would form.
    Clock::time_point last_release;
    int64_t expect = 0;
    /// Set at a release; the next commit append records its return gap.
    bool awaiting_return = false;
    std::array<Clock::duration, kGapRing> gaps{};
    int64_t gaps_seen = 0;
    /// Moving average of this stripe's page-write time.
    Clock::duration write_time{0};
    /// Flush (partial pages allowed) until all records with lsn <= this
    /// are durable — set by WaitLsnDurable.
    Lsn force_upto = kInvalidLsn;
    std::thread flusher;
  };

  Lsn AppendInternal(LogRecord rec, bool is_commit,
                     const std::vector<TxnId>& deps);
  /// Sets the stop (and, for a crash, the crash) flag under every stripe
  /// mutex and wakes the flushers, so an idle flusher cannot miss it.
  void StopFlushers(bool crash);
  void FlusherLoop(Stripe* stripe);
  /// Default policy: when to stop holding a partial page for returning
  /// committers, or nullopt to write it now. Caller holds stripe->mu.
  std::optional<Clock::time_point> ReturnDeadline(const Stripe& stripe) const;
  /// Bytes at the front of `stripe->buffer` whose commits have all their
  /// dependencies durable (whole records only).
  int64_t SafeBytes(Stripe* stripe);
  /// Pops `n` bytes of pending records, written at `written`, marking
  /// completed commits durable (and counting the write's group before any
  /// waiter wakes).
  void AccountFlushed(Stripe* stripe, int64_t n, Clock::time_point written);

  std::vector<std::unique_ptr<Stripe>> stripes_;
  GroupCommitLogOptions options_;
  int64_t page_size_;
  MetricHistogram* write_us_;

  std::atomic<Lsn> next_lsn_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> crash_{false};

  mutable std::mutex durable_mu_;
  std::condition_variable durable_cv_;
  std::unordered_set<TxnId> durable_commits_;

  /// Shipping state: ship_log_ mirrors what the devices durably hold,
  /// keyed by LSN. Records are immutable once logged, so readers copy
  /// them outside ship_mu_.
  mutable std::mutex ship_mu_;
  std::map<Lsn, std::shared_ptr<const LogRecord>> ship_log_;
};

}  // namespace mmdb

#endif  // MMDB_TXN_LOG_MANAGER_H_
