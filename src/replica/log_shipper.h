#ifndef MMDB_REPLICA_LOG_SHIPPER_H_
#define MMDB_REPLICA_LOG_SHIPPER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/status.h"
#include "replica/replica.h"
#include "txn/log_manager.h"

namespace mmdb {

/// Streams the primary's durable log to a Replica. The cursor only ever
/// chases the primary's durable horizon, so every shipped record is
/// group-commit durable on the primary first — a promoted replica can
/// never be AHEAD of what the primary acknowledged.
///
/// Two drive modes: Start() spawns a polling thread (production shape);
/// ShipOnce() ships one batch synchronously for deterministic tests.
class LogShipper {
 public:
  struct Options {
    std::chrono::milliseconds poll_interval{1};
    /// Cap records per ShipOnce batch; <= 0 means unbounded. The cursor
    /// then stops at the last shipped record's end, keeping the stream
    /// gapless across batches.
    int64_t max_batch_records = 0;
  };

  /// Both borrowed and must outlive the shipper.
  LogShipper(Wal* primary_wal, Replica* replica, Options options);
  LogShipper(Wal* primary_wal, Replica* replica);
  ~LogShipper();

  /// Ships everything durable in [cursor, primary horizon) as one batch
  /// (bounded by max_batch_records). Returns the number of records
  /// shipped; 0 when the replica is caught up.
  StatusOr<int64_t> ShipOnce();

  /// Drains until the replica's applied horizon reaches the primary's
  /// durable horizon as of the call.
  Status CatchUp();

  void Start();
  void Stop();

 private:
  void PollLoop();

  Wal* wal_;
  Replica* replica_;
  Options options_;

  std::mutex mu_;
  Lsn cursor_ = 0;  ///< next ship starts here

  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::atomic<bool> running_{false};
};

}  // namespace mmdb

#endif  // MMDB_REPLICA_LOG_SHIPPER_H_
