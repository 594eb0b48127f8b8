// WaitLsnDurable's contract under concurrent appends: once it returns,
// every record with LSN <= the fence that had been assigned when the call
// began is durable. The hot backup's end fence and the checkpointer's WAL
// rule both depend on it.
//
// A record's LSN and its place in a stripe queue used to appear in two
// steps, so a fence could pass a record that had an LSN but was not yet
// queued, or that sat behind a later LSN in its queue. No fixed schedule
// can reach that window from the public API (the two steps now happen
// under one stripe-mutex hold), so this is a repeat: eight writers keep
// four stripes busy while a checker fences its own marker records.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "txn/log_device.h"
#include "txn/log_manager.h"
#include "txn/log_record.h"

namespace mmdb {
namespace {

using std::chrono::microseconds;

TEST(WalFenceFuzzTest, WaitLsnDurableCoversEveryRecordAssignedBeforeIt) {
  constexpr int kStripes = 4;
  constexpr int kWriters = 8;
  constexpr int kFences = 2000;
  std::vector<std::unique_ptr<LogDevice>> devices;
  std::vector<LogDevice*> raw;
  for (int i = 0; i < kStripes; ++i) {
    devices.push_back(std::make_unique<LogDevice>(512, microseconds(0)));
    raw.push_back(devices.back().get());
  }
  GroupCommitLog log(raw, GroupCommitLogOptions{});
  log.Start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (TxnId txn = w + 1; !stop.load(); txn += kWriters) {
        LogRecord update;
        update.type = LogRecordType::kUpdate;
        update.txn_id = txn;
        update.record_id = w;
        update.old_value = "old";
        update.new_value = "new";
        log.Append(std::move(update));
        LogRecord commit;
        commit.type = LogRecordType::kCommit;
        commit.txn_id = txn;
        log.AppendCommit(std::move(commit), {});
        log.WaitCommitDurable(txn);
      }
    });
  }

  int violations = 0;
  for (int i = 0; i < kFences; ++i) {
    LogRecord marker;
    marker.type = LogRecordType::kCheckpoint;
    marker.txn_id = -1;
    const Lsn fence = log.Append(std::move(marker));
    log.WaitLsnDurable(fence);
    // Every record assigned after the call began has a larger LSN than
    // the marker, so nothing at or below the fence may still be buffered.
    if (log.DurableHorizon() <= fence) ++violations;
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  log.Stop();
  EXPECT_EQ(violations, 0);
}

}  // namespace
}  // namespace mmdb
