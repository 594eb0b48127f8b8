#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "sim/fault_injector.h"
#include "txn/log_device.h"
#include "txn/log_manager.h"
#include "txn/log_record.h"

namespace mmdb {
namespace {

using std::chrono::microseconds;

LogRecord Update(TxnId txn, int64_t record_id, std::string old_v,
                 std::string new_v) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = txn;
  rec.record_id = record_id;
  rec.old_value = std::move(old_v);
  rec.new_value = std::move(new_v);
  return rec;
}

TEST(LogRecordTest, SerializeParseRoundTrip) {
  LogRecord rec = Update(7, 42, "old!", "newer!");
  rec.lsn = 1234;
  std::string bytes;
  rec.AppendTo(&bytes);
  EXPECT_EQ(static_cast<int64_t>(bytes.size()), rec.SerializedSize());
  int64_t consumed = 0;
  auto back = LogRecord::Parse(bytes.data(),
                               static_cast<int64_t>(bytes.size()), &consumed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(consumed, rec.SerializedSize());
  EXPECT_EQ(back->type, LogRecordType::kUpdate);
  EXPECT_EQ(back->txn_id, 7);
  EXPECT_EQ(back->lsn, 1234);
  EXPECT_EQ(back->record_id, 42);
  EXPECT_EQ(back->old_value, "old!");
  EXPECT_EQ(back->new_value, "newer!");
}

TEST(LogRecordTest, ParseAllToleratesPaddingAndTornTail) {
  std::string bytes;
  Update(1, 1, "a", "b").AppendTo(&bytes);
  bytes.append(10, '\0');  // inter-page padding
  Update(2, 2, "c", "d").AppendTo(&bytes);
  std::string torn;
  Update(3, 3, "e", "f").AppendTo(&torn);
  bytes.append(torn, 0, torn.size() - 3);  // lose the tail
  auto recs = LogRecord::ParseAll(bytes.data(),
                                  static_cast<int64_t>(bytes.size()));
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].txn_id, 1);
  EXPECT_EQ(recs[1].txn_id, 2);
}

TEST(LogRecordTest, CompressionDropsUndoOnly) {
  LogRecord rec = Update(1, 5, std::string(180, 'o'), std::string(180, 'n'));
  LogRecord compressed = rec.CompressForDisk();
  EXPECT_TRUE(compressed.old_value.empty());
  EXPECT_EQ(compressed.new_value, rec.new_value);
  // §5.4: "approximately half of the size of the log stores the old
  // values" — compression halves the update record's payload.
  EXPECT_LT(compressed.SerializedSize(), rec.SerializedSize() * 0.6);
}

TEST(LogDeviceTest, WritesArePaddedAndReadable) {
  LogDevice device(128, microseconds(0));
  auto first = device.WritePage("hello");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0);
  auto second = device.WritePage(std::string(128, 'x'));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1);
  auto page = device.ReadPage(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->size(), 128u);
  EXPECT_EQ(page->substr(0, 5), "hello");
  EXPECT_EQ(device.num_pages(), 2);
  EXPECT_EQ(device.bytes_written(), 256);
  EXPECT_FALSE(device.ReadPage(5).ok());
}

TEST(LogDeviceTest, ReadPageBoundsReturnOutOfRange) {
  LogDevice device(128, microseconds(0));
  ASSERT_TRUE(device.WritePage("abc").ok());
  // Negative index, one-past-the-end, and far-past-the-end all report
  // kOutOfRange — never a crash or a garbage page.
  EXPECT_EQ(device.ReadPage(-1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(device.ReadPage(1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(device.ReadPage(1 << 20).status().code(),
            StatusCode::kOutOfRange);
}

TEST(LogDeviceTest, OversizedWriteRejected) {
  LogDevice device(128, microseconds(0));
  auto r = device.WritePage(std::string(129, 'x'));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(device.num_pages(), 0);
}

TEST(LogDeviceTest, TransientReadFaultsAreRetriedByReadAll) {
  LogDevice device(128, microseconds(0));
  FaultInjector injector({.seed = 7, .transient_error_rate = 0.3});
  device.set_fault_injector(&injector);
  std::string payload;
  Update(1, 0, "old", "new").AppendTo(&payload);
  ASSERT_TRUE(device.WritePage(payload).ok());
  LogDevice::ReadStats rstats;
  std::string bytes = device.ReadAll(&rstats);
  EXPECT_EQ(bytes.size(), 128u);
  // With a 30% transient rate, 8 attempts essentially always succeed.
  EXPECT_EQ(rstats.unreadable_pages, 0);
  auto recs = LogRecord::ParseAll(bytes.data(),
                                  static_cast<int64_t>(bytes.size()));
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].new_value, "new");
}

TEST(LogRecordTest, ParseAllSkipsCorruptRecordAndResyncs) {
  std::string buf;
  Update(1, 10, "aa", "bb").AppendTo(&buf);
  const size_t second_start = buf.size();
  Update(2, 11, "cc", "dd").AppendTo(&buf);
  Update(3, 12, "ee", "ff").AppendTo(&buf);
  // Flip one payload byte of the middle record: its CRC fails, but the
  // parser must resynchronize and still return records 1 and 3.
  buf[second_start + 30] ^= 0x01;
  LogParseStats stats;
  auto recs = LogRecord::ParseAll(buf.data(), static_cast<int64_t>(buf.size()),
                                  &stats);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].txn_id, 1);
  EXPECT_EQ(recs[1].txn_id, 3);
  EXPECT_EQ(stats.corrupt_skipped, 1);
  EXPECT_EQ(stats.torn_tail_bytes, 0);
}

TEST(LogRecordTest, ParseAllCountsTornTail) {
  std::string buf;
  Update(1, 10, "aa", "bb").AppendTo(&buf);
  Update(2, 11, "cc", "dd").AppendTo(&buf);
  // A crash mid-flush leaves a prefix of the last record.
  const std::string torn = buf.substr(0, buf.size() - 5);
  LogParseStats stats;
  auto recs = LogRecord::ParseAll(torn.data(),
                                  static_cast<int64_t>(torn.size()), &stats);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].txn_id, 1);
  EXPECT_EQ(stats.corrupt_skipped, 0);
  EXPECT_GT(stats.torn_tail_bytes, 0);
}

class GroupCommitLogTest : public ::testing::Test {
 protected:
  static constexpr int64_t kPageSize = 512;

  void Build(int stripes, bool group_commit) {
    for (int i = 0; i < stripes; ++i) {
      devices_.push_back(
          std::make_unique<LogDevice>(kPageSize, microseconds(0)));
      raw_.push_back(devices_.back().get());
    }
    GroupCommitLogOptions opts;
    opts.group_commit = group_commit;
    opts.flush_timeout = microseconds(500);
    log_ = std::make_unique<GroupCommitLog>(raw_, opts);
    log_->Start();
  }

  std::vector<std::unique_ptr<LogDevice>> devices_;
  std::vector<LogDevice*> raw_;
  std::unique_ptr<GroupCommitLog> log_;
};

TEST_F(GroupCommitLogTest, CommitBecomesDurable) {
  Build(1, true);
  log_->Append(Update(1, 0, "a", "b"));
  LogRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.txn_id = 1;
  log_->AppendCommit(commit, {});
  log_->WaitCommitDurable(1);
  EXPECT_GE(devices_[0]->num_pages(), 1);
  log_->Stop();
  auto recs = log_->ReadAllForRecovery();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].type, LogRecordType::kUpdate);
  EXPECT_EQ(recs[1].type, LogRecordType::kCommit);
}

TEST_F(GroupCommitLogTest, GroupCommitSharesPageWrites) {
  Build(1, true);
  constexpr int kTxns = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kTxns; ++t) {
    threads.emplace_back([&, t]() {
      const TxnId txn = t + 1;
      log_->Append(Update(txn, t, std::string(60, 'o'), std::string(60, 'n')));
      LogRecord commit;
      commit.type = LogRecordType::kCommit;
      commit.txn_id = txn;
      log_->AppendCommit(commit, {});
      log_->WaitCommitDurable(txn);
    });
  }
  for (auto& t : threads) t.join();
  log_->Stop();
  const Wal::Stats stats = log_->stats();
  EXPECT_EQ(stats.commits, kTxns);
  // Without group commit this would take >= kTxns page writes.
  EXPECT_LT(stats.device_writes, kTxns);
  EXPECT_GT(stats.avg_commit_group, 1.0);
}

TEST_F(GroupCommitLogTest, NoGroupCommitWritesPagePerCommit) {
  Build(1, false);
  for (int t = 0; t < 10; ++t) {
    const TxnId txn = t + 1;
    log_->Append(Update(txn, t, "o", "n"));
    LogRecord commit;
    commit.type = LogRecordType::kCommit;
    commit.txn_id = txn;
    log_->AppendCommit(commit, {});
    log_->WaitCommitDurable(txn);
  }
  log_->Stop();
  EXPECT_GE(log_->stats().device_writes, 10);
}

TEST_F(GroupCommitLogTest, LsnsAreMonotoneAndRecoveryMergesSorted) {
  Build(4, true);
  constexpr int kTxns = 60;
  std::vector<std::thread> threads;
  for (int t = 0; t < kTxns; ++t) {
    threads.emplace_back([&, t]() {
      const TxnId txn = t + 1;
      log_->Append(Update(txn, t, "old", "new"));
      LogRecord commit;
      commit.type = LogRecordType::kCommit;
      commit.txn_id = txn;
      log_->AppendCommit(commit, {});
      log_->WaitCommitDurable(txn);
    });
  }
  for (auto& t : threads) t.join();
  log_->Stop();
  auto recs = log_->ReadAllForRecovery();
  ASSERT_EQ(recs.size(), 2u * kTxns);
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LT(recs[i - 1].lsn, recs[i].lsn);
  }
}

TEST_F(GroupCommitLogTest, DependencyOrderingAcrossStripes) {
  // T1 on stripe 1 pre-commits; T2 on stripe 2 depends on it. T2's commit
  // page must not hit disk before T1's. We check durable order via the
  // devices' contents after both complete.
  Build(2, true);
  log_->Append(Update(1, 0, "a", "b"));
  LogRecord c1;
  c1.type = LogRecordType::kCommit;
  c1.txn_id = 1;
  log_->AppendCommit(c1, {});
  // T2 (stripe 0: txn 2 % 2 == 0) depends on T1.
  log_->Append(Update(2, 1, "c", "d"));
  LogRecord c2;
  c2.type = LogRecordType::kCommit;
  c2.txn_id = 2;
  log_->AppendCommit(c2, {1});
  log_->WaitCommitDurable(2);
  // If T2 is durable, its dependency must be durable too.
  log_->WaitCommitDurable(1);  // must not hang
  log_->Stop();
  auto recs = log_->ReadAllForRecovery();
  EXPECT_EQ(recs.size(), 4u);
}

TEST_F(GroupCommitLogTest, WaitLsnDurableForcesPartialFlush) {
  Build(1, true);
  // A lone non-commit record would sit in the buffer forever without the
  // WAL fence.
  const Lsn lsn = log_->Append(Update(9, 3, "x", "y"));
  log_->WaitLsnDurable(lsn);
  EXPECT_GE(devices_[0]->num_pages(), 1);
  auto recs = log_->ReadAllForRecovery();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].txn_id, 9);
  log_->Stop();
}

TEST_F(GroupCommitLogTest, CrashStopDropsBufferedBytes) {
  Build(1, true);
  // Commit T1 durably; then buffer an update without commit and crash.
  log_->Append(Update(1, 0, "a", "b"));
  LogRecord c1;
  c1.type = LogRecordType::kCommit;
  c1.txn_id = 1;
  log_->AppendCommit(c1, {});
  log_->WaitCommitDurable(1);
  log_->Append(Update(2, 1, "c", "d"));  // never flushed
  log_->CrashStop();
  auto recs = log_->ReadAllForRecovery();
  // T1's records durable; T2's buffered update is gone.
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].txn_id, 1);
  EXPECT_EQ(recs[1].txn_id, 1);
}

TEST_F(GroupCommitLogTest, StopFlushesCleanly) {
  Build(1, true);
  log_->Append(Update(5, 0, "a", "b"));
  log_->Stop();  // clean shutdown flushes
  auto recs = log_->ReadAllForRecovery();
  ASSERT_EQ(recs.size(), 1u);
}


LogRecord Commit(TxnId txn) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn_id = txn;
  return rec;
}

// The default policy (flush_timeout 0): a waiting commit's page goes out
// as soon as the device is idle, and commits appended during that write
// share the next one. The device latency is the only timing used.
TEST(GroupCommitConcurrencyTest, LoneCommitOnIdleDeviceTakesOneWrite) {
  LogDevice device(512, microseconds(0));
  GroupCommitLog log({&device}, GroupCommitLogOptions{});
  log.Start();
  log.AppendCommit(Commit(1), {});
  log.WaitCommitDurable(1);
  EXPECT_EQ(device.num_pages(), 1);
  const Wal::Stats stats = log.stats();
  EXPECT_EQ(stats.commits, 1);
  EXPECT_DOUBLE_EQ(stats.avg_commit_group, 1.0);
  log.Stop();
  EXPECT_EQ(device.num_pages(), 1);
}

TEST(GroupCommitConcurrencyTest, CommitsDuringAWriteShareTheNextWrite) {
  // Four closed-loop committers and one 20 ms page write at a time: at
  // most the commits of one write are in flight, so the other committers'
  // commits queue up and leave together in the next write.
  constexpr int kThreads = 4;
  constexpr int kCommitsEach = 5;
  LogDevice device(512, microseconds(20000));
  GroupCommitLog log({&device}, GroupCommitLogOptions{});
  log.Start();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsEach; ++i) {
        const TxnId txn = 1 + t + i * kThreads;
        log.AppendCommit(Commit(txn), {});
        log.WaitCommitDurable(txn);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  log.Stop();
  const Wal::Stats stats = log.stats();
  EXPECT_EQ(stats.commits, kThreads * kCommitsEach);
  EXPECT_LT(stats.device_writes, kThreads * kCommitsEach);
  EXPECT_GT(stats.avg_commit_group, 1.0);
}

TEST(GroupCommitConcurrencyTest, StopRacingAnIdleFlusherNeverHangs) {
  // The idle flusher waits with no timeout; Stop and CrashStop must still
  // reach it however their flags race its wait.
  for (int round = 0; round < 200; ++round) {
    LogDevice device(512, microseconds(0));
    GroupCommitLog log({&device}, GroupCommitLogOptions{});
    log.Start();
    if (round % 2 == 1) log.Append(Update(1, 0, "a", "b"));  // not due
    if (round % 4 == 3) {
      log.CrashStop();
      EXPECT_EQ(device.num_pages(), 0);
    } else {
      log.Stop();  // a clean stop writes what is buffered
      EXPECT_EQ(device.num_pages(), round % 2);
    }
  }
}

TEST(GroupCommitConcurrencyTest, PositiveTimeoutLingersThenWritesOnce) {
  // With a 20 ms linger, two commits appended back to back leave in one
  // write, no sooner than the linger after the first append and, with the
  // device idle, within the linger plus one 2 ms write (10x margin).
  const microseconds linger(20000);
  const microseconds write(2000);
  LogDevice device(512, write);
  GroupCommitLogOptions opts;
  opts.flush_timeout = linger;
  GroupCommitLog log({&device}, opts);
  log.Start();
  const auto start = std::chrono::steady_clock::now();
  log.AppendCommit(Commit(1), {});
  log.AppendCommit(Commit(2), {});
  log.WaitCommitDurable(1);
  const auto waited = std::chrono::steady_clock::now() - start;
  log.WaitCommitDurable(2);
  EXPECT_GE(waited, linger + write);
  EXPECT_LT(waited, 10 * (linger + write));
  EXPECT_EQ(device.num_pages(), 1);
  EXPECT_DOUBLE_EQ(log.stats().avg_commit_group, 2.0);
  log.Stop();
}

/// Closed-loop committers on one default-policy log: each thread commits
/// `commits_each` times, waiting for durability before the next commit.
/// Returns the wall time the run took.
std::chrono::steady_clock::duration RunClosedLoopCommitters(
    GroupCommitLog* log, int threads, int commits_each) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([=] {
      for (int i = 0; i < commits_each; ++i) {
        const TxnId txn = 1 + t + i * threads;
        log->AppendCommit(Commit(txn), {});
        log->WaitCommitDurable(txn);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return std::chrono::steady_clock::now() - start;
}

TEST(GroupCommitConcurrencyTest, TwoClosedLoopCommittersShareWrites) {
  // Two committers split into alternating groups of one when the flusher
  // writes the moment a commit waits: one commit is always in flight while
  // the other waits. The default policy sees the released committer return
  // within a small fraction of the 5 ms write and holds the page for it.
  LogDevice device(512, microseconds(5000));
  GroupCommitLog log({&device}, GroupCommitLogOptions{});
  log.Start();
  RunClosedLoopCommitters(&log, 2, 20);
  log.Stop();
  const Wal::Stats stats = log.stats();
  EXPECT_EQ(stats.commits, 40);
  EXPECT_GE(stats.avg_commit_group, 1.8);
}

TEST(GroupCommitConcurrencyTest, LoneCommitterNeverLingers) {
  // One committer: every write releases one commit and nothing queues
  // behind it, so the expected group is always already complete.
  const microseconds write(5000);
  LogDevice device(512, write);
  GroupCommitLog log({&device}, GroupCommitLogOptions{});
  log.Start();
  const auto took = RunClosedLoopCommitters(&log, 1, 20);
  log.Stop();
  EXPECT_EQ(log.stats().device_writes, 20);
  EXPECT_EQ(log.metrics()->Get("log.lingers"), 0);
  EXPECT_LT(took, 20 * 3 * write / 2);
}

TEST(GroupCommitConcurrencyTest, WritesRecordGroupSizeAndWriteTime) {
  LogDevice device(512, microseconds(1000));
  GroupCommitLog log({&device}, GroupCommitLogOptions{});
  log.Start();
  RunClosedLoopCommitters(&log, 1, 5);
  log.Stop();
  MetricsRegistry* m = log.metrics();
  const MetricHistogram::Data groups = m->histogram("log.group_size")->data();
  EXPECT_EQ(groups.count, 5);
  EXPECT_EQ(groups.sum, 5);
  const MetricHistogram::Data writes = m->histogram("log.write_us")->data();
  EXPECT_EQ(writes.count, 5);
  EXPECT_GE(writes.min, 1000);
  EXPECT_DOUBLE_EQ(log.stats().avg_commit_group, groups.Mean());
}

TEST(GroupCommitLogStressTest, DependencyOrderInvariantUnderLoad) {
  // Property (§5.2's lattice): whenever a dependent transaction's commit
  // is durable, every one of its dependencies is already durable. Chains
  // of dependent transactions hop across 4 stripes concurrently, and each
  // thread probes the invariant the moment its commit lands.
  std::vector<std::unique_ptr<LogDevice>> devices;
  std::vector<LogDevice*> raw;
  for (int i = 0; i < 4; ++i) {
    devices.push_back(std::make_unique<LogDevice>(512, microseconds(0)));
    raw.push_back(devices.back().get());
  }
  GroupCommitLogOptions opts;
  opts.flush_timeout = microseconds(300);
  GroupCommitLog log(raw, opts);
  log.Start();

  constexpr int kChains = 16;
  constexpr int kChainLen = 25;
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int chain = 0; chain < kChains; ++chain) {
    threads.emplace_back([&, chain]() {
      TxnId prev = kInvalidTxn;
      for (int i = 0; i < kChainLen; ++i) {
        // txn ids stride by 7 so consecutive chain links land on
        // different stripes (7 % 4 != 0).
        const TxnId txn = chain * 1000 + i * 7 + 1;
        log.Append(Update(txn, chain, "o", "n"));
        LogRecord commit;
        commit.type = LogRecordType::kCommit;
        commit.txn_id = txn;
        std::vector<TxnId> deps;
        if (prev != kInvalidTxn) deps.push_back(prev);
        log.AppendCommit(std::move(commit), deps);
        log.WaitCommitDurable(txn);
        // THE invariant: our dependency must already be durable.
        if (prev != kInvalidTxn && !log.IsCommitDurable(prev)) {
          ++violations;
        }
        prev = txn;
      }
    });
  }
  for (auto& t : threads) t.join();
  log.Stop();
  EXPECT_EQ(violations.load(), 0);
  // And every commit made it to some device, mergeable in LSN order.
  int commits = 0;
  Lsn prev_lsn = -1;
  for (const LogRecord& rec : log.ReadAllForRecovery()) {
    EXPECT_GT(rec.lsn, prev_lsn);
    prev_lsn = rec.lsn;
    if (rec.type == LogRecordType::kCommit) ++commits;
  }
  EXPECT_EQ(commits, kChains * kChainLen);
}

}  // namespace
}  // namespace mmdb
