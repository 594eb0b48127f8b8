// Randomized crash-recovery property test: a reference map tracks what the
// database MUST contain (committed values only), while random transactions
// commit, abort, or are abandoned in flight, interleaved with random fuzzy
// checkpoints. After a crash + recovery, every record must equal the
// reference exactly — across several crash-recover generations in one run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/check.h"
#include "common/random.h"
#include "db/database.h"
#include "replica/log_shipper.h"
#include "replica/replica.h"
#include "sim/fault_injector.h"
#include "txn/checkpoint.h"
#include "txn/instant_recovery.h"
#include "txn/recovery.h"
#include "txn/transaction_manager.h"

namespace mmdb {
namespace {

using std::chrono::microseconds;

struct FuzzParam {
  uint64_t seed;
  int txns_per_generation;
  int generations;
};

class RecoveryFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(RecoveryFuzzTest, RecoveredStateEqualsReference) {
  const FuzzParam param = GetParam();
  Random rng(param.seed);

  constexpr int64_t kRecords = 64;
  constexpr int32_t kRecordSize = 24;
  SimulatedDisk disk(256);
  StableMemory stable(1 << 20);
  LogDevice device(256, microseconds(0));
  RecoverableStore store(&disk, kRecords, kRecordSize, 256);
  FirstUpdateTable fut(&stable, store.num_pages());
  auto locks = std::make_unique<LockManager>();
  GroupCommitLogOptions gopts;
  gopts.flush_timeout = microseconds(100);
  GroupCommitLog wal({&device}, gopts);
  wal.Start();
  auto tm = std::make_unique<TransactionManager>(&store, locks.get(),
                                                 &wal, &fut);
  Checkpointer checkpointer(&store, &fut, &wal);

  // The committed truth.
  std::map<int64_t, std::string> reference;
  for (int64_t r = 0; r < kRecords; ++r) {
    reference[r] = std::string(kRecordSize, '\0');
  }

  auto value_for = [&](TxnId txn, int64_t record, int step) {
    std::string v(kRecordSize, '\0');
    std::snprintf(v.data(), v.size(), "t%lld.s%d.r%lld",
                  static_cast<long long>(txn), step,
                  static_cast<long long>(record));
    return v;
  };

  for (int gen = 0; gen < param.generations; ++gen) {
    bool abandoned = false;
    for (int t = 0; t < param.txns_per_generation; ++t) {
      const TxnId txn = tm->Begin();
      // 1-4 updates over random records (ordered to avoid deadlock — this
      // test is single-threaded anyway).
      const int updates = 1 + int(rng.Uniform(4));
      std::map<int64_t, std::string> writes;
      bool failed = false;
      for (int u = 0; u < updates && !failed; ++u) {
        const int64_t record = int64_t(rng.Uniform(kRecords));
        const std::string value = value_for(txn, record, u);
        if (!tm->Update(txn, record, value).ok()) {
          failed = true;
          break;
        }
        writes[record] = value;
      }
      ASSERT_FALSE(failed);
      const double dice = rng.NextDouble();
      if (dice < 0.6) {
        ASSERT_TRUE(tm->Commit(txn).ok());
        for (auto& [record, value] : writes) reference[record] = value;
      } else if (dice < 0.85) {
        ASSERT_TRUE(tm->Abort(txn).ok());
        // reference unchanged
      } else {
        // Abandon in flight (locks stay held, so do this once, right
        // before the crash). Its dirty, uncommitted pages may even reach
        // the snapshot via the checkpoint below — the §5.4 undo case.
        abandoned = true;
        break;
      }
      // Random fuzzy checkpoint.
      if (rng.Bernoulli(0.15)) {
        ASSERT_TRUE(checkpointer.CheckpointOnce().ok());
      }
    }

    if (abandoned && rng.Bernoulli(0.5)) {
      // Fuzzy-checkpoint the in-flight transaction's dirty data so the
      // recovery MUST undo it from the logged old values.
      ASSERT_TRUE(checkpointer.CheckpointOnce().ok());
    }

    // CRASH.
    wal.CrashStop();
    store.SimulateCrash();
    RecoveryOptions ropts;
    ropts.use_first_update_table = rng.Bernoulli(0.5);
    auto stats = RecoverStore(&store, &wal, &fut, ropts);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    wal.Start();
    locks = std::make_unique<LockManager>();  // fresh lock table
    tm = std::make_unique<TransactionManager>(&store, locks.get(), &wal,
                                              &fut, stats->max_txn_id + 1);

    // AUDIT: byte-exact equality with the reference.
    for (int64_t r = 0; r < kRecords; ++r) {
      std::string actual;
      ASSERT_TRUE(store.ReadRecord(r, &actual).ok());
      EXPECT_EQ(actual, reference[r])
          << "generation " << gen << ", record " << r;
    }
  }
  wal.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RecoveryFuzzTest,
    ::testing::Values(FuzzParam{11, 60, 4}, FuzzParam{22, 60, 4},
                      FuzzParam{33, 120, 3}, FuzzParam{44, 40, 6},
                      FuzzParam{20260708, 200, 2}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Crash-schedule fuzz: a seeded fault injector crashes a banking workload at
// device operation N (with the dying write torn and a 3% transient error
// rate throughout), for a sweep of N. Invariants after recovery:
//   * every committed transfer except possibly the LAST acked one survives;
//   * the last acked transfer is atomic: fully applied or fully absent;
//   * money is conserved (the transfer total matches one of the two
//     admissible states);
//   * the same (seed, crash op) replays to byte-identical RecoveryStats —
//     the determinism contract of the injector.
// ---------------------------------------------------------------------------

struct CrashParam {
  uint64_t seed;
  int64_t crash_at_op;
};

class CrashScheduleFuzzTest : public ::testing::TestWithParam<CrashParam> {};

struct CrashRunResult {
  RecoveryStats stats;
  std::map<int64_t, std::string> recovered;  // record -> bytes
  std::map<int64_t, std::string> state;      // after all acked commits
  std::map<int64_t, std::string> prev_state;  // before the last acked commit
  int acked_commits = 0;
};

constexpr int64_t kAccounts = 32;
constexpr int32_t kBalanceSize = 24;
constexpr int kTransfers = 60;

std::string Balance(int64_t amount) {
  std::string v(kBalanceSize, '\0');
  std::snprintf(v.data(), v.size(), "%lld", static_cast<long long>(amount));
  return v;
}

CrashRunResult RunBankingCrashSchedule(uint64_t seed, int64_t crash_at_op) {
  CrashRunResult result;
  FaultInjectorOptions fopts;
  fopts.seed = seed ^ 0x5EED;
  fopts.transient_error_rate = 0.03;
  fopts.crash_at_op = crash_at_op;
  fopts.torn_write_on_crash = true;
  FaultInjector injector(fopts);

  SimulatedDisk disk(256);
  disk.set_fault_injector(&injector);
  StableMemory stable(1 << 20);
  stable.set_fault_injector(&injector);
  LogDevice device(4096, microseconds(0));
  device.set_fault_injector(&injector);

  RecoverableStore store(&disk, kAccounts, kBalanceSize, 256);
  FirstUpdateTable fut(&stable, store.num_pages());
  LockManager locks;
  GroupCommitLogOptions gopts;
  // One log write per commit and a synchronous driver: the device-operation
  // sequence is then a pure function of (seed, schedule), which is what
  // makes crash_at_op — and the whole run — replayable.
  gopts.group_commit = false;
  GroupCommitLog wal({&device}, gopts);
  wal.Start();
  TransactionManager tm(&store, &locks, &wal, &fut);
  Checkpointer checkpointer(&store, &fut, &wal);

  // All balances start as the store's initial image: zero-FILLED bytes, not
  // the text "0" — if the opening grant becomes a loser, undo restores this
  // exact pre-image. The grant itself is a TRANSACTION — unlogged
  // initialization could never be rebuilt when a fault quarantines a
  // snapshot page.
  for (int64_t a = 0; a < kAccounts; ++a) {
    result.state[a] = std::string(kBalanceSize, '\0');
  }
  result.prev_state = result.state;

  Random rng(seed);
  auto run_txn = [&](const std::map<int64_t, std::string>& writes) {
    const TxnId txn = tm.Begin();
    for (const auto& [record, value] : writes) {
      MMDB_CHECK(tm.Update(txn, record, value).ok());
    }
    MMDB_CHECK(tm.Commit(txn).ok());
    result.prev_state = result.state;
    for (const auto& [record, value] : writes) {
      result.state[record] = value;
    }
    ++result.acked_commits;
  };

  std::map<int64_t, std::string> grant;
  for (int64_t a = 0; a < kAccounts; ++a) grant[a] = Balance(100);
  run_txn(grant);

  for (int t = 0; t < kTransfers && !injector.crash_requested(); ++t) {
    const int64_t from = int64_t(rng.Uniform(kAccounts));
    int64_t to = int64_t(rng.Uniform(kAccounts));
    if (to == from) to = (to + 1) % kAccounts;
    const int64_t amount = 1 + int64_t(rng.Uniform(10));
    long long bal_from = 0, bal_to = 0;
    std::sscanf(result.state[from].c_str(), "%lld", &bal_from);
    std::sscanf(result.state[to].c_str(), "%lld", &bal_to);
    run_txn({{from, Balance(bal_from - amount)},
             {to, Balance(bal_to + amount)}});
    if (t % 7 == 6 && !injector.crash_requested()) {
      MMDB_CHECK(checkpointer.CheckpointOnce().ok());
    }
  }

  // CRASH (either the injector fired mid-workload or the sweep ran dry).
  wal.CrashStop();
  store.SimulateCrash();
  auto stats = RecoverStore(&store, &wal, &fut);
  MMDB_CHECK_MSG(stats.ok(), stats.status().ToString().c_str());
  result.stats = *stats;
  for (int64_t a = 0; a < kAccounts; ++a) {
    std::string v;
    MMDB_CHECK(store.ReadRecord(a, &v).ok());
    result.recovered[a] = v;
  }
  wal.Stop();
  return result;
}

int64_t TotalOf(const std::map<int64_t, std::string>& state) {
  int64_t total = 0;
  for (const auto& [record, value] : state) {
    long long bal = 0;
    std::sscanf(value.c_str(), "%lld", &bal);
    total += bal;
  }
  return total;
}

TEST_P(CrashScheduleFuzzTest, CommittedSurvivesLosersVanishMoneyConserved) {
  const CrashParam param = GetParam();
  const CrashRunResult run =
      RunBankingCrashSchedule(param.seed, param.crash_at_op);

  // The recovered image must equal the post-state of all acked commits, or
  // — when the dying write tore the final commit off the log — the state
  // just before it. Anything else is lost committed work, a surviving
  // loser effect, or a half-applied transfer.
  const bool matches_state = run.recovered == run.state;
  const bool matches_prev = run.recovered == run.prev_state;
  EXPECT_TRUE(matches_state || matches_prev)
      << "recovered state matches neither admissible state (acked commits: "
      << run.acked_commits << ", crash op " << param.crash_at_op << ")";

  // Money is conserved in whichever state we landed in.
  const int64_t total = TotalOf(run.recovered);
  EXPECT_TRUE(total == TotalOf(run.state) || total == TotalOf(run.prev_state))
      << "total " << total;

  // Log damage is tolerated, never silently dropped: whatever the torn
  // write destroyed shows up in the damage counters, not in wrong balances.
  EXPECT_GE(run.stats.corrupt_records_skipped, 0);
  EXPECT_GE(run.stats.torn_tail_bytes, 0);

  // Determinism: an identical run replays the identical fault history and
  // produces byte-identical RecoveryStats (modulo wall-clock timing).
  const CrashRunResult replay =
      RunBankingCrashSchedule(param.seed, param.crash_at_op);
  EXPECT_EQ(replay.recovered, run.recovered);
  EXPECT_EQ(replay.stats.log_records_total, run.stats.log_records_total);
  EXPECT_EQ(replay.stats.log_records_scanned, run.stats.log_records_scanned);
  EXPECT_EQ(replay.stats.redo_applied, run.stats.redo_applied);
  EXPECT_EQ(replay.stats.undo_applied, run.stats.undo_applied);
  EXPECT_EQ(replay.stats.winners, run.stats.winners);
  EXPECT_EQ(replay.stats.losers, run.stats.losers);
  EXPECT_EQ(replay.stats.start_lsn, run.stats.start_lsn);
  EXPECT_EQ(replay.stats.max_txn_id, run.stats.max_txn_id);
  EXPECT_EQ(replay.stats.snapshot_pages_read, run.stats.snapshot_pages_read);
  EXPECT_EQ(replay.stats.corrupt_records_skipped,
            run.stats.corrupt_records_skipped);
  EXPECT_EQ(replay.stats.torn_tail_bytes, run.stats.torn_tail_bytes);
  EXPECT_EQ(replay.stats.unreadable_log_pages,
            run.stats.unreadable_log_pages);
  EXPECT_EQ(replay.stats.snapshot_pages_quarantined,
            run.stats.snapshot_pages_quarantined);
  EXPECT_EQ(replay.stats.retries, run.stats.retries);
  EXPECT_EQ(replay.stats.degraded_mode, run.stats.degraded_mode);
  EXPECT_EQ(replay.stats.simulated_log_read_seconds,
            run.stats.simulated_log_read_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    CrashSchedules, CrashScheduleFuzzTest,
    ::testing::Values(CrashParam{11, 2}, CrashParam{11, 5}, CrashParam{11, 9},
                      CrashParam{11, 14}, CrashParam{11, 21},
                      CrashParam{11, 33}, CrashParam{11, 48},
                      CrashParam{22, 3}, CrashParam{22, 8},
                      CrashParam{22, 13}, CrashParam{22, 27},
                      CrashParam{22, 41}, CrashParam{22, 64}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_op" +
             std::to_string(info.param.crash_at_op);
    });

// ---------------------------------------------------------------------------
// Nested crash schedules (DESIGN.md §12): the FIRST crash is recovered in
// instant mode, and the SECOND crash lands inside the recovery window itself
// — after a deterministic number of on-demand replays, mid-sweep. Recovery
// must be idempotent across the nesting: the second restart re-enters
// analysis on the unchanged durable state and lands in an admissible state.
// A variant quarantines a snapshot page before the second restart and
// asserts the fall-back to full-log replay (degraded mode, start LSN 0).
// ---------------------------------------------------------------------------

struct NestedCrashParam {
  uint64_t seed;
  int64_t crash_at_op;      ///< first crash, in device operations
  int ondemand_touches;     ///< guarded reads inside the recovery window
  bool quarantine_snapshot; ///< bad-sector a snapshot page before restart 2
};

class NestedCrashFuzzTest : public ::testing::TestWithParam<NestedCrashParam> {
};

TEST_P(NestedCrashFuzzTest, SecondCrashInsideRecoveryWindowIsIdempotent) {
  const NestedCrashParam param = GetParam();
  FaultInjectorOptions fopts;
  fopts.seed = param.seed ^ 0x5EED;
  fopts.crash_at_op = param.crash_at_op;
  fopts.torn_write_on_crash = true;
  FaultInjector injector(fopts);

  SimulatedDisk disk(256);
  disk.set_fault_injector(&injector);
  StableMemory stable(1 << 20);
  stable.set_fault_injector(&injector);
  LogDevice device(4096, microseconds(0));
  device.set_fault_injector(&injector);

  RecoverableStore store(&disk, kAccounts, kBalanceSize, 256);
  FirstUpdateTable fut(&stable, store.num_pages());
  LockManager locks;
  GroupCommitLogOptions gopts;
  gopts.group_commit = false;
  GroupCommitLog wal({&device}, gopts);
  wal.Start();
  TransactionManager tm(&store, &locks, &wal, &fut);
  Checkpointer checkpointer(&store, &fut, &wal);

  // Same banking workload shape as CrashScheduleFuzzTest: an opening grant
  // then random transfers, with the two admissible end states tracked.
  std::map<int64_t, std::string> state, prev_state;
  for (int64_t a = 0; a < kAccounts; ++a) {
    state[a] = std::string(kBalanceSize, '\0');
  }
  prev_state = state;
  auto run_txn = [&](const std::map<int64_t, std::string>& writes) {
    const TxnId txn = tm.Begin();
    for (const auto& [record, value] : writes) {
      MMDB_CHECK(tm.Update(txn, record, value).ok());
    }
    MMDB_CHECK(tm.Commit(txn).ok());
    prev_state = state;
    for (const auto& [record, value] : writes) state[record] = value;
  };
  std::map<int64_t, std::string> grant;
  for (int64_t a = 0; a < kAccounts; ++a) grant[a] = Balance(100);
  run_txn(grant);
  Random rng(param.seed);
  for (int t = 0; t < kTransfers && !injector.crash_requested(); ++t) {
    const int64_t from = int64_t(rng.Uniform(kAccounts));
    int64_t to = int64_t(rng.Uniform(kAccounts));
    if (to == from) to = (to + 1) % kAccounts;
    const int64_t amount = 1 + int64_t(rng.Uniform(10));
    long long bal_from = 0, bal_to = 0;
    std::sscanf(state[from].c_str(), "%lld", &bal_from);
    std::sscanf(state[to].c_str(), "%lld", &bal_to);
    run_txn({{from, Balance(bal_from - amount)},
             {to, Balance(bal_to + amount)}});
    if (t % 7 == 6 && !injector.crash_requested()) {
      MMDB_CHECK(checkpointer.CheckpointOnce().ok());
    }
  }

  // CRASH 1 -> instant recovery with a crawling sweep.
  wal.CrashStop();
  store.SimulateCrash();
  RecoveryOptions ropts;
  ropts.mode = RecoveryMode::kInstant;
  ropts.sweep_batch_size = 1;
  ropts.sweep_pause = microseconds(500);
  auto plan = AnalyzeInstantRecovery(&store, &wal, &fut, ropts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  wal.Start();
  {
    RecoveryController ctl(&store, &fut, &wal, std::move(*plan), ropts);
    ctl.Start();
    // On-demand replays inside the window (some records, some not-pending
    // no-ops): this is the "crash during on-demand replay" surface.
    std::string v;
    for (int i = 0; i < param.ondemand_touches; ++i) {
      ASSERT_TRUE(store.ReadRecord((i * 7 + 3) % kAccounts, &v).ok());
    }
    // CRASH 2, mid-sweep: the power fails before the index drains.
    ctl.Stop();
  }
  wal.CrashStop();
  store.SimulateCrash();

  if (param.quarantine_snapshot) {
    injector.MarkPermanentError(FaultDevice::kDataDisk,
                                store.snapshot_file_id(), 0);
  }

  // Restart 2: analysis must re-enter cleanly on the unchanged durable
  // state. Recover in instant mode and drain fully.
  auto plan2 = AnalyzeInstantRecovery(&store, &wal, &fut, ropts);
  ASSERT_TRUE(plan2.ok()) << plan2.status().ToString();
  const RecoveryStats analysis2 = plan2->stats;
  if (param.quarantine_snapshot) {
    EXPECT_GE(analysis2.snapshot_pages_quarantined, 1);
    EXPECT_TRUE(analysis2.degraded_mode);
    // Quarantine falls back to full-log replay: no first-update skip.
    EXPECT_EQ(analysis2.start_lsn, 0);
  }
  wal.Start();
  std::map<int64_t, std::string> recovered;
  {
    RecoveryController ctl(&store, &fut, &wal, std::move(*plan2), ropts);
    ctl.Start();
    ASSERT_TRUE(ctl.WaitComplete().ok());
    const RecoveryStats drained = ctl.stats();
    EXPECT_EQ(drained.ondemand_records + drained.sweep_records,
              drained.pending_records);
    // No traffic ran since the restart: the table is verified and empty.
    EXPECT_TRUE(fut.Verify());
    EXPECT_EQ(fut.MinLsn(), kInvalidLsn);
    for (int64_t a = 0; a < kAccounts; ++a) {
      std::string v;
      ASSERT_TRUE(store.ReadRecord(a, &v).ok());
      recovered[a] = v;
    }
  }

  // Admissible-state audit: all acked commits, or all but the torn last.
  EXPECT_TRUE(recovered == state || recovered == prev_state)
      << "nested recovery landed in neither admissible state";
  const int64_t total = TotalOf(recovered);
  EXPECT_TRUE(total == TotalOf(state) || total == TotalOf(prev_state));

  // Idempotence across modes: crash 3 with no new writes, recover BLOCKING,
  // and the image must be byte-identical to the drained instant image.
  wal.CrashStop();
  store.SimulateCrash();
  auto blocking = RecoverStore(&store, &wal, &fut);
  ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
  EXPECT_TRUE(fut.Verify());
  EXPECT_EQ(fut.MinLsn(), kInvalidLsn);
  wal.Start();
  for (int64_t a = 0; a < kAccounts; ++a) {
    std::string v;
    ASSERT_TRUE(store.ReadRecord(a, &v).ok());
    EXPECT_EQ(v, recovered[a]) << "record " << a;
  }
  wal.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    NestedCrashSchedules, NestedCrashFuzzTest,
    ::testing::Values(NestedCrashParam{11, 5, 0, false},
                      NestedCrashParam{11, 14, 5, false},
                      NestedCrashParam{11, 33, 16, false},
                      NestedCrashParam{22, 8, 3, false},
                      NestedCrashParam{22, 27, 32, false},
                      NestedCrashParam{11, 21, 4, true},
                      NestedCrashParam{22, 41, 9, true},
                      NestedCrashParam{33, 17, 7, true}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_op" +
             std::to_string(info.param.crash_at_op) + "_touch" +
             std::to_string(info.param.ondemand_touches) +
             (info.param.quarantine_snapshot ? "_quar" : "");
    });

// ---------------------------------------------------------------------------
// Log-shipping crash schedules (DESIGN.md §13): random banking transfers on
// a primary, shipped to a replica at random points, with the primary killed
// and recovered mid-stream several times. Invariants, audited after every
// ship and every recovery:
//   * the replica NEVER exposes non-committed-prefix state — transfers are
//     atomic, so the replica's total balance always equals the granted
//     total (a torn or uncommitted capture would break conservation);
//   * the replica's applied horizon is monotone and lag is non-negative;
//   * after a final catch-up the replica equals the recovered primary byte
//     for byte, across every crash generation.
// ---------------------------------------------------------------------------

struct ShipCrashParam {
  uint64_t seed;
  int txns_per_generation;
  int generations;
};

class LogShipCrashFuzzTest : public ::testing::TestWithParam<ShipCrashParam> {
};

TEST_P(LogShipCrashFuzzTest, ReplicaTracksCommittedPrefixAcrossCrashes) {
  const ShipCrashParam param = GetParam();
  Random rng(param.seed);

  Database::TxnPlaneOptions topts;
  topts.num_records = kAccounts;
  topts.record_size = kBalanceSize;
  topts.log_write_latency = microseconds(0);
  Database primary, standby;
  ASSERT_TRUE(primary.EnableTransactions(topts).ok());
  ASSERT_TRUE(standby.EnableTransactions(topts).ok());
  Replica replica(&standby);
  LogShipper shipper(primary.wal(), &replica);

  auto replica_state = [&] {
    std::map<int64_t, std::string> out;
    for (int64_t a = 0; a < kAccounts; ++a) {
      std::string v;
      EXPECT_TRUE(standby.recoverable_store()->ReadRecord(a, &v).ok());
      out[a] = v;
    }
    return out;
  };

  // The opening grant is a logged transaction, so it ships like any other.
  std::map<int64_t, std::string> reference;
  {
    TransactionManager* tm = primary.txn_manager();
    const TxnId txn = tm->Begin();
    for (int64_t a = 0; a < kAccounts; ++a) {
      ASSERT_TRUE(tm->Update(txn, a, Balance(100)).ok());
      reference[a] = Balance(100);
    }
    ASSERT_TRUE(tm->Commit(txn).ok());
  }
  const int64_t granted_total = TotalOf(reference);
  ASSERT_TRUE(shipper.CatchUp().ok());
  EXPECT_EQ(TotalOf(replica_state()), granted_total);

  Lsn prev_applied = replica.AppliedHorizon();
  auto audit_replica = [&] {
    EXPECT_EQ(TotalOf(replica_state()), granted_total)
        << "replica exposed a non-atomic / uncommitted cut";
    const Lsn applied = replica.AppliedHorizon();
    EXPECT_GE(applied, prev_applied) << "applied horizon went backwards";
    prev_applied = applied;
    EXPECT_GE(replica.LagLsn(), 0);
  };

  for (int gen = 0; gen < param.generations; ++gen) {
    bool abandoned = false;
    for (int t = 0; t < param.txns_per_generation; ++t) {
      TransactionManager* tm = primary.txn_manager();
      const int64_t from = int64_t(rng.Uniform(kAccounts));
      int64_t to = int64_t(rng.Uniform(kAccounts));
      if (to == from) to = (to + 1) % kAccounts;
      const int64_t amount = 1 + int64_t(rng.Uniform(10));
      long long bal_from = 0, bal_to = 0;
      std::sscanf(reference[from].c_str(), "%lld", &bal_from);
      std::sscanf(reference[to].c_str(), "%lld", &bal_to);
      const TxnId txn = tm->Begin();
      ASSERT_TRUE(tm->Update(txn, std::min(from, to),
                             from < to ? Balance(bal_from - amount)
                                       : Balance(bal_to + amount))
                      .ok());
      ASSERT_TRUE(tm->Update(txn, std::max(from, to),
                             from < to ? Balance(bal_to + amount)
                                       : Balance(bal_from - amount))
                      .ok());
      const double dice = rng.NextDouble();
      if (dice < 0.7) {
        ASSERT_TRUE(tm->Commit(txn).ok());
        reference[from] = Balance(bal_from - amount);
        reference[to] = Balance(bal_to + amount);
      } else if (dice < 0.9) {
        ASSERT_TRUE(tm->Abort(txn).ok());
      } else {
        // Abandon in flight right before this generation's crash: its
        // durable updates ship, but no commit ever will — the replica
        // must keep them buffered, never applied.
        abandoned = true;
        break;
      }
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(shipper.ShipOnce().ok());
        audit_replica();
      }
      if (rng.Bernoulli(0.1)) {
        ASSERT_TRUE(primary.CheckpointNow().ok());
      }
    }
    if (!abandoned && rng.Bernoulli(0.5)) {
      ASSERT_TRUE(shipper.ShipOnce().ok());
      audit_replica();
    }

    // CRASH the primary mid-stream; the replica keeps serving throughout.
    ASSERT_TRUE(primary.Crash().ok());
    audit_replica();
    auto stats = primary.Recover();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // Recovery rolled losers back on the primary; their shipped updates
    // sit in replica buffers, unapplied. Conservation must still hold.
    ASSERT_TRUE(shipper.CatchUp().ok());
    audit_replica();

    // Differential audit: replica == recovered primary, byte for byte.
    for (int64_t a = 0; a < kAccounts; ++a) {
      std::string pv, rv;
      ASSERT_TRUE(primary.recoverable_store()->ReadRecord(a, &pv).ok());
      ASSERT_TRUE(standby.recoverable_store()->ReadRecord(a, &rv).ok());
      EXPECT_EQ(pv, rv) << "generation " << gen << ", account " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShipCrashSchedules, LogShipCrashFuzzTest,
    ::testing::Values(ShipCrashParam{101, 40, 3}, ShipCrashParam{202, 40, 3},
                      ShipCrashParam{303, 80, 2}, ShipCrashParam{404, 25, 4}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace mmdb
