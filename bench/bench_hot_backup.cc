// DESIGN.md §13: online hot backup and the log-shipping read replica,
// machine-checked. Three phases:
//
//   throughput — the seeded banking workload runs bare and with a
//     continuous full -> incremental backup loop riding alongside, in
//     seven pairs that alternate which side runs first. Machine-checked:
//     the median pair's primary tps with backups >= 75% of its bare
//     baseline (the backup only shares the store's page mutex, one page
//     at a time). The zero-latency log leaves the primary CPU-bound, so
//     one pair alone is too noisy to gate on.
//
//   backup differential — every mid-workload backup restores to a
//     transaction-consistent cut (banking conservation), and the backup
//     taken at the quiesced fence restores BYTE-IDENTICAL to the primary
//     — i.e. exactly the image a blocking checkpoint at that LSN would
//     have produced. A crash + blocking recovery of the primary afterwards
//     must land on the same bytes (the restored chain and the recovered
//     primary are twins of the same committed state).
//
//   replica — a second database consumes the primary's log through a
//     polling LogShipper while the workload commits. Mid-run snapshot
//     reads on the replica must be transaction-consistent (conservation);
//     after catch-up the replica equals the primary byte for byte and
//     replica.lag_lsn lands in the JSON artifact alongside backup.*.
//
// Usage: bench_hot_backup [--smoke] [--json=PATH] [accounts]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "backup/hot_backup.h"
#include "common/check.h"
#include "db/database.h"
#include "replica/log_shipper.h"
#include "replica/replica.h"
#include "txn/banking.h"

namespace mmdb {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr int32_t kRecordSize = 72;  // the paper's banking account record

Database::TxnPlaneOptions PlaneOptions(int64_t accounts) {
  Database::TxnPlaneOptions topts;
  topts.num_records = accounts;
  topts.record_size = kRecordSize;
  topts.log_write_latency = microseconds(0);
  return topts;
}

BankingOptions Banking(int64_t accounts, milliseconds duration) {
  BankingOptions bopts;
  bopts.num_accounts = accounts;
  bopts.record_size = kRecordSize;
  bopts.num_threads = 8;
  bopts.duration = duration;
  return bopts;
}

/// Fresh destination plane for restores.
struct RestoreTarget {
  RestoreTarget(int64_t accounts)
      : disk(4096),
        stable(1 << 20),
        store(&disk, accounts, kRecordSize, 4096),
        fut(&stable, store.num_pages()) {}
  SimulatedDisk disk;
  StableMemory stable;
  RecoverableStore store;
  FirstUpdateTable fut;
};

bool StoresIdentical(RecoverableStore* a, RecoverableStore* b) {
  std::string va, vb;
  for (int64_t i = 0; i < a->num_records(); ++i) {
    MMDB_CHECK(a->ReadRecord(i, &va).ok());
    MMDB_CHECK(b->ReadRecord(i, &vb).ok());
    if (va != vb) return false;
  }
  return true;
}

constexpr int kThroughputPairs = 7;

struct Result {
  int64_t accounts = 0;
  double baseline_tps = 0;  ///< of the median pair
  double backup_tps = 0;    ///< of the median pair
  double tps_ratio = 0;     ///< median over the pairs
  std::vector<std::pair<double, double>> pair_tps;  ///< (bare, backups)
  int64_t backups_taken = 0;
  int64_t incremental_backups = 0;
  int64_t pages_copied = 0;
  int64_t pages_skipped = 0;
  int64_t log_records_captured = 0;
  bool restore_identical = false;
  bool recovered_twin_identical = false;
  bool replica_identical = false;
  int64_t replica_consistent_snapshots = 0;
  int64_t replica_max_lag_lsn = 0;
  int64_t replica_final_lag_lsn = -1;
  std::string primary_metrics;
  std::string replica_metrics;
};

/// Bare banking tps (one unmeasured warm-up run first so the cold-start
/// cost doesn't land in the denominator of the tps ratio).
double RunBaseline(int64_t accounts, milliseconds duration) {
  const BankingOptions bopts = Banking(accounts, duration);
  Database db;
  MMDB_CHECK(db.EnableTransactions(PlaneOptions(accounts)).ok());
  MMDB_CHECK(InitAccounts(db.recoverable_store(), bopts).ok());
  BankingOptions warm = bopts;
  warm.duration = milliseconds(100);
  (void)RunBankingWorkload(db.txn_manager(), warm);
  return RunBankingWorkload(db.txn_manager(), bopts).tps;
}

/// The same workload with a continuous backup loop alongside; every
/// mid-workload chain prefix must restore to a consistent cut. With
/// `final_checks`, the quiesced backup and recovery twins are checked too
/// and the backup stats land in `r`. Returns the primary's tps.
double RunWithBackups(int64_t accounts, milliseconds duration,
                      bool final_checks, Result* r) {
  const BankingOptions bopts = Banking(accounts, duration);
  const int64_t expected_total = accounts * bopts.initial_balance;
  Database db;
  MMDB_CHECK(db.EnableTransactions(PlaneOptions(accounts)).ok());
  MMDB_CHECK(InitAccounts(db.recoverable_store(), bopts).ok());

  std::atomic<bool> stop{false};
  std::vector<BackupImage> images;
  std::thread backups([&] {
    int64_t base = -1;
    while (!stop.load(std::memory_order_acquire)) {
      BackupOptions opts;
      opts.base_backup_id = base;  // full first, then chained increments
      auto img = db.backup()->RunHotBackup(opts);
      MMDB_CHECK(img.ok());
      base = img->backup_id;
      images.push_back(std::move(*img));
      std::this_thread::sleep_for(milliseconds(5));
    }
  });
  const BankingResult run = RunBankingWorkload(db.txn_manager(), bopts);
  stop.store(true, std::memory_order_release);
  backups.join();

  // Every mid-workload chain prefix restores to a consistent cut.
  std::vector<const BackupImage*> chain;
  for (const BackupImage& img : images) {
    chain.push_back(&img);
    RestoreTarget dest(accounts);
    MMDB_CHECK(
        BackupManager::RestoreChain(chain, &dest.store, &dest.fut).ok());
    auto total = TotalBalance(&dest.store, bopts);
    MMDB_CHECK(total.ok());
    MMDB_CHECK_MSG(*total == expected_total,
                   "mid-workload backup restored a non-atomic cut");
  }
  if (!final_checks) return run.tps;

  // Quiesced: the hot image at this fence IS the blocking-checkpoint twin.
  BackupOptions final_opts;
  final_opts.base_backup_id = images.empty() ? -1 : images.back().backup_id;
  auto final_img = db.backup()->RunHotBackup(final_opts);
  MMDB_CHECK(final_img.ok());
  chain.push_back(&*final_img);
  RestoreTarget dest(accounts);
  MMDB_CHECK(
      BackupManager::RestoreChain(chain, &dest.store, &dest.fut).ok());
  r->restore_identical =
      StoresIdentical(db.recoverable_store(), &dest.store);

  // The blocking twin: checkpoint the quiesced primary at the same fence,
  // crash, and recover. Recovery rebuilds from that checkpoint image, so
  // the restored chain and the recovered primary must be byte twins.
  MMDB_CHECK(db.CheckpointNow().ok());
  MMDB_CHECK(db.Crash().ok());
  MMDB_CHECK(db.Recover().ok());
  r->recovered_twin_identical =
      StoresIdentical(db.recoverable_store(), &dest.store);

  const MetricsRegistry& metrics = *db.metrics();
  r->backups_taken = metrics.Get("backup.backups_taken");
  r->incremental_backups = metrics.Get("backup.incremental_backups");
  r->pages_copied = metrics.Get("backup.pages_copied");
  r->pages_skipped = metrics.Get("backup.pages_skipped");
  r->log_records_captured = metrics.Get("backup.log_records_captured");
  r->primary_metrics = db.MetricsJson();
  return run.tps;
}

void RunBackupPhases(int64_t accounts, milliseconds duration, Result* r) {
  // Alternate which side of a pair runs first, so drift in the host's
  // load hits both sides alike; gate on the median pair.
  for (int p = 0; p < kThroughputPairs; ++p) {
    const bool last = p + 1 == kThroughputPairs;
    double baseline = 0;
    double backup = 0;
    if (p % 2 == 0) {
      baseline = RunBaseline(accounts, duration);
      backup = RunWithBackups(accounts, duration, last, r);
    } else {
      backup = RunWithBackups(accounts, duration, last, r);
      baseline = RunBaseline(accounts, duration);
    }
    r->pair_tps.emplace_back(baseline, backup);
  }
  std::vector<std::pair<double, double>> sorted = r->pair_tps;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second / a.first < b.second / b.first;
  });
  const std::pair<double, double>& median = sorted[sorted.size() / 2];
  r->baseline_tps = median.first;
  r->backup_tps = median.second;
  r->tps_ratio = median.second / median.first;
}

void RunReplicaPhase(int64_t accounts, milliseconds duration, Result* r) {
  const BankingOptions bopts = Banking(accounts, duration);
  const int64_t expected_total = accounts * bopts.initial_balance;

  Database primary, standby;
  MMDB_CHECK(primary.EnableTransactions(PlaneOptions(accounts)).ok());
  MMDB_CHECK(standby.EnableTransactions(PlaneOptions(accounts)).ok());
  MMDB_CHECK(InitAccounts(primary.recoverable_store(), bopts).ok());
  MMDB_CHECK(InitAccounts(standby.recoverable_store(), bopts).ok());

  Replica replica(&standby);
  LogShipper::Options sopts;
  sopts.poll_interval = milliseconds(1);
  LogShipper shipper(primary.wal(), &replica, sopts);
  shipper.Start();

  std::vector<int64_t> all_ids(accounts);
  for (int64_t i = 0; i < accounts; ++i) all_ids[i] = i;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto vals = replica.SnapshotRead(all_ids);
      MMDB_CHECK(vals.ok());
      int64_t total = 0;
      for (const std::string& v : *vals) total += DecodeAccount(v);
      MMDB_CHECK_MSG(total == expected_total,
                     "replica snapshot read exposed a non-atomic cut");
      ++r->replica_consistent_snapshots;
      r->replica_max_lag_lsn =
          std::max(r->replica_max_lag_lsn, replica.LagLsn());
      std::this_thread::sleep_for(milliseconds(2));
    }
  });
  const BankingResult run = RunBankingWorkload(primary.txn_manager(), bopts);
  MMDB_CHECK(run.committed > 0);
  MMDB_CHECK(shipper.CatchUp().ok());
  stop.store(true, std::memory_order_release);
  reader.join();
  shipper.Stop();

  r->replica_identical = StoresIdentical(primary.recoverable_store(),
                                         standby.recoverable_store());
  r->replica_final_lag_lsn = replica.LagLsn();
  r->replica_metrics = standby.MetricsJson();
}

struct DrainPoint {
  int64_t batch_cap = 0;  // 0 = unbounded
  int64_t initial_lag = 0;
  int64_t batches = 0;
};

/// Lag vs ship batch size: pre-commit a fixed backlog, then drain it one
/// ShipOnce at a time under different per-batch record caps. The smaller
/// the cap, the more batches a drain takes and the longer lag stays
/// visible — the replica's catch-up granularity knob.
std::vector<DrainPoint> RunLagDrain(int64_t accounts) {
  constexpr int64_t kBacklogTxns = 256;
  std::vector<DrainPoint> points;
  for (int64_t cap : {int64_t{8}, int64_t{64}, int64_t{0}}) {
    Database primary, standby;
    MMDB_CHECK(primary.EnableTransactions(PlaneOptions(accounts)).ok());
    MMDB_CHECK(standby.EnableTransactions(PlaneOptions(accounts)).ok());
    TransactionManager* tm = primary.txn_manager();
    for (int64_t i = 0; i < kBacklogTxns; ++i) {
      const TxnId t = tm->Begin();
      MMDB_CHECK(tm->Update(t, i % accounts,
                            EncodeAccount(i, kRecordSize)).ok());
      MMDB_CHECK(tm->Commit(t).ok());
    }
    Replica replica(&standby);
    LogShipper::Options sopts;
    sopts.max_batch_records = cap;
    LogShipper shipper(primary.wal(), &replica, sopts);
    DrainPoint p;
    p.batch_cap = cap;
    for (;;) {
      auto shipped = shipper.ShipOnce();
      MMDB_CHECK(shipped.ok());
      if (*shipped == 0) break;
      ++p.batches;
      if (p.batches == 1) p.initial_lag = replica.LagLsn();
    }
    MMDB_CHECK(replica.LagLsn() == 0);
    points.push_back(p);
  }
  return points;
}

void WriteJson(const std::string& path, const Result& r,
               const std::vector<DrainPoint>& drain) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"hot_backup\",\n"
               "  \"accounts\": %lld,\n"
               "  \"baseline_tps\": %.1f,\n  \"backup_tps\": %.1f,\n"
               "  \"tps_ratio\": %.4f,\n"
               "  \"backups_taken\": %lld,\n"
               "  \"incremental_backups\": %lld,\n"
               "  \"pages_copied\": %lld,\n  \"pages_skipped\": %lld,\n"
               "  \"log_records_captured\": %lld,\n"
               "  \"restore_identical\": %s,\n"
               "  \"recovered_twin_identical\": %s,\n"
               "  \"replica_identical\": %s,\n"
               "  \"replica_consistent_snapshots\": %lld,\n"
               "  \"replica_max_lag_lsn\": %lld,\n"
               "  \"replica_final_lag_lsn\": %lld,\n"
               "  \"pair_tps_ratios\": [",
               static_cast<long long>(r.accounts), r.baseline_tps,
               r.backup_tps, r.tps_ratio,
               static_cast<long long>(r.backups_taken),
               static_cast<long long>(r.incremental_backups),
               static_cast<long long>(r.pages_copied),
               static_cast<long long>(r.pages_skipped),
               static_cast<long long>(r.log_records_captured),
               r.restore_identical ? "true" : "false",
               r.recovered_twin_identical ? "true" : "false",
               r.replica_identical ? "true" : "false",
               static_cast<long long>(r.replica_consistent_snapshots),
               static_cast<long long>(r.replica_max_lag_lsn),
               static_cast<long long>(r.replica_final_lag_lsn));
  for (size_t i = 0; i < r.pair_tps.size(); ++i) {
    std::fprintf(f, "%s%.4f", i == 0 ? "" : ", ",
                 r.pair_tps[i].second / r.pair_tps[i].first);
  }
  std::fprintf(f, "],\n  \"lag_vs_batch_cap\": [");
  for (size_t i = 0; i < drain.size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"batch_cap\": %lld, \"initial_lag_lsn\": %lld, "
                 "\"batches_to_drain\": %lld}",
                 i == 0 ? "" : ",", static_cast<long long>(drain[i].batch_cap),
                 static_cast<long long>(drain[i].initial_lag),
                 static_cast<long long>(drain[i].batches));
  }
  std::fprintf(f,
               "\n  ],\n"
               "  \"primary_metrics\": %s,\n"
               "  \"replica_metrics\": %s\n}\n",
               r.primary_metrics.empty() ? "{}" : r.primary_metrics.c_str(),
               r.replica_metrics.empty() ? "{}" : r.replica_metrics.c_str());
  std::fclose(f);
  std::printf("\nwrote results to %s\n", path.c_str());
}

}  // namespace
}  // namespace mmdb

int main(int argc, char** argv) {
  using namespace mmdb;
  bool smoke = false;
  int64_t accounts = 10'000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      accounts = std::atoll(argv[i]);
    }
  }
  const milliseconds duration(smoke ? 250 : 1000);
  if (smoke) accounts = std::min<int64_t>(accounts, 4096);

  std::printf("== §13: online hot backup + log-shipping replica, "
              "%lld accounts x %d B, %lld ms banking workload ==\n\n",
              static_cast<long long>(accounts), kRecordSize,
              static_cast<long long>(duration.count()));

  Result r;
  r.accounts = accounts;
  RunBackupPhases(accounts, duration, &r);
  RunReplicaPhase(accounts, duration, &r);
  const std::vector<DrainPoint> drain = RunLagDrain(accounts);

  std::printf("%-36s %12.0f tps\n", "banking, no backups (median pair)",
              r.baseline_tps);
  std::printf("%-36s %12.0f tps\n", "banking, backup loop (median pair)",
              r.backup_tps);
  for (size_t p = 0; p < r.pair_tps.size(); ++p) {
    std::printf("  pair %zu: %8.0f bare, %8.0f with backups %9.3f\n", p + 1,
                r.pair_tps[p].first, r.pair_tps[p].second,
                r.pair_tps[p].second / r.pair_tps[p].first);
  }
  std::printf("%-36s %12.3f   (must be >= 0.75)\n", "median tps ratio",
              r.tps_ratio);
  std::printf("%-36s %6lld full+inc (%lld incremental)\n", "backups taken",
              static_cast<long long>(r.backups_taken),
              static_cast<long long>(r.incremental_backups));
  std::printf("%-36s %6lld copied, %lld skipped as clean\n",
              "pages across the chain",
              static_cast<long long>(r.pages_copied),
              static_cast<long long>(r.pages_skipped));
  std::printf("%-36s %6lld\n", "log records captured",
              static_cast<long long>(r.log_records_captured));
  std::printf("%-36s %12s\n", "restored chain == primary",
              r.restore_identical ? "yes" : "NO");
  std::printf("%-36s %12s\n", "restored chain == recovered twin",
              r.recovered_twin_identical ? "yes" : "NO");
  std::printf("%-36s %12s\n", "replica == primary after catch-up",
              r.replica_identical ? "yes" : "NO");
  std::printf("%-36s %6lld consistent, max lag %lld bytes\n",
              "replica snapshot reads mid-run",
              static_cast<long long>(r.replica_consistent_snapshots),
              static_cast<long long>(r.replica_max_lag_lsn));
  for (const DrainPoint& p : drain) {
    std::printf("  drain of 256-txn backlog, cap %-9s %4lld batches, "
                "lag after first batch %lld\n",
                p.batch_cap == 0 ? "unbounded" :
                    std::to_string(p.batch_cap).c_str(),
                static_cast<long long>(p.batches),
                static_cast<long long>(p.initial_lag));
  }

  // The §13 claims, machine-checked on every run (including CI smoke).
  // Flush first: a failed check aborts, and the figures above explain it.
  std::fflush(stdout);
  MMDB_CHECK_MSG(r.restore_identical,
                 "hot backup restore diverged from the primary image");
  MMDB_CHECK_MSG(r.recovered_twin_identical,
                 "restored chain diverged from the recovered twin");
  MMDB_CHECK_MSG(r.tps_ratio >= 0.75,
                 "backup loop cost more than 25% of primary throughput");
  MMDB_CHECK_MSG(r.replica_identical,
                 "replica diverged from the primary committed state");
  MMDB_CHECK_MSG(r.replica_consistent_snapshots > 0,
                 "no replica snapshot read completed mid-run");
  MMDB_CHECK_MSG(r.replica_final_lag_lsn == 0,
                 "replica lag did not drain to zero after catch-up");

  std::printf("\npaper (§5 adapted): the fuzzy checkpointer's page sweep "
              "generalizes to online backup — copy pages while transactions "
              "run, fence with an end-marker LSN, and repair cross-page "
              "fuzziness by re-running the winner/loser resolution over the "
              "captured log window; shipping that same window continuously "
              "yields a read replica whose lag is the LSN distance between "
              "fences.\n");

  if (!json_path.empty()) WriteJson(json_path, r, drain);
  return 0;
}
