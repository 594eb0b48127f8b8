#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "exec/aggregate.h"
#include "exec/join.h"
#include "server/server.h"
#include "storage/datagen.h"
#include "txn/banking.h"

namespace mmdb {
namespace {

// ---------------------------------------------------------------------------
// Counters.

TEST(MetricsCounterTest, AddSetGet) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.Get("never.touched"), 0);
  reg.Add("a", 3);
  reg.Add("a", 4);
  EXPECT_EQ(reg.Get("a"), 7);
  reg.Set("a", 100);
  EXPECT_EQ(reg.Get("a"), 100);
  reg.Add("a", -1);
  EXPECT_EQ(reg.Get("a"), 99);
}

TEST(MetricsCounterTest, HandlesAreStableAcrossInsertions) {
  MetricsRegistry reg;
  MetricCounter* a = reg.counter("a");
  a->Add(1);
  // Force rebalancing / new nodes; the handle must stay valid.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i))->Add(1);
  }
  a->Add(1);
  EXPECT_EQ(reg.Get("a"), 2);
  EXPECT_EQ(reg.counter("a"), a);  // get-or-create returns the same object
}

// ---------------------------------------------------------------------------
// Histograms.

TEST(MetricsHistogramTest, BucketOfIsBitWidth) {
  // Bucket i holds values of bit width i, i.e. [2^(i-1), 2^i).
  EXPECT_EQ(MetricHistogram::BucketOf(-5), 0);
  EXPECT_EQ(MetricHistogram::BucketOf(0), 0);
  EXPECT_EQ(MetricHistogram::BucketOf(1), 1);
  EXPECT_EQ(MetricHistogram::BucketOf(2), 2);
  EXPECT_EQ(MetricHistogram::BucketOf(3), 2);
  EXPECT_EQ(MetricHistogram::BucketOf(4), 3);
  EXPECT_EQ(MetricHistogram::BucketOf(7), 3);
  EXPECT_EQ(MetricHistogram::BucketOf(8), 4);
  EXPECT_EQ(MetricHistogram::BucketOf(1023), 10);
  EXPECT_EQ(MetricHistogram::BucketOf(1024), 11);
  EXPECT_EQ(MetricHistogram::BucketOf(INT64_MAX),
            MetricHistogram::kNumBuckets - 1);
}

TEST(MetricsHistogramTest, RecordTracksCountSumMinMaxBuckets) {
  MetricHistogram h;
  h.Record(5);
  h.Record(1);
  h.Record(12);
  const MetricHistogram::Data d = h.data();
  EXPECT_EQ(d.count, 3);
  EXPECT_EQ(d.sum, 18);
  EXPECT_EQ(d.min, 1);
  EXPECT_EQ(d.max, 12);
  EXPECT_DOUBLE_EQ(d.Mean(), 6.0);
  EXPECT_EQ(d.buckets[size_t(MetricHistogram::BucketOf(1))], 1);
  EXPECT_EQ(d.buckets[size_t(MetricHistogram::BucketOf(5))], 1);
  EXPECT_EQ(d.buckets[size_t(MetricHistogram::BucketOf(12))], 1);
}

TEST(MetricsHistogramTest, MergeCombinesAndEmptyMergeIsNoOp) {
  MetricHistogram a;
  a.Record(2);
  a.Record(100);
  MetricHistogram b;
  b.Record(1);
  b.Record(50);
  a.MergeFrom(b);
  MetricHistogram::Data d = a.data();
  EXPECT_EQ(d.count, 4);
  EXPECT_EQ(d.sum, 153);
  EXPECT_EQ(d.min, 1);
  EXPECT_EQ(d.max, 100);

  MetricHistogram empty;
  a.MergeFrom(empty);  // no-op
  EXPECT_TRUE(a.data() == d);

  empty.MergeFrom(a);  // merge into empty adopts min/max wholesale
  EXPECT_TRUE(empty.data() == d);
}

TEST(MetricsHistogramTest, PercentileOfEmptyAndSingleValue) {
  EXPECT_EQ(MetricHistogram::Data{}.Percentile(0.5), 0);
  MetricHistogram h;
  h.Record(1000);
  const MetricHistogram::Data d = h.data();
  for (double p : {0.0, 0.5, 0.9, 0.999, 1.0}) {
    EXPECT_EQ(d.Percentile(p), 1000) << p;  // clamped to [min, max]
  }
}

TEST(MetricsHistogramTest, PercentileIsNearestRankBucketUpperEdge) {
  MetricHistogram h;
  for (int64_t v : {1, 2, 3, 100}) h.Record(v);
  const MetricHistogram::Data d = h.data();
  EXPECT_EQ(d.Percentile(0.0), 1);   // rank 1: bucket [1, 2)
  EXPECT_EQ(d.Percentile(0.25), 1);  // rank 1
  EXPECT_EQ(d.Percentile(0.5), 3);   // rank 2: value 2, bucket [2, 4)
  EXPECT_EQ(d.Percentile(0.75), 3);  // rank 3: value 3, same bucket
  EXPECT_EQ(d.Percentile(0.76), 100);  // rank 4: [64, 128) clamped to max
  EXPECT_EQ(d.Percentile(1.0), 100);

  // 100 values 1..100: ranks land on exact products without rounding up.
  MetricHistogram hundred;
  for (int64_t v = 1; v <= 100; ++v) hundred.Record(v);
  const MetricHistogram::Data h100 = hundred.data();
  EXPECT_EQ(h100.Percentile(0.07), 7);   // rank 7: bucket [4, 8)
  EXPECT_EQ(h100.Percentile(0.08), 15);  // rank 8: bucket [8, 16)
  EXPECT_EQ(h100.Percentile(0.5), 63);   // rank 50: bucket [32, 64)
  EXPECT_EQ(h100.Percentile(0.99), 100);

  // Non-positive values share bucket 0, whose upper edge is 0.
  MetricHistogram low;
  low.Record(-4);
  low.Record(0);
  low.Record(9);
  EXPECT_EQ(low.data().Percentile(0.5), 0);
  EXPECT_EQ(low.data().Percentile(1.0), 9);
}

TEST(MetricsHistogramTest, PercentileOfMergedDataSeesBothSides) {
  MetricHistogram fast;
  MetricHistogram slow;
  for (int i = 0; i < 90; ++i) fast.Record(10);
  for (int i = 0; i < 10; ++i) slow.Record(5000);
  MetricHistogram::Data merged = fast.data();
  merged.MergeFrom(slow.data());
  EXPECT_EQ(merged.Percentile(0.5), 15);     // bucket [8, 16)
  EXPECT_EQ(merged.Percentile(0.9), 15);     // rank 90: still a fast value
  EXPECT_EQ(merged.Percentile(0.91), 5000);  // bucket [4096, 8192) -> max
  // Merging in either direction gives the same quantiles.
  MetricHistogram::Data other = slow.data();
  other.MergeFrom(fast.data());
  for (double p : {0.1, 0.5, 0.9, 0.91, 0.99}) {
    EXPECT_EQ(other.Percentile(p), merged.Percentile(p)) << p;
  }
}

// ---------------------------------------------------------------------------
// Registry merge / reset / snapshot semantics.

TEST(MetricsRegistryTest, MergeFromAddsCountersAndMergesHistograms) {
  MetricsRegistry a;
  a.Add("shared", 10);
  a.Add("only_a", 1);
  a.Record("hist", 4);
  MetricsRegistry b;
  b.Add("shared", 5);
  b.Add("only_b", 2);
  b.Record("hist", 16);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get("shared"), 15);
  EXPECT_EQ(a.Get("only_a"), 1);
  EXPECT_EQ(a.Get("only_b"), 2);
  const MetricHistogram::Data d = a.histogram("hist")->data();
  EXPECT_EQ(d.count, 2);
  EXPECT_EQ(d.sum, 20);
  EXPECT_EQ(d.min, 4);
  EXPECT_EQ(d.max, 16);
  // The source registry is untouched.
  EXPECT_EQ(b.Get("shared"), 5);
}

TEST(MetricsRegistryTest, SnapshotSurvivesReset) {
  MetricsRegistry reg;
  reg.Add("c", 42);
  reg.Record("h", 9);
  const MetricsRegistry::Snapshot snap = reg.TakeSnapshot();
  reg.Reset();
  // The snapshot keeps the pre-reset values...
  EXPECT_EQ(snap.counters.at("c"), 42);
  EXPECT_EQ(snap.histograms.at("h").count, 1);
  // ...while the registry is zeroed with the names intact.
  EXPECT_EQ(reg.Get("c"), 0);
  EXPECT_EQ(reg.histogram("h")->data().count, 0);
  const MetricsRegistry::Snapshot after = reg.TakeSnapshot();
  EXPECT_EQ(after.counters.count("c"), 1u);
  EXPECT_EQ(after.counters.at("c"), 0);
}

TEST(MetricsRegistryTest, ToJsonIsDeterministicAndNameSorted) {
  MetricsRegistry reg;
  reg.Add("zeta", 1);
  reg.Add("alpha", 2);
  reg.Record("h", 3);
  reg.Record("h", 1024);
  EXPECT_EQ(reg.ToJson(),
            "{\"counters\":{\"alpha\":2,\"zeta\":1},"
            "\"histograms\":{\"h\":{\"count\":2,\"sum\":1027,\"min\":3,"
            "\"max\":1024,\"buckets\":[[4,1],[2048,1]]}}}");
}

TEST(MetricsRegistryTest, ToJsonEscapesQuotesAndBackslashes) {
  MetricsRegistry reg;
  reg.Add("quo\"te\\slash", 1);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"quo\\\"te\\\\slash\":1"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Determinism (DESIGN.md §9): an operator's metrics and cost counters are
// a function of its input and grant alone, identical across reruns, both
// for the in-memory and the spilling paths.

constexpr int kReruns = 2;

void ExpectSnapshotsEqual(const MetricsRegistry::Snapshot& got,
                          const MetricsRegistry::Snapshot& want,
                          const std::string& label) {
  EXPECT_EQ(got.counters, want.counters) << label;
  EXPECT_TRUE(got.histograms == want.histograms)
      << label << "\n got: " << got.ToJson() << "\nwant: " << want.ToJson();
}

TEST(MetricsDeterminismTest, JoinMetricsIdenticalAcrossReruns) {
  GenOptions r_opts;
  r_opts.num_tuples = 600;
  r_opts.tuple_width = 64;
  r_opts.seed = 4242;
  GenOptions s_opts;
  s_opts.num_tuples = 900;
  s_opts.tuple_width = 48;
  s_opts.key_range = 600;
  s_opts.seed = 2424;
  const Relation r = MakeKeyedRelation(r_opts);
  const Relation s = MakeKeyedRelation(s_opts);
  // Half-memory so hybrid hash really spills: exec.spill.* must stay
  // deterministic too.
  const int64_t memory = std::max<int64_t>(
      2, static_cast<int64_t>(0.5 * double(r.NumPages(4096)) * 1.2));

  const JoinAlgorithm kAlgorithms[] = {JoinAlgorithm::kSimpleHash,
                                       JoinAlgorithm::kGraceHash,
                                       JoinAlgorithm::kHybridHash};
  for (JoinAlgorithm alg : kAlgorithms) {
    ExecEnv first_env(memory);
    auto first = ExecuteJoin(alg, r, s, JoinSpec{0, 0}, &first_env.ctx);
    ASSERT_TRUE(first.ok()) << JoinAlgorithmName(alg);
    const MetricsRegistry::Snapshot expected =
        first_env.metrics.TakeSnapshot();
    const CostCounters expected_counters = first_env.clock.counters();
    EXPECT_GT(expected.counters.at("exec.join.runs"), 0);

    for (int rerun = 0; rerun < kReruns; ++rerun) {
      ExecEnv env(memory);
      auto out = ExecuteJoin(alg, r, s, JoinSpec{0, 0}, &env.ctx);
      ASSERT_TRUE(out.ok()) << JoinAlgorithmName(alg);
      const std::string label = std::string(JoinAlgorithmName(alg)) +
                                " rerun=" + std::to_string(rerun);
      ExpectSnapshotsEqual(env.metrics.TakeSnapshot(), expected, label);
      EXPECT_EQ(env.clock.counters(), expected_counters) << label;
    }
  }
}

TEST(MetricsDeterminismTest, AggregateMetricsIdenticalAcrossReruns) {
  GenOptions opts;
  opts.num_tuples = 4000;
  opts.tuple_width = 48;
  opts.key_range = 200;
  opts.seed = 777;
  const Relation input = MakeKeyedRelation(opts);
  AggregateSpec spec;
  spec.group_by = {0};
  spec.aggregates = {{AggFn::kCount, 0, "cnt"}, {AggFn::kSum, 1, "sum"}};

  ExecEnv first_env(8);  // 8 pages => partitioned (spilling) path
  auto first = HashAggregate(input, spec, &first_env.ctx);
  ASSERT_TRUE(first.ok());
  const MetricsRegistry::Snapshot expected = first_env.metrics.TakeSnapshot();
  EXPECT_EQ(expected.counters.at("exec.agg.input_tuples"), 4000);
  EXPECT_GT(expected.counters.at("exec.agg.spilled_partitions"), 0);

  for (int rerun = 0; rerun < kReruns; ++rerun) {
    ExecEnv env(8);
    auto out = HashAggregate(input, spec, &env.ctx);
    ASSERT_TRUE(out.ok());
    ExpectSnapshotsEqual(env.metrics.TakeSnapshot(), expected,
                         "rerun=" + std::to_string(rerun));
  }
}

TEST(MetricsDeterminismTest, NullMetricsPointerRecordsNothingAndStillRuns) {
  GenOptions opts;
  opts.num_tuples = 300;
  opts.tuple_width = 32;
  opts.seed = 5;
  const Relation r = MakeKeyedRelation(opts);
  ExecEnv env(1024);
  env.ctx.metrics = nullptr;  // observability off
  auto out = ExecuteJoin(JoinAlgorithm::kHybridHash, r, r, JoinSpec{0, 0},
                         &env.ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_tuples(), 300);
  EXPECT_EQ(env.metrics.Get("exec.join.runs"), 0);
}

// ---------------------------------------------------------------------------
// The database registry: every component counts where the event happens,
// so a read needs no snapshot first and counts survive Crash()/Recover().

Database::TxnPlaneOptions FastPlane() {
  Database::TxnPlaneOptions plane;
  plane.num_records = 256;
  plane.log_write_latency = std::chrono::microseconds(0);
  return plane;
}

/// Commits `n` one-update record-plane transactions.
void CommitRecords(Database* db, int n) {
  TransactionManager* tm = db->txn_manager();
  const std::string value(
      static_cast<size_t>(db->recoverable_store()->record_size()), 'v');
  for (int i = 0; i < n; ++i) {
    const TxnId txn = tm->Begin();
    ASSERT_TRUE(tm->Update(txn, i, value).ok());
    ASSERT_TRUE(tm->Commit(txn).ok());
  }
}

TEST(MetricsTest, TxnPlaneCountersAreLiveWithoutSnapshot) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(FastPlane()).ok());
  CommitRecords(&db, 5);
  EXPECT_EQ(db.metrics()->Get("txn.committed"), 5);
  EXPECT_EQ(db.metrics()->Get("log.commits"), 5);
}

TEST(MetricsTest, CountersStayMonotonicAcrossRecover) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(FastPlane()).ok());
  CommitRecords(&db, 5);
  ASSERT_TRUE(db.Crash().ok());
  ASSERT_TRUE(db.Recover().ok());
  CommitRecords(&db, 1);
  // Through the JSON too: a snapshot must not reset what was counted.
  const std::string json = db.MetricsJson();
  EXPECT_NE(json.find("\"txn.committed\":6"), std::string::npos);
  EXPECT_EQ(db.metrics()->Get("txn.committed"), 6);
}

TEST(MetricsTest, CheckpointerSweepsCount) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(FastPlane()).ok());
  CommitRecords(&db, 3);
  // The background loop's path, not CheckpointNow.
  auto written = db.checkpointer()->CheckpointOnce();
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(db.metrics()->Get("checkpoint.sweeps"), 1);
  EXPECT_EQ(db.metrics()->Get("checkpoint.pages_written"), *written);
}

TEST(MetricsTest, ReuseInvalidationReachesRegistry) {
  Database::Options options;
  options.reuse_cache_bytes = 1 << 20;
  Database db(options);
  ASSERT_TRUE(db.ExecuteSql("CREATE TABLE t (k INT64, v INT64)").ok());
  ASSERT_TRUE(db.ExecuteSql("INSERT INTO t VALUES (1, 1)").ok());
  auto table = db.GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(db.reuse_cache()->InstallResult("t-scan", {"t"}, **table, 1.0));
  ASSERT_TRUE(db.ExecuteSql("UPDATE t SET v = 2 WHERE k = 1").ok());
  EXPECT_EQ(db.metrics()->Get("cache.reuse.invalidated_entries"), 1);
  EXPECT_EQ(db.metrics()->Get("cache.reuse.entries"), 0);
}

TEST(MetricsConcurrencyTest, SnapshotsBesideCommittingTransfers) {
  Database db;
  ASSERT_TRUE(db.EnableTransactions(FastPlane()).ok());
  BankingOptions bank;
  bank.num_accounts = 256;
  ASSERT_TRUE(InitAccounts(db.recoverable_store(), bank).ok());
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 50;
  std::atomic<int64_t> committed{0};
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(100 + t));
      for (int i = 0; i < kTransfersPerThread; ++i) {
        if (RunOneTransfer(db.txn_manager(), bank, &rng).ok()) {
          committed.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  do {
    EXPECT_FALSE(db.MetricsJson().empty());
  } while (running.load() > 0);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(db.metrics()->Get("txn.committed"), committed.load());
}

/// One fixed single-threaded run over the whole surface: the versioned txn
/// plane with a checkpoint and a hot backup, a crash and an instant
/// recovery, then SQL through a server session with the reuse cache on.
void RunSurfaceScenario(Database* db) {
  Database::TxnPlaneOptions plane = FastPlane();
  plane.enable_versioning = true;
  ASSERT_TRUE(db->EnableTransactions(plane).ok());
  CommitRecords(db, 5);
  TransactionManager* tm = db->txn_manager();
  const TxnId snapshot = tm->BeginSnapshotTxn();
  ASSERT_TRUE(tm->Read(snapshot, 1).ok());
  ASSERT_TRUE(tm->Commit(snapshot).ok());
  ASSERT_TRUE(db->CheckpointNow().ok());
  ASSERT_TRUE(db->backup()->RunHotBackup().ok());
  CommitRecords(db, 3);
  ASSERT_TRUE(db->Crash().ok());
  RecoveryOptions recovery;
  recovery.mode = RecoveryMode::kInstant;
  ASSERT_TRUE(db->Recover(recovery).ok());
  ASSERT_TRUE(db->WaitRecoveryDrained().ok());

  Server server(db);
  auto session = server.OpenSession();
  ASSERT_TRUE(session.ok());
  for (const char* sql : {
           "CREATE TABLE emp (id INT64, dept INT64)",
           "CREATE TABLE dept (dept INT64, name CHAR(12))",
           "INSERT INTO emp VALUES (1, 1)",
           "INSERT INTO emp VALUES (2, 2)",
           "INSERT INTO dept VALUES (1, 'one')",
           "INSERT INTO dept VALUES (2, 'two')",
           "SELECT id, name FROM emp, dept WHERE emp.dept = dept.dept",
           "SELECT id, name FROM emp, dept WHERE emp.dept = dept.dept",
           "UPDATE emp SET dept = 2 WHERE id = 1",
           "SELECT id, name FROM emp, dept WHERE emp.dept = dept.dept",
       }) {
    ASSERT_TRUE((*session)->ExecuteSql(sql).ok()) << sql;
  }
  ASSERT_TRUE(server.CloseSession((*session)->id()).ok());
}

TEST(MetricsTest, RegistryNamesCoverParent) {
  // Every counter name MetricsJson() printed for RunSurfaceScenario while a
  // snapshot still copied the txn plane in; none may be lost or renamed.
  static const char* const kNames[] = {
      "backup.backups_taken", "backup.incremental_backups",
      "backup.last_end_lsn", "backup.log_records_captured",
      "backup.pages_copied", "backup.pages_skipped", "buffer_pool.evictions",
      "buffer_pool.faults", "buffer_pool.fetches", "buffer_pool.hits",
      "buffer_pool.io_retries", "buffer_pool.writebacks",
      "cache.reuse.build_hits", "cache.reuse.bytes", "cache.reuse.entries",
      "cache.reuse.evictions", "cache.reuse.hits", "cache.reuse.installs",
      "cache.reuse.invalidations", "cache.reuse.misses",
      "cache.reuse.rejected", "checkpoint.pages_written", "checkpoint.sweeps",
      "disk.io_errors", "disk.rand_ios", "disk.reads", "disk.seq_ios",
      "disk.writes", "locks.acquisitions", "locks.deadlocks",
      "locks.dependencies_recorded", "locks.waits", "log.commits",
      "log.device_bytes", "log.device_writes", "log.io_retries",
      "log.logical_bytes", "log.write_failures", "mvcc.aborts",
      "mvcc.chain_reads", "mvcc.commits", "mvcc.conflicts",
      "mvcc.direct_reads", "mvcc.versions_gced", "mvcc.versions_stored",
      "recovery.analysis.ms", "recovery.corrupt_records_skipped",
      "recovery.instant.complete", "recovery.instant.index_records",
      "recovery.instant.pending", "recovery.log_records_scanned",
      "recovery.ondemand.budget_exceeded", "recovery.ondemand.ms",
      "recovery.ondemand.records", "recovery.ondemand.replayed",
      "recovery.redo_applied", "recovery.runs",
      "recovery.snapshot_pages_read", "recovery.sweep.ms",
      "recovery.sweep.records", "recovery.sweep.replayed",
      "recovery.undo_applied", "server.admission.admitted",
      "server.sessions.active", "server.sessions.closed",
      "server.sessions.opened", "server.shutdowns",
      "session.row_lock_statements", "session.rows_affected",
      "session.statements", "sql.update.rows", "sql.update.statements",
      "txn.aborted", "txn.begun", "txn.committed", "txn.conflicts",
      "txn.snapshot_begun",
  };
  Database::Options options;
  options.reuse_cache_bytes = 1 << 20;
  Database db(options);
  RunSurfaceScenario(&db);
  const auto counters = db.metrics()->TakeSnapshot().counters;
  for (const char* name : kNames) EXPECT_EQ(counters.count(name), 1u) << name;
}

}  // namespace
}  // namespace mmdb
