// Reproduces §5.2's transaction-throughput ladder with REAL time: the log
// device sleeps 10 ms per 4 KB page write, exactly the paper's constant.
//
//   one log I/O per commit            ->  ~100 tps  (1s / 10ms)
//   group commit (~10 txns / page)    -> ~1000 tps
//   partitioned log, k devices        -> ~k * 1000 tps
//   stable-memory log buffer          -> commit at memory speed
//                                        (device still drains at 100 pages/s)
//
// Each configuration runs the banking workload (400-byte-log transfers)
// with enough client threads to keep commit groups full.
//
// Usage: bench_recovery_throughput [--smoke] [--json=PATH] [duration_ms]
//
// --smoke runs the first three rungs for 1 s each and exits non-zero
// unless the ladder's steps reproduce: group commit reaches >= 5x the
// per-commit tps at a group size >= 8, and two partitions reach >= 1.5x
// one log. --json writes every rung's row to PATH.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "db/database.h"

namespace mmdb {
namespace {

using WalKind = Database::TxnPlaneOptions::WalKind;

struct Config {
  const char* name;
  WalKind kind;
  int partitions;
  int threads;
  double paper_tps;  // the §5.2 ballpark
};

BankingResult RunConfig(const Config& config, int duration_ms) {
  Database db;
  Database::TxnPlaneOptions topts;
  topts.wal_kind = config.kind;
  topts.log_partitions = config.partitions;
  topts.num_records = 20'000;
  topts.log_write_latency = std::chrono::milliseconds(10);  // the paper's 10ms
  MMDB_CHECK(db.EnableTransactions(topts).ok());

  BankingOptions opts;
  opts.num_accounts = topts.num_records;
  opts.num_threads = config.threads;
  opts.duration = std::chrono::milliseconds(duration_ms);
  MMDB_CHECK(InitAccounts(db.recoverable_store(), opts).ok());
  const int64_t before = *TotalBalance(db.recoverable_store(), opts);
  BankingResult result = RunBankingWorkload(db.txn_manager(), opts);
  MMDB_CHECK_MSG(*TotalBalance(db.recoverable_store(), opts) == before,
                 "balance not conserved");
  return result;
}

}  // namespace
}  // namespace mmdb

int main(int argc, char** argv) {
  using namespace mmdb;
  bool smoke = false;
  int duration_ms = 3000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      duration_ms = std::atoi(argv[i]);
    }
  }
  if (smoke) duration_ms = 1000;
  const Config configs[] = {
      {"single log, no group commit", WalKind::kSingleNoGroupCommit, 1, 32,
       100},
      {"single log, group commit", WalKind::kSingle, 1, 64, 1000},
      {"partitioned log, 2 devices", WalKind::kPartitioned, 2, 96, 2000},
      {"partitioned log, 4 devices", WalKind::kPartitioned, 4, 128, 4000},
      {"stable-memory log buffer", WalKind::kStable, 1, 64, -1},
  };
  // The smoke needs only the rungs its checks compare.
  const int num_configs = smoke ? 3 : 5;
  std::printf("== §5.2 throughput ladder (10 ms / 4KB log page, %d ms "
              "runs, banking transfers ~430 B log each) ==\n\n",
              duration_ms);
  std::printf("%-30s %9s %10s %11s %11s %11s\n", "configuration",
              "tps", "paper", "log pages", "group size", "bytes/txn");
  std::vector<BankingResult> results;
  for (int c = 0; c < num_configs; ++c) {
    const Config& config = configs[c];
    const BankingResult r = RunConfig(config, duration_ms);
    results.push_back(r);
    char paper[16];
    if (config.paper_tps > 0) {
      std::snprintf(paper, sizeof(paper), "~%.0f", config.paper_tps);
    } else {
      std::snprintf(paper, sizeof(paper), "cpu-bound");
    }
    std::printf("%-30s %9.0f %10s %11lld %11.1f %11.0f\n", config.name,
                r.tps, paper, static_cast<long long>(r.wal.device_writes),
                r.wal.avg_commit_group,
                r.committed > 0
                    ? double(r.wal.logical_bytes) / double(r.committed)
                    : 0.0);
  }
  std::printf("\npaper: 100 tps -> 1000 tps via group commit; partitioned "
              "logs scale further; stable memory commits at memory speed "
              "while the drain is still device-bound.\n");

  const double group_speedup =
      results[0].tps > 0 ? results[1].tps / results[0].tps : 0;
  const double group_size = results[1].wal.avg_commit_group;
  const double partition_speedup =
      results[1].tps > 0 ? results[2].tps / results[1].tps : 0;
  std::printf("\ngroup commit / per-commit tps %6.2fx   (smoke: >= 5)\n"
              "group commit group size       %6.1f    (smoke: >= 8)\n"
              "2 partitions / 1 log tps      %6.2fx   (smoke: >= 1.5)\n",
              group_speedup, group_size, partition_speedup);

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"recovery_throughput\",\n"
                 "  \"duration_ms\": %d,\n"
                 "  \"group_commit_speedup\": %.3f,\n"
                 "  \"group_commit_group_size\": %.2f,\n"
                 "  \"partition_speedup\": %.3f,\n  \"rungs\": [",
                 duration_ms, group_speedup, group_size, partition_speedup);
    for (size_t i = 0; i < results.size(); ++i) {
      const BankingResult& r = results[i];
      std::fprintf(f,
                   "%s\n    {\"name\": \"%s\", \"tps\": %.1f, "
                   "\"log_pages\": %lld, \"group_size\": %.2f, "
                   "\"committed\": %lld}",
                   i == 0 ? "" : ",", configs[i].name, r.tps,
                   static_cast<long long>(r.wal.device_writes),
                   r.wal.avg_commit_group,
                   static_cast<long long>(r.committed));
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote results to %s\n", json_path.c_str());
  }

  if (smoke) {
    MMDB_CHECK_MSG(group_speedup >= 5.0,
                   "group commit fell below 5x per-commit flushing");
    MMDB_CHECK_MSG(group_size >= 8.0,
                   "group commit averaged fewer than 8 commits per page");
    MMDB_CHECK_MSG(partition_speedup >= 1.5,
                   "two log partitions fell below 1.5x one log");
  }
  return 0;
}
