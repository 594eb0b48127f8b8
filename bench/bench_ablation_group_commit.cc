// Ablation (DESIGN.md §5): group-commit trigger — idle device vs timer
// vs page-full.
//
// A commit group normally closes when its log page fills; with few
// concurrent transactions the page may never fill. With timeout 0 (the
// default) a waiting commit's page goes out as soon as the device is
// idle; a positive timeout lingers that long for more commits ("the
// transaction is delayed from committing until its commit record
// actually appears on disk"). We sweep the flush timeout at two
// concurrency levels and report throughput, commit-group size, and the
// derived mean commit latency (threads / tps, closed loop):
//
//   * high concurrency: pages fill before any timer — the timeout barely
//     matters (the paper's 1000-tps regime);
//   * low concurrency: a long timeout trades commit latency for group
//     size; past the point where groups stop growing it only adds latency.
//     No linger at all can split the clients into groups that never
//     merge (EXPERIMENTS, S5a/ablation re-run).

#include <cstdio>

#include "db/database.h"

namespace mmdb {
namespace {

/// Direct stack with a configurable timeout (the facade pins its own).
BankingResult RunWithTimeout(int threads,
                             std::chrono::microseconds flush_timeout,
                             int duration_ms) {
  SimulatedDisk disk(4096);
  StableMemory stable(1 << 20);
  LogDevice device(4096, std::chrono::milliseconds(10));
  RecoverableStore store(&disk, 10'000, 72, 4096);
  FirstUpdateTable fut(&stable, store.num_pages());
  LockManager locks;
  GroupCommitLogOptions gopts;
  gopts.group_commit = true;
  gopts.flush_timeout = flush_timeout;
  GroupCommitLog wal({&device}, gopts);
  wal.Start();
  TransactionManager tm(&store, &locks, &wal, &fut);

  BankingOptions opts;
  opts.num_accounts = 10'000;
  opts.num_threads = threads;
  opts.duration = std::chrono::milliseconds(duration_ms);
  MMDB_CHECK(InitAccounts(&store, opts).ok());
  BankingResult result = RunBankingWorkload(&tm, opts);
  wal.Stop();
  return result;
}

}  // namespace
}  // namespace mmdb

int main(int argc, char** argv) {
  using namespace mmdb;
  const int duration_ms = argc > 1 ? std::atoi(argv[1]) : 1500;
  std::printf("== Ablation: group-commit flush timeout (10 ms log page "
              "writes, %d ms runs) ==\n\n",
              duration_ms);
  std::printf("%10s %12s | %9s %12s %14s\n", "threads", "timeout",
              "tps", "group size", "latency(ms)");
  for (int threads : {4, 64}) {
    for (int timeout_us : {0, 200, 1000, 5000, 20000}) {
      const BankingResult r = RunWithTimeout(
          threads, std::chrono::microseconds(timeout_us), duration_ms);
      std::printf("%10d %9d us | %9.0f %12.1f %14.1f\n", threads,
                  timeout_us, r.tps, r.wal.avg_commit_group,
                  r.tps > 0 ? double(threads) / r.tps * 1000 : 0.0);
    }
  }
  std::printf("\nwith 64 clients the page fills before any timer (timeout "
              "irrelevant); with 4 clients a longer timeout grows the "
              "commit group but charges every commit the wait.\n");
  return 0;
}
