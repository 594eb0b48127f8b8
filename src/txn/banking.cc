#include "txn/banking.h"

#include <cstring>
#include <thread>
#include <vector>

#include "common/check.h"

namespace mmdb {

std::string EncodeAccount(int64_t balance, int32_t record_size) {
  std::string rec(static_cast<size_t>(record_size), '\0');
  std::memcpy(rec.data(), &balance, sizeof(balance));
  return rec;
}

int64_t DecodeAccount(std::string_view record) {
  MMDB_CHECK(record.size() >= sizeof(int64_t));
  int64_t balance;
  std::memcpy(&balance, record.data(), sizeof(balance));
  return balance;
}

Status InitAccounts(RecoverableStore* store, const BankingOptions& options) {
  const std::string rec =
      EncodeAccount(options.initial_balance, options.record_size);
  for (int64_t i = 0; i < options.num_accounts; ++i) {
    MMDB_RETURN_IF_ERROR(store->WriteRecord(i, rec, kInvalidLsn, nullptr));
  }
  return Status::OK();
}

Status RunOneTransfer(TransactionManager* tm, const BankingOptions& options,
                      Random* rng) {
  int64_t a = static_cast<int64_t>(
      rng->Uniform(static_cast<uint64_t>(options.num_accounts)));
  int64_t b = static_cast<int64_t>(
      rng->Uniform(static_cast<uint64_t>(options.num_accounts - 1)));
  if (b >= a) ++b;
  if (options.ordered_locks && a > b) std::swap(a, b);
  const int64_t amount = rng->UniformInt(1, 100);

  const TxnId txn = tm->Begin();
  auto run = [&]() -> Status {
    MMDB_ASSIGN_OR_RETURN(std::string rec_a, tm->Read(txn, a));
    MMDB_ASSIGN_OR_RETURN(std::string rec_b, tm->Read(txn, b));
    const int64_t bal_a = DecodeAccount(rec_a);
    const int64_t bal_b = DecodeAccount(rec_b);
    MMDB_RETURN_IF_ERROR(tm->Update(
        txn, a, EncodeAccount(bal_a - amount, options.record_size)));
    MMDB_RETURN_IF_ERROR(tm->Update(
        txn, b, EncodeAccount(bal_b + amount, options.record_size)));
    return tm->Commit(txn);
  };
  Status status = run();
  if (!status.ok()) {
    // Roll back whatever was done (Abort also handles the nothing-done
    // case) and surface the original failure.
    (void)tm->Abort(txn);
  }
  return status;
}

BankingResult RunBankingWorkload(TransactionManager* tm,
                                 const BankingOptions& options) {
  const Wal::Stats wal_before = tm->wal()->stats();
  const int64_t committed_before = tm->metrics()->Get("txn.committed");
  const int64_t aborted_before = tm->metrics()->Get("txn.aborted");

  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + options.duration;
  for (int t = 0; t < options.num_threads; ++t) {
    threads.emplace_back([&, t]() {
      Random rng(options.seed + static_cast<uint64_t>(t) * 7919);
      while (std::chrono::steady_clock::now() < deadline) {
        (void)RunOneTransfer(tm, options, &rng);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  BankingResult result;
  result.committed = tm->metrics()->Get("txn.committed") - committed_before;
  result.aborted = tm->metrics()->Get("txn.aborted") - aborted_before;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  result.tps =
      result.wall_seconds > 0 ? double(result.committed) / result.wall_seconds
                              : 0;
  const Wal::Stats wal_after = tm->wal()->stats();
  result.wal.device_writes = wal_after.device_writes - wal_before.device_writes;
  result.wal.device_bytes = wal_after.device_bytes - wal_before.device_bytes;
  result.wal.logical_bytes = wal_after.logical_bytes - wal_before.logical_bytes;
  result.wal.commits = wal_after.commits - wal_before.commits;
  result.wal.avg_commit_group = wal_after.avg_commit_group;
  return result;
}

StatusOr<int64_t> TotalBalance(RecoverableStore* store,
                               const BankingOptions& options) {
  int64_t total = 0;
  std::string rec;
  for (int64_t i = 0; i < options.num_accounts; ++i) {
    MMDB_RETURN_IF_ERROR(store->ReadRecord(i, &rec));
    total += DecodeAccount(rec);
  }
  return total;
}

}  // namespace mmdb
