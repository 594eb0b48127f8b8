#include "txn/instant_recovery.h"

#include <chrono>
#include <string>

#include "common/check.h"

namespace mmdb {

namespace {
int64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

RecoveryController::RecoveryController(RecoverableStore* store,
                                       FirstUpdateTable* fut, Wal* wal,
                                       InstantRecoveryPlan plan,
                                       RecoveryOptions options,
                                       std::function<void()> on_complete,
                                       MetricsRegistry* metrics)
    : store_(store),
      fut_(fut),
      wal_(wal),
      plan_(std::move(plan)),
      options_(options),
      on_complete_(std::move(on_complete)),
      counters_(metrics, "recovery",
                {{kOndemandRecords, "ondemand.records"},
                 {kOndemandReplayed, "ondemand.replayed"},
                 {kOndemandBudgetExceeded, "ondemand.budget_exceeded"},
                 {kSweepRecords, "sweep.records"},
                 {kSweepReplayed, "sweep.replayed"}, {kSweepMs, "sweep.ms"},
                 {kOndemandMs, "ondemand.ms"}, {kPending, "instant.pending"},
                 {kComplete, "instant.complete"},
                 {kIndexRecords, "instant.index_records"},
                 {kAnalysisMs, "analysis.ms"}}) {
  const int64_t n = store_->num_records();
  restored_ = std::make_unique<std::atomic<bool>[]>(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    restored_[static_cast<size_t>(i)].store(true, std::memory_order_relaxed);
  }
  for (const auto& [record_id, endpoint] : plan_.pending) {
    restored_[static_cast<size_t>(record_id)].store(
        false, std::memory_order_relaxed);
  }
  remaining_.store(static_cast<int64_t>(plan_.pending.size()),
                   std::memory_order_release);
  counters_.Add(kIndexRecords, plan_.stats.pending_records);
  counters_.Add(kAnalysisMs,
                static_cast<int64_t>(plan_.stats.analysis_seconds * 1e3));
  counters_.Set(kPending, static_cast<int64_t>(plan_.pending.size()));
  counters_.Set(kComplete, 0);
}

RecoveryController::~RecoveryController() { Stop(); }

void RecoveryController::Start() {
  store_->set_access_guard(this);
  pool_ = std::make_unique<ThreadPool>(1);
  sweep_future_ = pool_->Submit([this] { SweepLoop(); });
}

void RecoveryController::Stop() {
  {
    // Under wait_mu_ so a waiter between its predicate check and its wait
    // cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(wait_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wait_cv_.notify_all();
  if (sweep_future_.valid()) sweep_future_.get();
  pool_.reset();
  // Detach only our own guard: a newer controller may already have
  // installed its own on the same store.
  store_->ClearAccessGuard(this);
}

Status RecoveryController::OnAccess(int64_t record_id) {
  if (complete_.load(std::memory_order_acquire)) return Status::OK();
  if (record_id < 0 || record_id >= store_->num_records()) {
    return Status::OK();  // the store will reject it with OutOfRange
  }
  if (restored_[static_cast<size_t>(record_id)].load(
          std::memory_order_acquire)) {
    return Status::OK();
  }
  return EnsureRecovered(record_id, /*from_sweep=*/false);
}

Status RecoveryController::EnsureRecovered(int64_t record_id,
                                           bool from_sweep) {
  std::unique_lock<std::mutex> shard(
      shards_[static_cast<size_t>(record_id) % kShards]);
  std::atomic<bool>& restored = restored_[static_cast<size_t>(record_id)];
  if (restored.load(std::memory_order_acquire)) return Status::OK();

  auto it = plan_.pending.find(record_id);
  MMDB_CHECK(it != plan_.pending.end());  // unrestored => indexed
  ResolvedRecord& endpoint = it->second;
  const int64_t cost = endpoint.chain_length;
  if (!from_sweep && cost > options_.ondemand_replay_budget) {
    ondemand_budget_exceeded_.fetch_add(1, std::memory_order_relaxed);
    counters_.Add(kOndemandBudgetExceeded);
    return Status::Recovering("record awaits background recovery");
  }

  const auto t0 = std::chrono::steady_clock::now();
  // The same restore the blocking schedule runs inline, deferred to
  // whoever reaches the record first.
  MMDB_RETURN_IF_ERROR(RestoreRecord(store_, record_id, endpoint, options_));
  // Retire the image: the index shrinks as recovery proceeds.
  endpoint.image = std::string();
  restored.store(true, std::memory_order_release);
  shard.unlock();

  if (from_sweep) {
    sweep_records_.fetch_add(1, std::memory_order_relaxed);
    sweep_replayed_.fetch_add(cost, std::memory_order_relaxed);
    counters_.Add(kSweepRecords);
    counters_.Add(kSweepReplayed, cost);
  } else {
    ondemand_records_.fetch_add(1, std::memory_order_relaxed);
    ondemand_replayed_.fetch_add(cost, std::memory_order_relaxed);
    ondemand_micros_.fetch_add(MicrosSince(t0), std::memory_order_relaxed);
    counters_.Add(kOndemandRecords);
    counters_.Add(kOndemandReplayed, cost);
  }
  remaining_.fetch_sub(1, std::memory_order_acq_rel);
  counters_.Add(kPending, -1);  // not Set: concurrent restores would race
  return Status::OK();
}

void RecoveryController::SweepLoop() {
  const auto t0 = std::chrono::steady_clock::now();
  Status status;
  int64_t in_batch = 0;
  for (int64_t record_id : plan_.sweep_order) {
    if (stop_.load(std::memory_order_acquire)) {
      status = Status::FailedPrecondition("recovery sweep stopped");
      break;
    }
    if (restored_[static_cast<size_t>(record_id)].load(
            std::memory_order_acquire)) {
      continue;  // restored on demand — don't count it against the batch
    }
    status = EnsureRecovered(record_id, /*from_sweep=*/true);
    if (!status.ok()) break;
    if (++in_batch >= options_.sweep_batch_size) {
      in_batch = 0;
      if (options_.sweep_pause.count() > 0) {
        std::unique_lock<std::mutex> lock(wait_mu_);
        wait_cv_.wait_for(lock, options_.sweep_pause, [this] {
          return stop_.load(std::memory_order_acquire);
        });
      }
    }
  }
  if (status.ok() && !stop_.load(std::memory_order_acquire)) {
    status = FinishSweep();
  }
  {
    std::unique_lock<std::mutex> lock(wait_mu_);
    sweep_status_ = status;
    sweep_done_.store(true, std::memory_order_release);
    // Total sweep wall time (start -> index retired + final checkpoint).
    const int64_t us = MicrosSince(t0);
    sweep_micros_.store(us, std::memory_order_release);
    // The serving window is closed: publish both phase timings.
    counters_.Add(kSweepMs, us / 1000);
    counters_.Add(kOndemandMs, ondemand_micros_.load() / 1000);
  }
  wait_cv_.notify_all();
  if (status.ok() && on_complete_) on_complete_();
}

Status RecoveryController::FinishSweep() {
  // The end-of-recovery step blocking recovery runs inline. Foreground
  // traffic runs beside it, so the checkpoints enforce the WAL rule.
  MMDB_RETURN_IF_ERROR(FinishRecovery(store_, fut_, wal_, plan_, &stop_));
  complete_.store(true, std::memory_order_release);
  counters_.Set(kComplete, 1);
  store_->ClearAccessGuard(this);
  return Status::OK();
}

Status RecoveryController::WaitComplete() {
  std::unique_lock<std::mutex> lock(wait_mu_);
  wait_cv_.wait(lock, [this] {
    return sweep_done_.load(std::memory_order_acquire) ||
           stop_.load(std::memory_order_acquire);
  });
  if (sweep_done_.load(std::memory_order_acquire)) return sweep_status_;
  return Status::FailedPrecondition("recovery controller stopped");
}

RecoveryStats RecoveryController::stats() const {
  RecoveryStats s = plan_.stats;
  s.ondemand_records = ondemand_records_.load(std::memory_order_acquire);
  s.ondemand_replayed = ondemand_replayed_.load(std::memory_order_acquire);
  s.ondemand_budget_exceeded =
      ondemand_budget_exceeded_.load(std::memory_order_acquire);
  s.ondemand_seconds =
      double(ondemand_micros_.load(std::memory_order_acquire)) * 1e-6;
  s.sweep_records = sweep_records_.load(std::memory_order_acquire);
  s.sweep_replayed = sweep_replayed_.load(std::memory_order_acquire);
  s.sweep_seconds =
      double(sweep_micros_.load(std::memory_order_acquire)) * 1e-6;
  // redo/undo in instant mode are the records actually replayed (on demand
  // or by the sweep), so the blocking/instant stat surfaces line up.
  s.redo_applied = s.ondemand_replayed + s.sweep_replayed;
  s.pending_records = plan_.stats.pending_records;
  return s;
}

}  // namespace mmdb
