#include "replica/log_shipper.h"

#include <utility>
#include <vector>

namespace mmdb {

LogShipper::LogShipper(Wal* primary_wal, Replica* replica, Options options)
    : wal_(primary_wal), replica_(replica), options_(options) {}

LogShipper::LogShipper(Wal* primary_wal, Replica* replica)
    : LogShipper(primary_wal, replica, Options()) {}

LogShipper::~LogShipper() { Stop(); }

StatusOr<int64_t> LogShipper::ShipOnce() {
  // One shipper may be driven from the poll thread and a test at once;
  // serialize whole batches so cursor advance matches what was applied.
  std::unique_lock<std::mutex> lock(mu_);
  const Lsn horizon = wal_->DurableHorizon();
  if (horizon <= 0) {
    return Status::FailedPrecondition(
        "wal implementation does not support log shipping");
  }
  if (horizon <= cursor_) return int64_t{0};

  std::vector<LogRecord> batch = wal_->ReadDurableRange(cursor_, horizon);
  Lsn upto = horizon;
  if (options_.max_batch_records > 0 &&
      static_cast<int64_t>(batch.size()) > options_.max_batch_records) {
    batch.resize(options_.max_batch_records);
    // The stream stays gapless: next batch resumes right after the last
    // record actually shipped.
    upto = batch.back().lsn + 1;
  }
  MMDB_RETURN_IF_ERROR(replica_->ApplyRecords(batch, upto, horizon));
  cursor_ = upto;
  return static_cast<int64_t>(batch.size());
}

Status LogShipper::CatchUp() {
  const Lsn target = wal_->DurableHorizon();
  while (replica_->AppliedHorizon() < target) {
    MMDB_ASSIGN_OR_RETURN(int64_t shipped, ShipOnce());
    (void)shipped;
  }
  return Status::OK();
}

void LogShipper::Start() {
  if (running_.exchange(true)) return;
  {
    std::unique_lock<std::mutex> lock(stop_mu_);
    stopping_ = false;
  }
  thread_ = std::thread([this] { PollLoop(); });
}

void LogShipper::Stop() {
  if (!running_.exchange(false)) return;
  {
    std::unique_lock<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void LogShipper::PollLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      stop_cv_.wait_for(lock, options_.poll_interval,
                        [this] { return stopping_; });
      if (stopping_) return;
    }
    // A failed ship (e.g. promoted replica) ends the stream; the primary
    // side keeps its durable log, so a new shipper can resume later.
    auto shipped = ShipOnce();
    if (!shipped.ok()) return;
  }
}

}  // namespace mmdb
