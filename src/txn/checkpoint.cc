#include "txn/checkpoint.h"

#include "txn/log_manager.h"

namespace mmdb {

Checkpointer::Checkpointer(RecoverableStore* store, FirstUpdateTable* fut,
                           Wal* wal, CheckpointerOptions options,
                           MetricsRegistry* metrics)
    : store_(store),
      fut_(fut),
      wal_(wal),
      options_(options),
      counters_(metrics, "checkpoint",
                {{kPagesWritten, "pages_written"}, {kSweeps, "sweeps"}}) {}

Checkpointer::~Checkpointer() { Stop(); }

StatusOr<int64_t> Checkpointer::CheckpointOnce() {
  int64_t written = 0;
  for (int64_t page : store_->DirtyPages()) {
    if (options_.pages_per_sweep > 0 && written >= options_.pages_per_sweep) {
      break;
    }
    MMDB_RETURN_IF_ERROR(store_->CheckpointPage(page, fut_, wal_));
    ++written;
  }
  counters_.Add(kPagesWritten, written);
  counters_.Add(kSweeps);
  return written;
}

void Checkpointer::Start() {
  stop_.store(false);
  thread_ = std::thread(&Checkpointer::Loop, this);
}

void Checkpointer::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void Checkpointer::Loop() {
  while (!stop_.load()) {
    StatusOr<int64_t> written = CheckpointOnce();
    if (!written.ok()) return;  // store crashed mid-sweep; just stop
    std::this_thread::sleep_for(options_.sweep_interval);
  }
}

}  // namespace mmdb
