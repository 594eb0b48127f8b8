#include "txn/stable_log.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace mmdb {

namespace {
constexpr char kQueueRegion[] = "stable_log_queue";
}  // namespace

std::string StableLogBuffer::TxnRegionName(TxnId txn) {
  return "txnlog_" + std::to_string(txn);
}

StableLogBuffer::StableLogBuffer(StableMemory* stable, LogDevice* device,
                                 StableLogOptions options,
                                 MetricsRegistry* metrics)
    : Wal(metrics), stable_(stable), device_(device), options_(options) {
  if (!stable_->Has(kQueueRegion)) {
    Status s = stable_->Allocate(kQueueRegion, 0);
    MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
}

StableLogBuffer::~StableLogBuffer() { Stop(); }

void StableLogBuffer::Start() {
  stop_ = false;
  drainer_ = std::thread(&StableLogBuffer::DrainerLoop, this);
}

void StableLogBuffer::Stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!drainer_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  drainer_.join();
}

Lsn StableLogBuffer::Append(LogRecord rec) {
  const int64_t size = rec.SerializedSize();
  const Lsn lsn = next_lsn_.fetch_add(size);
  rec.lsn = lsn;

  counters_.Add(kLogicalBytes, size);
  std::unique_lock<std::mutex> lock(mu_);
  const std::string region = TxnRegionName(rec.txn_id);
  if (!stable_->Has(region)) {
    Status s = stable_->Allocate(region, 0);
    MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
    active_txns_.insert(rec.txn_id);
  }
  std::string bytes;
  rec.AppendTo(&bytes);
  std::vector<char>* area = stable_->Region(region);
  const size_t old_size = area->size();
  Status s = stable_->Resize(region, static_cast<int64_t>(old_size + bytes.size()));
  MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
  // Routed through Write so the fault injector sees the transfer.
  s = stable_->Write(region, static_cast<int64_t>(old_size), bytes.data(),
                     static_cast<int64_t>(bytes.size()));
  MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
  return lsn;
}

Lsn StableLogBuffer::AppendCommit(LogRecord rec,
                                  const std::vector<TxnId>& deps) {
  // Dependencies need no lattice here: everything in stable memory is
  // already durable, so pre-commit and commit coincide.
  (void)deps;
  const TxnId txn = rec.txn_id;
  const Lsn lsn = Append(std::move(rec));

  std::unique_lock<std::mutex> lock(mu_);
  // Backpressure: wait for the drainer when the stable queue is full.
  cv_.wait(lock, [&] {
    const std::vector<char>* queue = stable_->Region(kQueueRegion);
    return static_cast<int64_t>(queue->size()) < options_.max_queue_bytes ||
           stop_;
  });
  // The transaction is now committed (stable). Move its records — undo
  // images stripped when compressing — into the stable output queue.
  const std::string region = TxnRegionName(txn);
  std::vector<char>* area = stable_->Region(region);
  MMDB_CHECK(area != nullptr);
  std::vector<LogRecord> recs =
      LogRecord::ParseAll(area->data(), static_cast<int64_t>(area->size()));
  std::string queued;
  for (LogRecord& r : recs) {
    if (options_.compress) {
      r.CompressForDisk().AppendTo(&queued);
    } else {
      r.AppendTo(&queued);
    }
  }
  std::vector<char>* queue = stable_->Region(kQueueRegion);
  const size_t old_size = queue->size();
  Status s = stable_->Resize(kQueueRegion,
                             static_cast<int64_t>(old_size + queued.size()));
  MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
  s = stable_->Write(kQueueRegion, static_cast<int64_t>(old_size),
                     queued.data(), static_cast<int64_t>(queued.size()));
  MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
  counters_.Add(kCommits);
  stable_->Free(region);
  active_txns_.erase(txn);
  lock.unlock();
  cv_.notify_all();
  return lsn;
}

void StableLogBuffer::DiscardTxn(TxnId txn) {
  std::unique_lock<std::mutex> lock(mu_);
  stable_->Free(TxnRegionName(txn));
  active_txns_.erase(txn);
}

void StableLogBuffer::DrainerLoop() {
  const int64_t page_size = device_->page_size();
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    std::vector<char>* queue = stable_->Region(kQueueRegion);
    const int64_t available = static_cast<int64_t>(queue->size());
    if (available >= page_size || (stop_ && available > 0)) {
      const int64_t n = std::min(available, page_size);
      // Copy the prefix but leave it in the stable queue: the bytes are
      // removed only after the device acknowledges the write, so a crash
      // (or a failed transfer) mid-drain loses nothing.
      std::string chunk(queue->begin(), queue->begin() + static_cast<long>(n));
      lock.unlock();
      bool written = false;
      for (int attempt = 0; attempt < kDefaultMaxIoAttempts; ++attempt) {
        if (device_->WritePage(chunk).ok()) {
          written = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(1 << attempt));
        counters_.Add(kIoRetries);
      }
      lock.lock();
      if (!written) {
        counters_.Add(kWriteFailures);
        // The prefix is still queued; try again later. On Stop, leave it
        // in stable memory — it is durable there and recovery reads it.
        if (stop_) return;
        cv_.wait_for(lock, std::chrono::microseconds(500));
        continue;
      }
      counters_.Add(kDeviceWrites);
      counters_.Add(kDeviceBytes, page_size);
      // Now pop the drained prefix. Racing commits only appended after it,
      // so shift the tail down and truncate (Resize keeps StableMemory's
      // used-byte accounting in sync with the shrink).
      queue = stable_->Region(kQueueRegion);
      const int64_t remaining = static_cast<int64_t>(queue->size()) - n;
      std::memmove(queue->data(), queue->data() + n,
                   static_cast<size_t>(remaining));
      Status s = stable_->Resize(kQueueRegion, remaining);
      MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
      cv_.notify_all();  // wake committers blocked on backpressure
      continue;
    }
    if (stop_) return;
    cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

std::vector<LogRecord> StableLogBuffer::ReadAllForRecovery(
    LogReadStats* stats) {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<LogRecord> all;
  LogParseStats pstats;
  // Disk portion followed by the stable output queue: they are ONE
  // contiguous byte stream (the drainer peels page-sized prefixes off the
  // queue), so a record straddling the boundary parses correctly only when
  // the two are concatenated.
  {
    LogDevice::ReadStats rstats;
    std::string bytes = device_->ReadAll(&rstats);
    if (stats != nullptr) {
      stats->unreadable_pages += rstats.unreadable_pages;
      stats->retries += rstats.retries;
    }
    const std::vector<char>* queue = stable_->Region(kQueueRegion);
    bytes.append(queue->data(), queue->size());
    std::vector<LogRecord> recs = LogRecord::ParseAll(
        bytes.data(), static_cast<int64_t>(bytes.size()), &pstats);
    all.insert(all.end(), std::make_move_iterator(recs.begin()),
               std::make_move_iterator(recs.end()));
  }
  // Per-transaction areas of in-flight (loser) transactions: undo images.
  for (TxnId txn : active_txns_) {
    std::vector<char>* area = stable_->Region(TxnRegionName(txn));
    if (area == nullptr) continue;
    std::vector<LogRecord> recs = LogRecord::ParseAll(
        area->data(), static_cast<int64_t>(area->size()), &pstats);
    all.insert(all.end(), std::make_move_iterator(recs.begin()),
               std::make_move_iterator(recs.end()));
  }
  if (stats != nullptr) {
    stats->corrupt_records_skipped += pstats.corrupt_skipped;
    stats->torn_tail_bytes += pstats.torn_tail_bytes;
  }
  std::sort(all.begin(), all.end(),
            [](const LogRecord& a, const LogRecord& b) { return a.lsn < b.lsn; });
  return all;
}

int64_t StableLogBuffer::queued_bytes() const {
  std::unique_lock<std::mutex> lock(mu_);
  const std::vector<char>* queue = stable_->Region(kQueueRegion);
  return queue == nullptr ? 0 : static_cast<int64_t>(queue->size());
}

}  // namespace mmdb
