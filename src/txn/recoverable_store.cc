#include "txn/recoverable_store.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "sim/fault_injector.h"
#include "txn/log_manager.h"

namespace mmdb {

FirstUpdateTable::FirstUpdateTable(StableMemory* stable, int64_t num_pages,
                                   const std::string& region_name)
    : stable_(stable), region_(region_name), num_pages_(num_pages) {
  if (!stable_->Has(region_)) {
    // Slots plus the trailing 8-byte incremental checksum.
    Status s = stable_->Allocate(
        region_, (num_pages + 1) * static_cast<int64_t>(sizeof(Lsn)));
    MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
    Lsn* slots = Slots();
    for (int64_t i = 0; i < num_pages; ++i) slots[i] = kInvalidLsn;
    *ChecksumCell() = 0;  // clean slots contribute nothing
  }
}

Lsn* FirstUpdateTable::Slots() {
  return reinterpret_cast<Lsn*>(stable_->Region(region_)->data());
}
const Lsn* FirstUpdateTable::Slots() const {
  return reinterpret_cast<const Lsn*>(stable_->Region(region_)->data());
}
uint64_t* FirstUpdateTable::ChecksumCell() {
  return reinterpret_cast<uint64_t*>(Slots() + num_pages_);
}
const uint64_t* FirstUpdateTable::ChecksumCell() const {
  return reinterpret_cast<const uint64_t*>(Slots() + num_pages_);
}

uint64_t FirstUpdateTable::Token(int64_t page, Lsn lsn) {
  if (lsn == kInvalidLsn) return 0;
  return Mix64(static_cast<uint64_t>(page) * 0x9E3779B97F4A7C15ull ^
               Mix64(static_cast<uint64_t>(lsn)));
}

void FirstUpdateTable::SetSlot(int64_t page, Lsn lsn) {
  Lsn* slot = Slots() + page;
  *ChecksumCell() ^= Token(page, *slot) ^ Token(page, lsn);
  *slot = lsn;
}

void FirstUpdateTable::RecordUpdate(int64_t page, Lsn lsn) {
  MMDB_DCHECK(page >= 0 && page < num_pages_);
  if (lsn == kInvalidLsn) return;
  std::unique_lock<std::mutex> lock(mu_);
  const Lsn current = Slots()[page];
  if (current == kInvalidLsn || lsn < current) SetSlot(page, lsn);
}

void FirstUpdateTable::ResetPage(int64_t page) {
  MMDB_DCHECK(page >= 0 && page < num_pages_);
  std::unique_lock<std::mutex> lock(mu_);
  SetSlot(page, kInvalidLsn);
}

Lsn FirstUpdateTable::Get(int64_t page) const {
  std::unique_lock<std::mutex> lock(mu_);
  return Slots()[page];
}

Lsn FirstUpdateTable::MinLsn() const {
  std::unique_lock<std::mutex> lock(mu_);
  const Lsn* slots = Slots();
  Lsn min_lsn = kInvalidLsn;
  for (int64_t i = 0; i < num_pages_; ++i) {
    if (slots[i] != kInvalidLsn &&
        (min_lsn == kInvalidLsn || slots[i] < min_lsn)) {
      min_lsn = slots[i];
    }
  }
  return min_lsn;
}

void FirstUpdateTable::Clear() {
  std::unique_lock<std::mutex> lock(mu_);
  Lsn* slots = Slots();
  for (int64_t i = 0; i < num_pages_; ++i) slots[i] = kInvalidLsn;
  // Recomputed from scratch, NOT incrementally: after corruption the
  // incremental XOR carries the bit-flip delta forever, so this is the only
  // way to return the table to a verifiable state.
  *ChecksumCell() = 0;
}

uint64_t FirstUpdateTable::SlotsChecksum() const {
  const Lsn* slots = Slots();
  uint64_t expected = 0;
  for (int64_t i = 0; i < num_pages_; ++i) {
    expected ^= Token(i, slots[i]);
  }
  return expected;
}

bool FirstUpdateTable::Verify() const {
  std::unique_lock<std::mutex> lock(mu_);
  return SlotsChecksum() == *ChecksumCell();
}

void FirstUpdateTable::RebuildChecksum() {
  std::unique_lock<std::mutex> lock(mu_);
  *ChecksumCell() = SlotsChecksum();
}

RecoverableStore::RecoverableStore(SimulatedDisk* disk, int64_t num_records,
                                   int32_t record_size, int64_t page_size)
    : disk_(disk),
      num_records_(num_records),
      record_size_(record_size),
      page_size_(page_size),
      records_per_page_(static_cast<int32_t>(page_size / record_size)),
      snapshot_(disk, "store_snapshot"),
      snapshot_crc_(disk, "store_snapshot_crc") {
  MMDB_CHECK(records_per_page_ > 0);
  num_pages_ = (num_records + records_per_page_ - 1) / records_per_page_;
  crc_entries_per_page_ =
      static_cast<int32_t>(page_size_ / static_cast<int64_t>(sizeof(uint32_t)));
  MMDB_CHECK(crc_entries_per_page_ > 0);
  memory_.assign(static_cast<size_t>(num_pages_ * page_size_), 0);
  last_update_lsn_.assign(static_cast<size_t>(num_pages_), kInvalidLsn);
  // Seed the snapshot with the initial (all-zero) image so recovery always
  // has a base state, and the checksum file to match.
  std::vector<char> zero(static_cast<size_t>(page_size_), 0);
  const uint32_t zero_crc = Crc32c(zero.data(), zero.size());
  crc_cache_.assign(static_cast<size_t>(num_pages_), zero_crc);
  for (int64_t p = 0; p < num_pages_; ++p) {
    Status s = WritePageWithRetry(&snapshot_, p, zero.data());
    MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
  const int64_t num_crc_pages =
      (num_pages_ + crc_entries_per_page_ - 1) / crc_entries_per_page_;
  std::vector<uint32_t> crc_page(
      static_cast<size_t>(crc_entries_per_page_), zero_crc);
  for (int64_t p = 0; p < num_crc_pages; ++p) {
    Status s = WritePageWithRetry(&snapshot_crc_, p, crc_page.data());
    MMDB_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
}

char* RecoverableStore::RecordPtr(int64_t record_id) {
  const int64_t page = PageOf(record_id);
  const int64_t slot = record_id % records_per_page_;
  return memory_.data() + page * page_size_ + slot * record_size_;
}
const char* RecoverableStore::RecordPtr(int64_t record_id) const {
  return const_cast<RecoverableStore*>(this)->RecordPtr(record_id);
}

Status RecoverableStore::ReadPageWithRetry(PageFile* file, int64_t page,
                                           void* out) {
  Status last;
  for (int attempt = 0; attempt < kDefaultMaxIoAttempts; ++attempt) {
    last = file->Read(page, out, IoKind::kSequential);
    if (last.ok()) return last;
    if (last.code() != StatusCode::kIOError) return last;  // not retryable
    io_retries_.fetch_add(1);
  }
  return Status::RetryExhausted("snapshot read: " + last.ToString());
}

Status RecoverableStore::WritePageWithRetry(PageFile* file, int64_t page,
                                            const void* data) {
  Status last;
  for (int attempt = 0; attempt < kDefaultMaxIoAttempts; ++attempt) {
    last = file->Write(page, data, IoKind::kSequential);
    if (last.ok()) return last;
    if (last.code() != StatusCode::kIOError) return last;  // not retryable
    io_retries_.fetch_add(1);
  }
  return Status::RetryExhausted("snapshot write: " + last.ToString());
}

Status RecoverableStore::FlushCrcEntry(int64_t page) {
  const int64_t crc_page = page / crc_entries_per_page_;
  const int64_t first = crc_page * crc_entries_per_page_;
  std::vector<uint32_t> buf(static_cast<size_t>(crc_entries_per_page_), 0);
  const int64_t count =
      std::min<int64_t>(crc_entries_per_page_, num_pages_ - first);
  std::memcpy(buf.data(), crc_cache_.data() + first,
              static_cast<size_t>(count) * sizeof(uint32_t));
  return WritePageWithRetry(&snapshot_crc_, crc_page, buf.data());
}

Status RecoverableStore::ReadRecord(int64_t record_id,
                                    std::string* out) const {
  if (record_id < 0 || record_id >= num_records_) {
    return Status::OutOfRange("record id");
  }
  // The guard runs before mu_ so its on-demand replay can re-enter the
  // store through ApplyRecovery without self-deadlocking.
  if (RecordAccessGuard* guard =
          access_guard_.load(std::memory_order_acquire)) {
    MMDB_RETURN_IF_ERROR(guard->OnAccess(record_id));
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!loaded_) return Status::FailedPrecondition("store is crashed");
  out->assign(RecordPtr(record_id), static_cast<size_t>(record_size_));
  return Status::OK();
}

Status RecoverableStore::WriteRecord(int64_t record_id, std::string_view value,
                                     Lsn lsn, FirstUpdateTable* fut) {
  if (record_id < 0 || record_id >= num_records_) {
    return Status::OutOfRange("record id");
  }
  if (static_cast<int32_t>(value.size()) > record_size_) {
    return Status::InvalidArgument("value wider than record");
  }
  if (RecordAccessGuard* guard =
          access_guard_.load(std::memory_order_acquire)) {
    MMDB_RETURN_IF_ERROR(guard->OnAccess(record_id));
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!loaded_) return Status::FailedPrecondition("store is crashed");
  char* dst = RecordPtr(record_id);
  std::memset(dst, 0, static_cast<size_t>(record_size_));
  std::memcpy(dst, value.data(), value.size());
  const int64_t page = PageOf(record_id);
  dirty_pages_.insert(page);
  if (lsn != kInvalidLsn) {
    last_update_lsn_[static_cast<size_t>(page)] =
        std::max(last_update_lsn_[static_cast<size_t>(page)], lsn);
  }
  ++stats_.updates;
  lock.unlock();
  if (fut != nullptr) fut->RecordUpdate(page, lsn);
  return Status::OK();
}

Status RecoverableStore::ApplyRecovery(int64_t record_id,
                                       std::string_view value, Lsn lsn) {
  if (record_id < 0 || record_id >= num_records_) {
    return Status::OutOfRange("record id");
  }
  if (static_cast<int32_t>(value.size()) > record_size_) {
    return Status::InvalidArgument("value wider than record");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!loaded_) return Status::FailedPrecondition("store is crashed");
  char* dst = RecordPtr(record_id);
  std::memset(dst, 0, static_cast<size_t>(record_size_));
  std::memcpy(dst, value.data(), value.size());
  const int64_t page = PageOf(record_id);
  dirty_pages_.insert(page);
  if (lsn != kInvalidLsn) {
    last_update_lsn_[static_cast<size_t>(page)] =
        std::max(last_update_lsn_[static_cast<size_t>(page)], lsn);
  }
  return Status::OK();
}

Lsn RecoverableStore::PageLsn(int64_t page) const {
  MMDB_DCHECK(page >= 0 && page < num_pages_);
  std::unique_lock<std::mutex> lock(mu_);
  return last_update_lsn_[static_cast<size_t>(page)];
}

void RecoverableStore::StampPageLsn(int64_t page, Lsn lsn) {
  MMDB_DCHECK(page >= 0 && page < num_pages_);
  if (lsn == kInvalidLsn) return;
  std::unique_lock<std::mutex> lock(mu_);
  last_update_lsn_[static_cast<size_t>(page)] =
      std::max(last_update_lsn_[static_cast<size_t>(page)], lsn);
}

void RecoverableStore::ClearPageLsns() {
  std::unique_lock<std::mutex> lock(mu_);
  std::fill(last_update_lsn_.begin(), last_update_lsn_.end(), kInvalidLsn);
}

Status RecoverableStore::CopyPage(int64_t page, std::string* out,
                                  Lsn* page_lsn) const {
  if (page < 0 || page >= num_pages_) return Status::OutOfRange("page");
  std::unique_lock<std::mutex> lock(mu_);
  if (!loaded_) return Status::FailedPrecondition("store is crashed");
  out->assign(memory_.data() + page * page_size_,
              static_cast<size_t>(page_size_));
  if (page_lsn != nullptr) {
    *page_lsn = last_update_lsn_[static_cast<size_t>(page)];
  }
  return Status::OK();
}

Status RecoverableStore::InstallPage(int64_t page, std::string_view bytes) {
  if (page < 0 || page >= num_pages_) return Status::OutOfRange("page");
  if (static_cast<int64_t>(bytes.size()) != page_size_) {
    return Status::InvalidArgument("backup page size mismatch");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!loaded_) return Status::FailedPrecondition("store is crashed");
  std::memcpy(memory_.data() + page * page_size_, bytes.data(), bytes.size());
  dirty_pages_.insert(page);
  return Status::OK();
}

std::vector<int64_t> RecoverableStore::DirtyPages() const {
  std::unique_lock<std::mutex> lock(mu_);
  return std::vector<int64_t>(dirty_pages_.begin(), dirty_pages_.end());
}

int64_t RecoverableStore::NumDirtyPages() const {
  std::unique_lock<std::mutex> lock(mu_);
  return static_cast<int64_t>(dirty_pages_.size());
}

Status RecoverableStore::CheckpointPage(int64_t page, FirstUpdateTable* fut,
                                        Wal* wal) {
  if (page < 0 || page >= num_pages_) return Status::OutOfRange("page");
  std::unique_lock<std::mutex> lock(mu_);
  if (!loaded_) return Status::FailedPrecondition("store is crashed");
  // WAL rule: every log record describing this page's contents must be
  // durable before the page itself may overwrite the snapshot. Loop until
  // the fence is stable: an update racing in while we wait raises it.
  if (wal != nullptr) {
    while (true) {
      const Lsn fence = last_update_lsn_[static_cast<size_t>(page)];
      if (fence == kInvalidLsn) break;
      lock.unlock();
      wal->WaitLsnDurable(fence);
      lock.lock();
      if (!loaded_) return Status::FailedPrecondition("store is crashed");
      if (last_update_lsn_[static_cast<size_t>(page)] == fence) break;
    }
  }
  // Remember the first-update entry so a failed write can restore it.
  const Lsn old_first = fut != nullptr ? fut->Get(page) : kInvalidLsn;
  // Reset the first-update entry BEFORE taking the copy: an update racing
  // in after the copy then re-dirties the page and re-enters the table, so
  // its redo is never lost. (An update between reset and copy is captured
  // by both the snapshot and the table — redundant redo, which is benign.)
  if (fut != nullptr) fut->ResetPage(page);
  // Copy-then-write keeps the lock only for the memcpy (fuzzy checkpoint:
  // concurrent updates to *other* pages proceed; an update to this page
  // after the copy re-dirties it).
  std::vector<char> copy(memory_.data() + page * page_size_,
                         memory_.data() + (page + 1) * page_size_);
  dirty_pages_.erase(page);
  lock.unlock();

  Status write_status = WritePageWithRetry(&snapshot_, page, copy.data());
  if (write_status.ok()) {
    std::unique_lock<std::mutex> crc_lock(crc_mu_);
    crc_cache_[static_cast<size_t>(page)] = Crc32c(copy.data(), copy.size());
    write_status = FlushCrcEntry(page);
  }
  if (!write_status.ok()) {
    // Nothing is lost: re-dirty the page and restore its first-update
    // entry so the next checkpoint (or recovery) still covers it. A stale
    // on-disk checksum from a half-failed pair is caught at load and the
    // page rebuilt from the log.
    lock.lock();
    dirty_pages_.insert(page);
    lock.unlock();
    if (fut != nullptr) fut->RecordUpdate(page, old_first);
    return write_status;
  }
  lock.lock();
  ++stats_.pages_checkpointed;
  return Status::OK();
}

void RecoverableStore::SimulateCrash() {
  std::unique_lock<std::mutex> lock(mu_);
  // Power failure: the memory image is garbage now, and so is the volatile
  // checksum cache (LoadSnapshot rebuilds it from disk).
  std::fill(memory_.begin(), memory_.end(), char(0xDB));
  {
    std::unique_lock<std::mutex> crc_lock(crc_mu_);
    std::fill(crc_cache_.begin(), crc_cache_.end(), 0xDBDBDBDBu);
  }
  dirty_pages_.clear();
  loaded_ = false;
}

Status RecoverableStore::LoadSnapshot(std::vector<int64_t>* quarantined) {
  std::unique_lock<std::mutex> lock(mu_);
  std::unique_lock<std::mutex> crc_lock(crc_mu_);
  // Rebuild the checksum cache from disk first. A checksum page that stays
  // unreadable makes every page it covers unverifiable; those pages are
  // quarantined wholesale — trusting an unverifiable page risks silent
  // corruption, while quarantining merely costs log replay.
  const int64_t num_crc_pages =
      (num_pages_ + crc_entries_per_page_ - 1) / crc_entries_per_page_;
  std::vector<bool> verifiable(static_cast<size_t>(num_pages_), true);
  std::vector<uint32_t> crc_page(static_cast<size_t>(crc_entries_per_page_));
  for (int64_t cp = 0; cp < num_crc_pages; ++cp) {
    const int64_t first = cp * crc_entries_per_page_;
    const int64_t count =
        std::min<int64_t>(crc_entries_per_page_, num_pages_ - first);
    Status s = ReadPageWithRetry(&snapshot_crc_, cp, crc_page.data());
    if (s.ok()) {
      std::memcpy(crc_cache_.data() + first, crc_page.data(),
                  static_cast<size_t>(count) * sizeof(uint32_t));
    } else {
      for (int64_t p = first; p < first + count; ++p) {
        verifiable[static_cast<size_t>(p)] = false;
      }
    }
  }
  for (int64_t p = 0; p < num_pages_; ++p) {
    char* dst = memory_.data() + p * page_size_;
    Status s = ReadPageWithRetry(&snapshot_, p, dst);
    bool good = s.ok() && verifiable[static_cast<size_t>(p)] &&
                Crc32c(dst, static_cast<size_t>(page_size_)) ==
                    crc_cache_[static_cast<size_t>(p)];
    if (s.ok()) ++stats_.snapshot_pages_read;
    if (!good) {
      std::memset(dst, 0, static_cast<size_t>(page_size_));
      pages_quarantined_.fetch_add(1);
      if (quarantined != nullptr) quarantined->push_back(p);
    }
  }
  dirty_pages_.clear();
  loaded_ = true;
  return Status::OK();
}

RecoverableStore::Stats RecoverableStore::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  Stats s = stats_;
  s.io_retries = io_retries_.load();
  s.pages_quarantined = pages_quarantined_.load();
  return s;
}

}  // namespace mmdb
