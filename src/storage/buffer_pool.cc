#include "storage/buffer_pool.h"

#include <chrono>
#include <thread>

#include "common/check.h"
#include "sim/fault_injector.h"

namespace mmdb {

Status BufferPool::ReadPageRetry(SimulatedDisk::FileId file, int64_t page_no,
                                 void* out, IoKind kind) {
  Status last;
  for (int attempt = 0; attempt < kDefaultMaxIoAttempts; ++attempt) {
    last = disk_->ReadPage(file, page_no, out, kind);
    if (last.ok() || last.code() != StatusCode::kIOError) return last;
    counters_.Add(kIoRetries);
    std::this_thread::sleep_for(std::chrono::microseconds(1 << attempt));
  }
  return Status::RetryExhausted("buffer pool read: " + last.ToString());
}

Status BufferPool::WritePageRetry(SimulatedDisk::FileId file, int64_t page_no,
                                  const void* data, IoKind kind) {
  Status last;
  for (int attempt = 0; attempt < kDefaultMaxIoAttempts; ++attempt) {
    last = disk_->WritePage(file, page_no, data, kind);
    if (last.ok() || last.code() != StatusCode::kIOError) return last;
    counters_.Add(kIoRetries);
    std::this_thread::sleep_for(std::chrono::microseconds(1 << attempt));
  }
  return Status::RetryExhausted("buffer pool write: " + last.ToString());
}

BufferPool::BufferPool(SimulatedDisk* disk, int64_t num_frames,
                       ReplacementPolicy policy, uint64_t seed,
                       MetricsRegistry* metrics)
    : disk_(disk),
      num_frames_(num_frames),
      policy_(policy),
      rng_(seed),
      counters_(metrics, "buffer_pool",
                {{kFetches, "fetches"}, {kHits, "hits"}, {kFaults, "faults"},
                 {kEvictions, "evictions"}, {kWritebacks, "writebacks"},
                 {kIoRetries, "io_retries"}}) {
  MMDB_CHECK_MSG(num_frames >= 1, "buffer pool needs at least one frame");
  frames_.resize(static_cast<size_t>(num_frames));
  lru_pos_.resize(static_cast<size_t>(num_frames));
  in_lru_.assign(static_cast<size_t>(num_frames), false);
  free_frames_.reserve(static_cast<size_t>(num_frames));
  for (int64_t i = num_frames - 1; i >= 0; --i) {
    frames_[static_cast<size_t>(i)].data.resize(
        static_cast<size_t>(disk->page_size()));
    free_frames_.push_back(i);
  }
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.fetches = counters_.Get(kFetches);
  s.hits = counters_.Get(kHits);
  s.faults = counters_.Get(kFaults);
  s.evictions = counters_.Get(kEvictions);
  s.writebacks = counters_.Get(kWritebacks);
  s.io_retries = counters_.Get(kIoRetries);
  return s;
}

void BufferPool::ResetStats() { counters_.Reset(); }

char* BufferPool::PageRef::data() {
  MMDB_DCHECK(valid());
  return pool_->frames_[static_cast<size_t>(frame_)].data.data();
}

const char* BufferPool::PageRef::data() const {
  MMDB_DCHECK(valid());
  return pool_->frames_[static_cast<size_t>(frame_)].data.data();
}

int64_t BufferPool::PageRef::page_no() const {
  MMDB_DCHECK(valid());
  return pool_->frames_[static_cast<size_t>(frame_)].page_no;
}

SimulatedDisk::FileId BufferPool::PageRef::file() const {
  MMDB_DCHECK(valid());
  return pool_->frames_[static_cast<size_t>(frame_)].file;
}

void BufferPool::PageRef::MarkDirty() {
  MMDB_DCHECK(valid());
  pool_->MarkDirtyFrame(frame_);
}

void BufferPool::PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = -1;
  }
}

void BufferPool::Unpin(int64_t frame) {
  Frame& f = frames_[static_cast<size_t>(frame)];
  MMDB_DCHECK(f.pin_count > 0);
  --f.pin_count;
}

void BufferPool::MarkDirtyFrame(int64_t frame) {
  frames_[static_cast<size_t>(frame)].dirty = true;
}

void BufferPool::Touch(int64_t frame) {
  Frame& f = frames_[static_cast<size_t>(frame)];
  f.ref_bit = true;
  if (policy_ == ReplacementPolicy::kLru) {
    if (in_lru_[static_cast<size_t>(frame)]) {
      lru_.erase(lru_pos_[static_cast<size_t>(frame)]);
    }
    lru_.push_back(frame);
    lru_pos_[static_cast<size_t>(frame)] = std::prev(lru_.end());
    in_lru_[static_cast<size_t>(frame)] = true;
  }
}

StatusOr<int64_t> BufferPool::PickVictim() {
  switch (policy_) {
    case ReplacementPolicy::kRandom: {
      // Probe random frames; with few pinned pages this terminates fast.
      for (int attempts = 0; attempts < 4 * num_frames_; ++attempts) {
        int64_t i = static_cast<int64_t>(
            rng_.Uniform(static_cast<uint64_t>(num_frames_)));
        const Frame& f = frames_[static_cast<size_t>(i)];
        if (f.valid && f.pin_count == 0) return i;
      }
      // Fall back to a deterministic sweep.
      for (int64_t i = 0; i < num_frames_; ++i) {
        const Frame& f = frames_[static_cast<size_t>(i)];
        if (f.valid && f.pin_count == 0) return i;
      }
      return Status::ResourceExhausted("all frames pinned");
    }
    case ReplacementPolicy::kLru: {
      for (int64_t frame : lru_) {
        if (frames_[static_cast<size_t>(frame)].pin_count == 0) return frame;
      }
      return Status::ResourceExhausted("all frames pinned");
    }
    case ReplacementPolicy::kClock: {
      for (int64_t spins = 0; spins < 3 * num_frames_; ++spins) {
        clock_hand_ = (clock_hand_ + 1) % num_frames_;
        Frame& f = frames_[static_cast<size_t>(clock_hand_)];
        if (!f.valid || f.pin_count > 0) continue;
        if (f.ref_bit) {
          f.ref_bit = false;
          continue;
        }
        return clock_hand_;
      }
      return Status::ResourceExhausted("all frames pinned");
    }
  }
  return Status::Internal("unknown policy");
}

Status BufferPool::EvictFrame(int64_t frame) {
  Frame& f = frames_[static_cast<size_t>(frame)];
  MMDB_DCHECK(f.valid && f.pin_count == 0);
  if (f.dirty) {
    // Write-back of a victim goes wherever the arm happens to be: random.
    MMDB_RETURN_IF_ERROR(
        WritePageRetry(f.file, f.page_no, f.data.data(), IoKind::kRandom));
    counters_.Add(kWritebacks);
  }
  page_table_.erase(PageKey{f.file, f.page_no});
  if (in_lru_[static_cast<size_t>(frame)]) {
    lru_.erase(lru_pos_[static_cast<size_t>(frame)]);
    in_lru_[static_cast<size_t>(frame)] = false;
  }
  f.valid = false;
  f.dirty = false;
  f.file = SimulatedDisk::kInvalidFile;
  f.page_no = -1;
  counters_.Add(kEvictions);
  return Status::OK();
}

StatusOr<int64_t> BufferPool::AcquireFrame() {
  if (!free_frames_.empty()) {
    int64_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  MMDB_ASSIGN_OR_RETURN(int64_t victim, PickVictim());
  MMDB_RETURN_IF_ERROR(EvictFrame(victim));
  return victim;
}

StatusOr<BufferPool::PageRef> BufferPool::Fetch(SimulatedDisk::FileId file,
                                                int64_t page_no, IoKind kind) {
  counters_.Add(kFetches);
  auto it = page_table_.find(PageKey{file, page_no});
  if (it != page_table_.end()) {
    counters_.Add(kHits);
    Frame& f = frames_[static_cast<size_t>(it->second)];
    ++f.pin_count;
    Touch(it->second);
    return PageRef(this, it->second);
  }
  counters_.Add(kFaults);
  MMDB_ASSIGN_OR_RETURN(int64_t frame, AcquireFrame());
  Frame& f = frames_[static_cast<size_t>(frame)];
  Status read = ReadPageRetry(file, page_no, f.data.data(), kind);
  if (!read.ok()) {
    // Return the acquired frame instead of leaking it: a failed read must
    // not shrink the pool.
    free_frames_.push_back(frame);
    return read;
  }
  f.file = file;
  f.page_no = page_no;
  f.valid = true;
  f.dirty = false;
  f.pin_count = 1;
  page_table_[PageKey{file, page_no}] = frame;
  Touch(frame);
  return PageRef(this, frame);
}

StatusOr<BufferPool::PageRef> BufferPool::New(SimulatedDisk::FileId file) {
  MMDB_ASSIGN_OR_RETURN(int64_t page_no, disk_->AllocatePage(file));
  MMDB_ASSIGN_OR_RETURN(int64_t frame, AcquireFrame());
  Frame& f = frames_[static_cast<size_t>(frame)];
  std::fill(f.data.begin(), f.data.end(), 0);
  f.file = file;
  f.page_no = page_no;
  f.valid = true;
  f.dirty = true;
  f.pin_count = 1;
  page_table_[PageKey{file, page_no}] = frame;
  Touch(frame);
  return PageRef(this, frame);
}

Status BufferPool::FlushAll() {
  for (Frame& f : frames_) {
    if (f.valid && f.dirty) {
      MMDB_RETURN_IF_ERROR(
          WritePageRetry(f.file, f.page_no, f.data.data(), IoKind::kSequential));
      f.dirty = false;
      counters_.Add(kWritebacks);
    }
  }
  return Status::OK();
}

Status BufferPool::EvictFile(SimulatedDisk::FileId file) {
  for (int64_t i = 0; i < num_frames_; ++i) {
    Frame& f = frames_[static_cast<size_t>(i)];
    if (f.valid && f.file == file) {
      if (f.pin_count > 0) {
        return Status::FailedPrecondition("page still pinned during evict");
      }
      MMDB_RETURN_IF_ERROR(EvictFrame(i));
      free_frames_.push_back(i);
    }
  }
  return Status::OK();
}

Status BufferPool::DropFile(SimulatedDisk::FileId file) {
  for (Frame& f : frames_) {
    if (f.valid && f.file == file) f.dirty = false;
  }
  return EvictFile(file);
}

bool BufferPool::Contains(SimulatedDisk::FileId file, int64_t page_no) const {
  return page_table_.count(PageKey{file, page_no}) != 0;
}

}  // namespace mmdb
