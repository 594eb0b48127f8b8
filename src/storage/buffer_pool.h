#ifndef MMDB_STORAGE_BUFFER_POOL_H_
#define MMDB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "sim/simulated_disk.h"

namespace mmdb {

/// Frame replacement policies. The paper's fault model in §2 assumes
/// RANDOM replacement (faults = C·(1 − |M|/S)); LRU and CLOCK are provided
/// for the ablation benches, which show how much a real policy beats the
/// paper's conservative model.
enum class ReplacementPolicy { kRandom, kLru, kClock };

/// A pinned-page buffer cache over a SimulatedDisk: |M| frames of page_size
/// bytes, a page table, and write-back of dirty victims. All page traffic of
/// heap files and B+-trees flows through here, which is what lets the §2
/// experiments count page faults as a function of the memory fraction H.
class BufferPool {
 public:
  /// Counts "buffer_pool.*" into `metrics` (a private registry when null).
  BufferPool(SimulatedDisk* disk, int64_t num_frames,
             ReplacementPolicy policy = ReplacementPolicy::kRandom,
             uint64_t seed = 42, MetricsRegistry* metrics = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pin on one frame. Movable; unpins on destruction.
  class PageRef {
   public:
    PageRef() : pool_(nullptr), frame_(-1) {}
    PageRef(BufferPool* pool, int64_t frame) : pool_(pool), frame_(frame) {}
    PageRef(PageRef&& o) noexcept : pool_(o.pool_), frame_(o.frame_) {
      o.pool_ = nullptr;
      o.frame_ = -1;
    }
    PageRef& operator=(PageRef&& o) noexcept {
      if (this != &o) {
        Release();
        pool_ = o.pool_;
        frame_ = o.frame_;
        o.pool_ = nullptr;
        o.frame_ = -1;
      }
      return *this;
    }
    ~PageRef() { Release(); }

    bool valid() const { return pool_ != nullptr; }
    char* data();
    const char* data() const;
    int64_t page_no() const;
    SimulatedDisk::FileId file() const;

    /// Marks the frame dirty so eviction writes it back.
    void MarkDirty();

    /// Explicit early unpin (also done by the destructor).
    void Release();

   private:
    BufferPool* pool_;
    int64_t frame_;
  };

  /// Pins the page, reading it from disk on a fault (charged as `kind`).
  StatusOr<PageRef> Fetch(SimulatedDisk::FileId file, int64_t page_no,
                          IoKind kind = IoKind::kRandom);

  /// Allocates a fresh page at the end of `file`, pinned and dirty; no read
  /// I/O is charged (the write happens at eviction / flush).
  StatusOr<PageRef> New(SimulatedDisk::FileId file);

  /// Writes back every dirty frame (sequential I/O) without evicting.
  Status FlushAll();

  /// Writes back and drops every frame of `file`.
  Status EvictFile(SimulatedDisk::FileId file);

  /// Drops every frame of `file` without writing it back: for a file about
  /// to be deleted, whose dirty frames would otherwise be written to a file
  /// that no longer exists when evicted. Fails only on a pinned frame.
  Status DropFile(SimulatedDisk::FileId file);

  /// True if (file, page_no) is currently resident — for tests.
  bool Contains(SimulatedDisk::FileId file, int64_t page_no) const;

  int64_t num_frames() const { return num_frames_; }
  ReplacementPolicy policy() const { return policy_; }

  /// View over the "buffer_pool.*" registry counters (DESIGN.md §9).
  struct Stats {
    int64_t fetches = 0;
    int64_t hits = 0;
    int64_t faults = 0;
    int64_t evictions = 0;
    int64_t writebacks = 0;
    int64_t io_retries = 0;  ///< transient disk errors retried with backoff
  };
  Stats stats() const;
  void ResetStats();

  MetricsRegistry* metrics() const { return counters_.registry(); }

 private:
  friend class PageRef;

  struct Frame {
    SimulatedDisk::FileId file = SimulatedDisk::kInvalidFile;
    int64_t page_no = -1;
    int32_t pin_count = 0;
    bool dirty = false;
    bool valid = false;
    bool ref_bit = false;  // CLOCK
    std::vector<char> data;
  };

  using PageKey = std::pair<SimulatedDisk::FileId, int64_t>;

  void Unpin(int64_t frame);
  void MarkDirtyFrame(int64_t frame);

  /// Returns a usable frame index: a free frame, or an evicted victim.
  StatusOr<int64_t> AcquireFrame();
  StatusOr<int64_t> PickVictim();
  Status EvictFrame(int64_t frame);
  void Touch(int64_t frame);

  /// Bounded retry-with-backoff around disk transfers. Transient I/O errors
  /// (kIOError) are retried up to kDefaultMaxIoAttempts times; exhaustion
  /// yields kRetryExhausted. Any other failure returns immediately.
  Status ReadPageRetry(SimulatedDisk::FileId file, int64_t page_no, void* out,
                       IoKind kind);
  Status WritePageRetry(SimulatedDisk::FileId file, int64_t page_no,
                        const void* data, IoKind kind);

  SimulatedDisk* disk_;
  int64_t num_frames_;
  ReplacementPolicy policy_;
  Random rng_;

  std::vector<Frame> frames_;
  std::vector<int64_t> free_frames_;
  std::map<PageKey, int64_t> page_table_;

  // LRU order over valid frames: front = least recently used.
  std::list<int64_t> lru_;
  std::vector<std::list<int64_t>::iterator> lru_pos_;
  std::vector<bool> in_lru_;

  int64_t clock_hand_ = 0;

  enum Counter { kFetches, kHits, kFaults, kEvictions, kWritebacks, kIoRetries,
                 kNumCounters };
  MetricCounters<kNumCounters> counters_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_BUFFER_POOL_H_
