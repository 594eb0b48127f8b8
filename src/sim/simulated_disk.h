#ifndef MMDB_SIM_SIMULATED_DISK_H_
#define MMDB_SIM_SIMULATED_DISK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "sim/cost_clock.h"
#include "sim/fault_injector.h"

namespace mmdb {

/// Whether a page transfer is priced as a sequential or a random I/O
/// (IOseq vs IOrand in Table 2). The algorithms in §3 know which kind each
/// transfer is — e.g. GRACE partitioning writes output-buffer pages randomly
/// but re-reads partitions sequentially — so the caller states the kind.
enum class IoKind { kSequential, kRandom };

/// A page-addressed, in-memory stand-in for the paper's disks.
///
/// The paper's testbed is a 1984 disk subsystem (10 ms sequential, 25 ms
/// random transfers). We keep the *byte-accurate* behaviour — data really is
/// stored and really must be re-read — while pricing each transfer on an
/// attached CostClock instead of spinning rust. `auto_detect` mode instead
/// infers seq/random from the previous arm position per file, used by tests
/// to validate the callers' declared access kinds.
///
/// Thread-safety: every file operation (and the clock charge it performs)
/// runs under one internal mutex, so concurrent statements and the
/// checkpointer may read/write/delete distinct files at once. Like a real
/// single-spindle disk, transfers serialize. `stats()` must only be read
/// with no transfer in flight.
class SimulatedDisk {
 public:
  using FileId = int64_t;
  static constexpr FileId kInvalidFile = -1;

  /// Counts "disk.*" into `metrics` (a private registry when null).
  explicit SimulatedDisk(int64_t page_size_bytes = 4096,
                         CostClock* clock = nullptr,
                         MetricsRegistry* metrics = nullptr);

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  int64_t page_size() const { return page_size_; }
  void set_clock(CostClock* clock) { clock_ = clock; }
  CostClock* clock() const { return clock_; }

  /// Folds a private clock's tallies into the attached clock under the
  /// disk's mutex — the same lock that serializes the disk's own charges.
  /// Concurrent SQL statements (DESIGN.md §10) charge CPU work to private
  /// clocks and merge them here on completion, so the attached clock is
  /// only ever mutated with this mutex held. No-op when no clock attached.
  void MergeClock(const CostClock& other);

  /// Attaches a fault injector consulted on every page transfer (nullptr
  /// detaches). File ids are passed as the injector's entity key, so
  /// permanent page errors can target one file's pages.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Creates an empty file and returns its id. `name` is for debugging.
  FileId CreateFile(std::string name);

  /// Deletes a file and frees its pages. Idempotent.
  void DeleteFile(FileId id);

  /// Number of pages currently in `id`; 0 for unknown files.
  int64_t NumPages(FileId id) const;

  /// Writes `page_size` bytes at `page_no`, extending the file with zero
  /// pages if needed. Charges one I/O of `kind` to the clock.
  Status WritePage(FileId id, int64_t page_no, const void* data, IoKind kind);

  /// Reads `page_size` bytes from `page_no` into `out`.
  Status ReadPage(FileId id, int64_t page_no, void* out, IoKind kind);

  /// Appends a page at the end of the file; returns its page number.
  StatusOr<int64_t> AppendPage(FileId id, const void* data, IoKind kind);

  /// Extends the file by one zero page WITHOUT charging an I/O: pure space
  /// allocation. The buffer pool uses this for NewPage — the actual transfer
  /// is billed when the dirty frame is eventually written back.
  StatusOr<int64_t> AllocatePage(FileId id);

  /// Total pages across all files (disk occupancy).
  int64_t TotalPages() const;

  /// View over the "disk.*" registry counters (DESIGN.md §9). Read only
  /// with no transfer in flight.
  struct Stats {
    int64_t reads = 0;
    int64_t writes = 0;
    int64_t seq_ios = 0;
    int64_t rand_ios = 0;
    int64_t io_errors = 0;  ///< transfers failed by the fault injector
  };
  Stats stats() const;
  void ResetStats();

  MetricsRegistry* metrics() const { return counters_.registry(); }

 private:
  struct File {
    std::string name;
    std::vector<std::vector<char>> pages;
    int64_t last_page_accessed = -2;  // for arm-position sanity checks
  };

  void Charge(File* f, int64_t page_no, IoKind kind);
  Status WritePageLocked(FileId id, int64_t page_no, const void* data,
                         IoKind kind);

  int64_t page_size_;
  CostClock* clock_;
  FaultInjector* injector_ = nullptr;
  FileId next_id_ = 0;
  std::map<FileId, File> files_;
  enum Counter { kReads, kWrites, kSeqIos, kRandIos, kIoErrors, kNumCounters };
  MetricCounters<kNumCounters> counters_;
  /// Guards files_, next_id_ and the clock charge of each transfer.
  mutable std::mutex mu_;
};

}  // namespace mmdb

#endif  // MMDB_SIM_SIMULATED_DISK_H_
