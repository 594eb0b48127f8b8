#ifndef MMDB_TXN_LOG_DEVICE_H_
#define MMDB_TXN_LOG_DEVICE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/fault_injector.h"

namespace mmdb {

/// One log disk: a sequence of fixed-size pages with a single arm, writing
/// one page per `write_latency` (the paper's 10 ms — "time to write one
/// 4096 byte page without a disk seek"). The latency is a real sleep so
/// multi-threaded group-commit benchmarks measure true wall-clock
/// throughput; tests set it to zero.
///
/// Pages survive SimulateCrash (they are "on disk"); only in-flight buffer
/// contents held elsewhere are lost.
class LogDevice {
 public:
  explicit LogDevice(
      int64_t page_size = 4096,
      std::chrono::microseconds write_latency = std::chrono::milliseconds(10))
      : page_size_(page_size), write_latency_(write_latency) {}

  LogDevice(const LogDevice&) = delete;
  LogDevice& operator=(const LogDevice&) = delete;

  int64_t page_size() const { return page_size_; }
  std::chrono::microseconds write_latency() const { return write_latency_; }

  /// Attaches a fault injector consulted on every page transfer (nullptr
  /// detaches). `device_index` is the injector's entity key, so faults can
  /// target one partition of a partitioned log.
  void set_fault_injector(FaultInjector* injector, int64_t device_index = 0) {
    std::unique_lock<std::mutex> lock(mu_);
    injector_ = injector;
    device_index_ = device_index;
  }

  /// Blocking write of one page (data shorter than page_size is padded
  /// with zeros on read; only the payload is kept in memory).
  /// Serialized: two concurrent writers queue on the single arm.
  /// Returns the page number, or kIOError when the fault injector fails the
  /// transfer (nothing persisted — callers retry). A torn or bit-flipped
  /// write still returns OK: the damage is silent until a checksum catches
  /// it, exactly like a real disk. Faults are applied to the unpadded
  /// payload so injected corruption always lands on live bytes.
  StatusOr<int64_t> WritePage(std::string data);

  /// Read-back for recovery.
  StatusOr<std::string> ReadPage(int64_t page_no) const;
  int64_t num_pages() const;
  int64_t bytes_written() const;

  struct ReadStats {
    int64_t retries = 0;           ///< transient read errors retried
    int64_t unreadable_pages = 0;  ///< pages zero-substituted after retries
  };

  /// Concatenated content of all pages (recovery scan convenience).
  /// Transient read faults are retried up to kDefaultMaxIoAttempts per
  /// page; a page that stays unreadable is replaced by zeros (the parser
  /// treats zeros as padding) and counted, so one bad sector cannot abort
  /// restart.
  std::string ReadAll(ReadStats* stats = nullptr) const;

 private:
  int64_t page_size_;
  std::chrono::microseconds write_latency_;
  mutable std::mutex mu_;
  FaultInjector* injector_ = nullptr;
  int64_t device_index_ = 0;
  std::vector<std::string> pages_;
  int64_t bytes_written_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_TXN_LOG_DEVICE_H_
