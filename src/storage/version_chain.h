#ifndef MMDB_STORAGE_VERSION_CHAIN_H_
#define MMDB_STORAGE_VERSION_CHAIN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mmdb {

/// End timestamp of a version whose overwriting transaction has not yet
/// committed: the version is still the newest COMMITTED value, visible to
/// every read timestamp at/after its begin.
inline constexpr uint64_t kPendingTs = ~uint64_t{0};

/// One committed version of a record, newest-first in the chain. `begin` is
/// the commit timestamp of the transaction that created this value; `end`
/// is the commit timestamp of the transaction that overwrote it (kPendingTs
/// while that overwrite is uncommitted). A version is visible to read
/// timestamp T iff begin <= T < end.
struct VersionNode {
  uint64_t begin = 0;
  uint64_t end = kPendingTs;
  std::string value;
  std::unique_ptr<VersionNode> next;  ///< next-older version
};

/// Per-record version-chain head (DESIGN.md §11). The record's CURRENT
/// value lives in-place in the RecoverableStore; the chain holds only the
/// superseded history. `newest_begin` is the commit timestamp of the
/// in-place value (0 = "since the beginning of time", i.e. loaded or
/// recovered before this chain table existed). `owner_txn` is the id of
/// the single in-flight writer that owns the record, or kNoOwner.
struct RecordVersions {
  static constexpr int64_t kNoOwner = -1;  ///< matches txn's kInvalidTxn

  uint64_t newest_begin = 0;
  int64_t owner_txn = kNoOwner;
  std::unique_ptr<VersionNode> history;
};

/// Direct-indexed table of version-chain heads, one per record of a
/// fixed-size store, with striped mutexes so chain operations on different
/// records rarely contend. Purely volatile: rebuilt empty after a crash
/// (open snapshots do not survive restarts).
class VersionChainTable {
 public:
  explicit VersionChainTable(int64_t num_records)
      : slots_(static_cast<size_t>(num_records)) {}

  VersionChainTable(const VersionChainTable&) = delete;
  VersionChainTable& operator=(const VersionChainTable&) = delete;

  int64_t num_records() const { return static_cast<int64_t>(slots_.size()); }

  RecordVersions& slot(int64_t record_id) {
    return slots_[static_cast<size_t>(record_id)];
  }
  const RecordVersions& slot(int64_t record_id) const {
    return slots_[static_cast<size_t>(record_id)];
  }

  std::mutex& stripe(int64_t record_id) const {
    return stripes_[static_cast<size_t>(record_id) % kStripes];
  }

  /// Number of history nodes across all chains (tests / introspection).
  /// Takes every stripe; not for hot paths.
  int64_t CountNodes() const {
    int64_t n = 0;
    for (int64_t r = 0; r < num_records(); ++r) {
      std::unique_lock<std::mutex> lock(stripe(r));
      for (const VersionNode* v = slots_[static_cast<size_t>(r)].history.get();
           v != nullptr; v = v->next.get()) {
        ++n;
      }
    }
    return n;
  }

 private:
  static constexpr size_t kStripes = 64;
  std::vector<RecordVersions> slots_;
  mutable std::array<std::mutex, kStripes> stripes_;
};

}  // namespace mmdb

#endif  // MMDB_STORAGE_VERSION_CHAIN_H_
