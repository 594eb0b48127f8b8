#ifndef MMDB_INDEX_HASH_INDEX_H_
#define MMDB_INDEX_HASH_INDEX_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "index/index_stats.h"
#include "storage/value.h"

namespace mmdb {

/// A chained in-memory hash index over (key, payload) pairs. §4 observes
/// that with large memories, hash structures dominate for equality access;
/// the Database facade uses this as the primary-key index of the
/// transactional plane, and the executor builds throwaway instances for
/// in-memory hash joins.
///
/// The table resizes at load factor 'F' ~ the paper's fudge factor: a hash
/// table for n keys occupies ~F·n slots.
class HashIndex {
 public:
  explicit HashIndex(double max_load_factor = 0.83 /* ~= 1/1.2, F = 1.2 */);

  /// Inserts a (key, payload) pair; duplicates allowed.
  void Insert(const Value& key, int64_t payload);

  /// Returns the payload of some entry with `key`.
  StatusOr<int64_t> Find(const Value& key);

  /// Invokes `fn` for every payload whose key equals `key`.
  void FindAll(const Value& key, const std::function<void(int64_t)>& fn);

  int64_t size() const { return size_; }
  int64_t num_buckets() const { return static_cast<int64_t>(buckets_.size()); }

  const IndexStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  struct Entry {
    Value key;
    int64_t payload;
    int32_t next = -1;  // arena index of next in chain
  };

  size_t BucketOf(const Value& key) const {
    return static_cast<size_t>(HashValue(key) &
                               (buckets_.size() - 1));
  }
  void MaybeGrow();

  double max_load_factor_;
  std::vector<int32_t> buckets_;  // head arena index or -1
  std::vector<Entry> arena_;
  int64_t size_ = 0;
  IndexStats stats_;
};

}  // namespace mmdb

#endif  // MMDB_INDEX_HASH_INDEX_H_
