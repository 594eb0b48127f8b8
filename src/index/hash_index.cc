#include "index/hash_index.h"

#include "common/check.h"

namespace mmdb {

HashIndex::HashIndex(double max_load_factor)
    : max_load_factor_(max_load_factor), buckets_(16, -1) {
  MMDB_CHECK(max_load_factor > 0);
}

void HashIndex::MaybeGrow() {
  if (double(size_) < max_load_factor_ * double(buckets_.size())) return;
  std::vector<int32_t> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, -1);
  for (int32_t head : old) {
    int32_t e = head;
    while (e >= 0) {
      Entry& entry = arena_[static_cast<size_t>(e)];
      int32_t next = entry.next;
      size_t b = BucketOf(entry.key);
      entry.next = buckets_[b];
      buckets_[b] = e;
      e = next;
    }
  }
}

void HashIndex::Insert(const Value& key, int64_t payload) {
  MaybeGrow();
  ++stats_.node_visits;
  const size_t b = BucketOf(key);
  arena_.push_back(Entry{key, payload, buckets_[b]});
  buckets_[b] = static_cast<int32_t>(arena_.size()) - 1;
  ++size_;
}

StatusOr<int64_t> HashIndex::Find(const Value& key) {
  int32_t e = buckets_[BucketOf(key)];
  while (e >= 0) {
    ++stats_.comparisons;
    const Entry& entry = arena_[static_cast<size_t>(e)];
    if (ValuesEqual(entry.key, key)) return entry.payload;
    e = entry.next;
  }
  return Status::NotFound("key not in hash index");
}

void HashIndex::FindAll(const Value& key,
                        const std::function<void(int64_t)>& fn) {
  int32_t e = buckets_[BucketOf(key)];
  while (e >= 0) {
    ++stats_.comparisons;
    const Entry& entry = arena_[static_cast<size_t>(e)];
    if (ValuesEqual(entry.key, key)) fn(entry.payload);
    e = entry.next;
  }
}

}  // namespace mmdb
