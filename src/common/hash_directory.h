#ifndef MMDB_COMMON_HASH_DIRECTORY_H_
#define MMDB_COMMON_HASH_DIRECTORY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmdb {

/// A flat open-addressing map from a 64-bit hash to a dense id: the first
/// distinct hash added gets id 0, the next id 1, and so on, so ids number
/// the hashes in first-seen order. The join and aggregation hash tables
/// keep their per-hash buckets in a vector indexed by id and find a
/// bucket here, in one probe of a contiguous slot array rather than a
/// walk to a std::unordered_map node. Linear probing on the hash's low
/// bits (every hash stored here is built from Mix64 outputs, so the low
/// bits are mixed), grown by doubling to keep the load at most one half.
class HashDirectory {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The id of `h`, or kNone.
  uint32_t Find(uint64_t h) const {
    if (slots_.empty()) return kNone;
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone || s.hash == h) return s.id;
    }
  }

  /// The id of `h`, adding it when absent: a new hash gets the next id.
  uint32_t FindOrAdd(uint64_t h) {
    if ((static_cast<size_t>(size_) + 1) * 2 > slots_.size()) {
      Rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.id == kNone) {
        s.hash = h;
        s.id = size_++;
        return s.id;
      }
      if (s.hash == h) return s.id;
    }
  }

  /// Heap bytes of the slot array.
  int64_t allocated_bytes() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(Slot));
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kNone;
  };

  void Rehash(size_t capacity) {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(capacity);
    mask_ = capacity - 1;
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      size_t i = s.hash & mask_;
      while (slots_[i].id != kNone) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  uint32_t size_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_COMMON_HASH_DIRECTORY_H_
