#ifndef MMDB_COMMON_HASH_DIRECTORY_H_
#define MMDB_COMMON_HASH_DIRECTORY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmdb {

/// Rows the batch kernels over a HashChains table (the join probe and the
/// GROUP BY fold) take at a time: they read a batch's record addresses and
/// hashes first, then look the batch up in the directory, then walk the
/// chains in row order.
inline constexpr int kHashBatch = 512;

/// A flat open-addressing map from a 64-bit hash to a dense id: the first
/// distinct hash added gets id 0, the next id 1, and so on, so ids number
/// the hashes in first-seen order. Linear probing on the hash's low bits
/// (every hash stored here is built from Mix64 outputs, so the low bits
/// are mixed), grown by doubling to keep the load at most one quarter
/// below 32 KB of slots and at most one half from there, so that most
/// lookups end at the home slot. The batch lookups test every home slot
/// without a branch and probe on only for the hashes whose home slot holds
/// another one.
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
    const size_t capacity = slots_.size();
    const size_t load = capacity < kSmallSlots ? 4 : 2;
    if ((static_cast<size_t>(size_) + 1) * load > capacity) {
      Rehash(capacity == 0 ? 16 : capacity * 2);
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

  /// ids[i] = Find(h[i]) for i < n <= kHashBatch.
  void FindBatch(const uint64_t* h, int n, uint32_t* ids) const {
    if (slots_.empty()) {
      for (int i = 0; i < n; ++i) ids[i] = kNone;
      return;
    }
    // An empty home slot holds kNone, the answer for an absent hash.
    uint32_t rest[kHashBatch];
    int m = 0;
    for (int i = 0; i < n; ++i) {
      const Slot& s = slots_[h[i] & mask_];
      ids[i] = s.id;
      rest[m] = static_cast<uint32_t>(i);
      m += (s.hash != h[i]) & (s.id != kNone);
    }
    for (int k = 0; k < m; ++k) ids[rest[k]] = Find(h[rest[k]]);
  }

  /// ids[i] = FindOrAdd(h[i]) for i < n <= kHashBatch, in order: the new
  /// hashes get their ids in first-seen order.
  void FindOrAddBatch(const uint64_t* h, int n, uint32_t* ids) {
    uint32_t rest[kHashBatch];
    int m = 0;
    if (slots_.empty()) {
      for (int i = 0; i < n; ++i) rest[m++] = static_cast<uint32_t>(i);
    } else {
      for (int i = 0; i < n; ++i) {
        const Slot& s = slots_[h[i] & mask_];
        ids[i] = s.id;
        rest[m] = static_cast<uint32_t>(i);
        m += (s.hash != h[i]) | (s.id == kNone);
      }
    }
    // Ids already handed out stay put when FindOrAdd regrows the slots.
    for (int k = 0; k < m; ++k) ids[rest[k]] = FindOrAdd(h[rest[k]]);
  }

  /// Distinct hashes added.
  uint32_t size() const { return size_; }

  /// Heap bytes of the slot array.
  int64_t allocated_bytes() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(Slot));
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kNone;
  };
  /// Below this many slots (32 KB) the load stays at most one quarter; a
  /// directory this large or larger runs at most half full, to stay small
  /// in the cache.
  static constexpr size_t kSmallSlots = 2048;

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

/// The one hash table layout of the join build and the GROUP BY (§3): a
/// chain of entries per distinct 64-bit hash, found through a
/// HashDirectory. Entries are numbered 0, 1, ... in insertion order; a
/// chain holds its entries in insertion order, as a head and a tail per
/// directory id and a next per entry. The caller keeps what an entry
/// stands for (a build record, a group) in its own vectors indexed by
/// entry, so the table makes a bounded number of allocations however many
/// distinct hashes it holds.
class HashChains {
 public:
  static constexpr uint32_t kEnd = HashDirectory::kNone;

  /// heads[i] = the first entry of h[i]'s chain, or kEnd, for i < n <=
  /// kHashBatch.
  void Heads(const uint64_t* h, int n, uint32_t* heads) const {
    directory_.FindBatch(h, n, heads);
    if (heads_.empty()) return;  // every id is kNone == kEnd
    for (int i = 0; i < n; ++i) {
      const uint32_t id = heads[i];
      const uint32_t head = heads_[id == kEnd ? 0 : id];
      heads[i] = id == kEnd ? kEnd : head;
    }
  }

  /// chains[i] = the chain id of h[i], adding an empty chain for a new
  /// hash, for i < n <= kHashBatch. Chain ids number the hashes in
  /// first-seen order.
  void Chains(const uint64_t* h, int n, uint32_t* chains) {
    directory_.FindOrAddBatch(h, n, chains);
    heads_.resize(directory_.size(), kEnd);
    tails_.resize(directory_.size(), kEnd);
  }

  uint32_t head(uint32_t chain) const { return heads_[chain]; }
  uint32_t next(uint32_t entry) const { return next_[entry]; }

  /// Appends a new entry to the end of chain `chain`; returns its number.
  uint32_t Append(uint32_t chain) {
    const uint32_t e = static_cast<uint32_t>(next_.size());
    next_.push_back(kEnd);
    uint32_t& tail = tails_[chain];
    (tail == kEnd ? heads_[chain] : next_[tail]) = e;
    tail = e;
    return e;
  }

  /// Appends a new entry to the chain of hash `h`; returns its number.
  uint32_t Add(uint64_t h) {
    uint32_t chain = kEnd;
    Chains(&h, 1, &chain);
    return Append(chain);
  }

  /// Entries appended.
  int64_t size() const { return static_cast<int64_t>(next_.size()); }

  /// Heap bytes of the directory, the heads, the tails and the links.
  int64_t allocated_bytes() const {
    return directory_.allocated_bytes() +
           static_cast<int64_t>((heads_.capacity() + tails_.capacity() +
                                 next_.capacity()) *
                                sizeof(uint32_t));
  }

 private:
  HashDirectory directory_;
  std::vector<uint32_t> heads_;  // first entry, by directory id
  std::vector<uint32_t> tails_;  // last entry, by directory id
  std::vector<uint32_t> next_;   // next entry of the same chain, by entry
};

}  // namespace mmdb

#endif  // MMDB_COMMON_HASH_DIRECTORY_H_
