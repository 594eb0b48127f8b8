#ifndef MMDB_INDEX_BTREE_H_
#define MMDB_INDEX_BTREE_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "index/index_stats.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace mmdb {

/// Geometry of a B+-tree, fixed at creation.
struct BTreeOptions {
  /// Key width K in bytes. Keys are fixed-width byte strings compared with
  /// memcmp; use EncodeInt64Key / EncodeStringKey to build them.
  int32_t key_width = 8;
  /// Payload bytes stored with each leaf entry (0 allowed). A leaf entry is
  /// key_width + payload_width bytes — the paper's tuple width L when the
  /// tree clusters the relation.
  int32_t payload_width = 0;
};

/// The B+-tree access method of §2 ([COME79]): a paged search tree whose
/// every node is one buffer-pool page, "making fundamental use of the page
/// size of the device".
///
/// Geometry follows the paper's model exactly: internal fanout
/// ~ P/(K+4) with 4-byte child pointers, leaves hold L-byte entries, and
/// steady-state occupancy under random insertion converges to ~69%
/// ([YAO78]) — both are checked by tests/benches.
///
/// Concurrency: single-threaded (the paper's setting). The tree only grows:
/// the paper never deletes from it and the SQL dialect has no DELETE.
class BPlusTree {
 public:
  /// Creates an empty tree whose nodes live in `file` and are accessed via
  /// `pool`. The file must be empty.
  BPlusTree(BufferPool* pool, PageFile* file, BTreeOptions options);

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Inserts a (key, payload) entry. Duplicates are allowed and are all
  /// returned by range scans. `payload` may be nullptr iff payload_width==0.
  Status Insert(const char* key, const char* payload);

  /// Point lookup: copies the payload of some entry with exactly `key` into
  /// `payload_out` (which may be nullptr if payload_width == 0).
  Status Find(const char* key, char* payload_out);

  /// Visits entries in key order starting at the first key >= `key`,
  /// following the leaf chain; stops after `limit` entries (limit < 0 =
  /// unbounded) or when `fn` returns false.
  Status ScanFrom(const char* key,
                  const std::function<bool(const char* key,
                                           const char* payload)>& fn,
                  int64_t limit = -1);

  int height() const { return height_; }
  int64_t size() const { return size_; }
  int64_t num_pages() const { return file_->num_pages(); }
  int32_t internal_fanout() const { return max_fanout_; }
  int32_t leaf_capacity() const { return leaf_capacity_; }

  /// Mean fill fraction of leaf pages (for the [YAO78] 69%-occupancy
  /// check).
  StatusOr<double> AvgLeafFill();

  const IndexStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Structural audit: sorted nodes, separator bounds, uniform leaf depth,
  /// consistent leaf chain, entry count == size(). For property tests.
  Status ValidateInvariants();

  /// Encodes `v` as `k` big-endian bytes so memcmp order == numeric order.
  /// Precondition: v >= 0 and v < 2^(8k-1) (checked).
  static void EncodeInt64Key(int64_t v, char* out, int32_t k);

  /// Zero-pads / truncates `s` to `k` bytes (memcmp order == lexicographic
  /// order on the truncated strings).
  static void EncodeStringKey(std::string_view s, char* out, int32_t k);

 private:
  static constexpr uint32_t kNoPage = 0xFFFFFFFFu;
  static constexpr int64_t kHeaderSize = 8;

  // Node layout (one disk page):
  //   u16 count | u8 is_leaf | u8 pad | u32 next_leaf
  //   leaf:     count entries of (key_width + payload_width) bytes
  //   internal: child[0..max_fanout) as u32, then key[0..max_fanout-1) of
  //             key_width bytes; `count` = number of keys, children = count+1.
  struct NodeView {
    char* data;
    const BPlusTree* tree;

    uint16_t count() const;
    void set_count(uint16_t n);
    bool is_leaf() const;
    void set_is_leaf(bool leaf);
    uint32_t next_leaf() const;
    void set_next_leaf(uint32_t p);

    char* LeafEntry(int i);
    char* InternalKey(int i);
    uint32_t Child(int i) const;
    void SetChild(int i, uint32_t p);
  };

  struct SplitResult {
    bool split = false;
    std::vector<char> separator;  // key_width bytes
    uint32_t right_page = kNoPage;
  };

  NodeView View(char* data) { return NodeView{data, this}; }
  int32_t leaf_entry_size() const { return key_width_ + payload_width_; }

  int Compare(const char* a, const char* b);
  /// First index in [0, n) whose key is >= key (leaf) — lower bound.
  int LowerBoundLeaf(NodeView node, const char* key);
  /// First index in [0, n) whose key is > key (for duplicate-friendly
  /// insertion position).
  int UpperBoundLeaf(NodeView node, const char* key);
  /// Child slot to descend into for `key`.
  int ChildIndex(NodeView node, const char* key);

  Status InsertRec(uint32_t page_no, const char* key, const char* payload,
                   SplitResult* out);
  Status ValidateRec(uint32_t page_no, int depth, const char* lo,
                     const char* hi, int64_t* entries, int* leaf_depth);

  BufferPool* pool_;
  PageFile* file_;
  int32_t key_width_;
  int32_t payload_width_;
  int32_t max_fanout_;      // max children per internal node
  int32_t leaf_capacity_;   // max entries per leaf
  uint32_t root_ = kNoPage;
  int height_ = 1;          // number of levels (1 = root is a leaf)
  int64_t size_ = 0;
  IndexStats stats_;
};

}  // namespace mmdb

#endif  // MMDB_INDEX_BTREE_H_
