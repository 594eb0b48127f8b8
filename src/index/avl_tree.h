#ifndef MMDB_INDEX_AVL_TREE_H_
#define MMDB_INDEX_AVL_TREE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "index/index_stats.h"
#include "storage/value.h"

namespace mmdb {

/// The AVL-tree access method of §2: a height-balanced binary search tree
/// holding (key, payload) pairs entirely in main memory. `payload` is
/// typically a tuple ordinal or a RecordId packed into an int64.
///
/// Page-fault accounting. The paper observes that "without any special
/// precautions each of the C nodes to be inspected will be on a different
/// page", and models faults under random replacement as C·(1 − |M|/S).
/// When ConfigurePaging is called, the tree scatters nodes across S
/// simulated pages and runs an |M|-frame resident set with random
/// replacement; every node visit then possibly faults, reproducing the
/// model empirically (validated in bench_table1_access_methods).
class AvlTree {
 public:
  AvlTree() = default;

  AvlTree(const AvlTree&) = delete;
  AvlTree& operator=(const AvlTree&) = delete;

  /// Enables the §2 fault simulation: the structure occupies `total_pages`
  /// (S) of which `memory_pages` (|M|) fit in memory, nodes scattered one
  /// per page ("without any special precautions each of the C nodes to be
  /// inspected will be on a different page"). Call after loading or at any
  /// time; the resident set starts empty.
  void ConfigurePaging(int64_t total_pages, int64_t memory_pages,
                       uint64_t seed = 7);

  /// Inserts a key/payload pair. Duplicate keys are allowed (they chain
  /// into the right subtree and are all found by range scans).
  void Insert(const Value& key, int64_t payload);

  /// Returns the payload of (some) tuple with exactly `key`.
  StatusOr<int64_t> Find(const Value& key);

  /// In-order visit of the `limit` smallest entries with key >= `low`
  /// (limit < 0 = unbounded). This is the paper's sequential-access case:
  /// locate the first qualifying tuple, then read successors in key order.
  /// `fn` returns false to stop early.
  void ScanFrom(const Value& low,
                const std::function<bool(const Value&, int64_t)>& fn,
                int64_t limit = -1);

  int64_t size() const { return size_; }
  int height() const { return NodeHeight(root_); }
  bool empty() const { return size_ == 0; }

  const IndexStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Verifies AVL balance (|bf| <= 1 everywhere) and BST ordering; returns
  /// InternalError describing the first violation. Used by property tests.
  Status ValidateInvariants() const;

 private:
  struct Node {
    Value key;
    int64_t payload;
    int32_t left = -1;   // arena index
    int32_t right = -1;
    int32_t height = 1;
  };

  int NodeHeight(int32_t n) const {
    return n < 0 ? 0 : nodes_[static_cast<size_t>(n)].height;
  }
  int BalanceFactor(int32_t n) const {
    const Node& node = nodes_[static_cast<size_t>(n)];
    return NodeHeight(node.left) - NodeHeight(node.right);
  }
  void UpdateHeight(int32_t n);
  int32_t RotateLeft(int32_t n);
  int32_t RotateRight(int32_t n);
  int32_t Rebalance(int32_t n);
  int32_t InsertRec(int32_t n, int32_t new_node);
  Status ValidateRec(int32_t n, const Value* lo, const Value* hi,
                     int* height_out) const;

  /// Charges a node visit (and possibly a simulated page fault).
  void Visit(int32_t n);

  int32_t NewNode(const Value& key, int64_t payload);

  std::deque<Node> nodes_;
  int32_t root_ = -1;
  int64_t size_ = 0;

  // Fault simulation state (§2 model).
  int64_t total_pages_ = 0;
  int64_t memory_pages_ = 0;
  Random fault_rng_{7};
  std::vector<int64_t> resident_;                   // pages in memory
  std::unordered_map<int64_t, size_t> resident_pos_;  // page -> index

  IndexStats stats_;
};

}  // namespace mmdb

#endif  // MMDB_INDEX_AVL_TREE_H_
