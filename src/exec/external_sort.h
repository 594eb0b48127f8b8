#ifndef MMDB_EXEC_EXTERNAL_SORT_H_
#define MMDB_EXEC_EXTERNAL_SORT_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "storage/relation.h"

namespace mmdb {

/// A stream of records in non-decreasing key order.
class SortedStream {
 public:
  virtual ~SortedStream() = default;
  /// The next record, or null at the end. It stays valid until the next
  /// call.
  virtual StatusOr<const char*> Next() = 0;
};

/// Diagnostics from one sort.
struct SortStats {
  int64_t runs = 0;          ///< initial runs after replacement selection
  bool in_memory = false;    ///< no spill happened
  int merge_levels = 0;      ///< extra merge passes beyond the final one
  double avg_run_pages = 0;  ///< should be ~2|M|/F for random input [KNUT73]
};

/// Sorts `input` on `key_column` with the §3.4 machinery: replacement
/// selection builds initial runs averaging twice the memory size [KNUT73],
/// then a single n-way merge (the paper's assumption |M| >= sqrt(|S|F)
/// guarantees one level; if it is violated we cascade intermediate merges
/// of |M|-run groups instead of failing — an extension past the paper).
///
/// All comparisons/swaps in the priority queues, tuple moves into output
/// buffers, and run I/O (IOseq writes, IOrand merge reads) are charged to
/// ctx->clock. Records are copied, never deserialized; an in-memory sort
/// streams `input`'s records in place, so `input` must outlive the stream.
StatusOr<std::unique_ptr<SortedStream>> SortRelation(const Relation& input,
                                                     int key_column,
                                                     ExecContext* ctx,
                                                     SortStats* stats = nullptr);

/// Internal: a counting binary min-heap charging comp/swap to the clock —
/// shared by replacement selection and the merge (exposed for unit tests).
template <typename T, typename Less>
class CountingHeap {
 public:
  CountingHeap(Less less, CostClock* clock)
      : less_(std::move(less)), clock_(clock) {}

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const T& top() const { return items_.front(); }

  void Push(T item) {
    items_.push_back(std::move(item));
    SiftUp(items_.size() - 1);
  }

  T Pop() {
    T out = std::move(items_.front());
    items_.front() = std::move(items_.back());
    items_.pop_back();
    if (!items_.empty()) SiftDown(0);
    return out;
  }

 private:
  bool LessAt(size_t a, size_t b) {
    if (clock_ != nullptr) clock_->Comp();
    return less_(items_[a], items_[b]);
  }
  void SwapAt(size_t a, size_t b) {
    if (clock_ != nullptr) clock_->Swap();
    std::swap(items_[a], items_[b]);
  }
  void SiftUp(size_t i) {
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (!LessAt(i, parent)) break;
      SwapAt(i, parent);
      i = parent;
    }
  }
  void SiftDown(size_t i) {
    const size_t n = items_.size();
    while (true) {
      size_t smallest = i;
      size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < n && LessAt(l, smallest)) smallest = l;
      if (r < n && LessAt(r, smallest)) smallest = r;
      if (smallest == i) break;
      SwapAt(i, smallest);
      i = smallest;
    }
  }

  Less less_;
  CostClock* clock_;
  std::vector<T> items_;
};

}  // namespace mmdb

#endif  // MMDB_EXEC_EXTERNAL_SORT_H_
