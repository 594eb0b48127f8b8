#include "index/btree.h"

#include <cstring>

#include "common/check.h"

namespace mmdb {

namespace {
constexpr int64_t kCountOffset = 0;
constexpr int64_t kIsLeafOffset = 2;
constexpr int64_t kNextLeafOffset = 4;
}  // namespace

uint16_t BPlusTree::NodeView::count() const {
  uint16_t n;
  std::memcpy(&n, data + kCountOffset, sizeof(n));
  return n;
}
void BPlusTree::NodeView::set_count(uint16_t n) {
  std::memcpy(data + kCountOffset, &n, sizeof(n));
}
bool BPlusTree::NodeView::is_leaf() const {
  return data[kIsLeafOffset] != 0;
}
void BPlusTree::NodeView::set_is_leaf(bool leaf) {
  data[kIsLeafOffset] = leaf ? 1 : 0;
}
uint32_t BPlusTree::NodeView::next_leaf() const {
  uint32_t p;
  std::memcpy(&p, data + kNextLeafOffset, sizeof(p));
  return p;
}
void BPlusTree::NodeView::set_next_leaf(uint32_t p) {
  std::memcpy(data + kNextLeafOffset, &p, sizeof(p));
}
char* BPlusTree::NodeView::LeafEntry(int i) {
  return data + kHeaderSize +
         static_cast<int64_t>(i) * tree->leaf_entry_size();
}
char* BPlusTree::NodeView::InternalKey(int i) {
  return data + kHeaderSize + 4 * static_cast<int64_t>(tree->max_fanout_) +
         static_cast<int64_t>(i) * tree->key_width_;
}
uint32_t BPlusTree::NodeView::Child(int i) const {
  uint32_t p;
  std::memcpy(&p, data + kHeaderSize + 4 * static_cast<int64_t>(i), sizeof(p));
  return p;
}
void BPlusTree::NodeView::SetChild(int i, uint32_t p) {
  std::memcpy(data + kHeaderSize + 4 * static_cast<int64_t>(i), &p, sizeof(p));
}

BPlusTree::BPlusTree(BufferPool* pool, PageFile* file, BTreeOptions options)
    : pool_(pool),
      file_(file),
      key_width_(options.key_width),
      payload_width_(options.payload_width) {
  MMDB_CHECK(key_width_ > 0);
  MMDB_CHECK(payload_width_ >= 0);
  MMDB_CHECK_MSG(file->num_pages() == 0, "BPlusTree requires an empty file");
  const int64_t p = file->page_size();
  // Internal node: header + 4*fanout (children) + K*(fanout-1) (keys) <= P.
  max_fanout_ = static_cast<int32_t>((p - kHeaderSize + key_width_) /
                                     (4 + key_width_));
  leaf_capacity_ = static_cast<int32_t>((p - kHeaderSize) / leaf_entry_size());
  MMDB_CHECK_MSG(max_fanout_ >= 3, "page too small for internal node");
  MMDB_CHECK_MSG(leaf_capacity_ >= 2, "page too small for two leaf entries");
}

int BPlusTree::Compare(const char* a, const char* b) {
  ++stats_.comparisons;
  return std::memcmp(a, b, static_cast<size_t>(key_width_));
}

int BPlusTree::LowerBoundLeaf(NodeView node, const char* key) {
  int lo = 0, hi = node.count();
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Compare(node.LeafEntry(mid), key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int BPlusTree::UpperBoundLeaf(NodeView node, const char* key) {
  int lo = 0, hi = node.count();
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Compare(node.LeafEntry(mid), key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int BPlusTree::ChildIndex(NodeView node, const char* key) {
  // upper_bound over separator keys: equal keys descend right, matching the
  // insertion convention (duplicates append after existing equals).
  int lo = 0, hi = node.count();
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Compare(node.InternalKey(mid), key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status BPlusTree::InsertRec(uint32_t page_no, const char* key,
                            const char* payload, SplitResult* out) {
  out->split = false;
  MMDB_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(file_->id(), page_no));
  ++stats_.node_visits;
  NodeView node = View(ref.data());

  if (node.is_leaf()) {
    const int n = node.count();
    const int pos = UpperBoundLeaf(node, key);
    const int32_t esz = leaf_entry_size();
    if (n < leaf_capacity_) {
      std::memmove(node.LeafEntry(pos + 1), node.LeafEntry(pos),
                   static_cast<size_t>((n - pos)) * esz);
      std::memcpy(node.LeafEntry(pos), key, static_cast<size_t>(key_width_));
      if (payload_width_ > 0) {
        std::memcpy(node.LeafEntry(pos) + key_width_, payload,
                    static_cast<size_t>(payload_width_));
      }
      node.set_count(static_cast<uint16_t>(n + 1));
      ref.MarkDirty();
      return Status::OK();
    }
    // Split: gather n+1 entries in order, distribute half and half.
    std::vector<char> all(static_cast<size_t>(n + 1) * esz);
    std::memcpy(all.data(), node.LeafEntry(0),
                static_cast<size_t>(pos) * esz);
    std::memcpy(all.data() + static_cast<size_t>(pos) * esz, key,
                static_cast<size_t>(key_width_));
    if (payload_width_ > 0) {
      std::memcpy(all.data() + static_cast<size_t>(pos) * esz + key_width_,
                  payload, static_cast<size_t>(payload_width_));
    }
    std::memcpy(all.data() + static_cast<size_t>(pos + 1) * esz,
                node.LeafEntry(pos), static_cast<size_t>(n - pos) * esz);

    MMDB_ASSIGN_OR_RETURN(auto right_ref, pool_->New(file_->id()));
    NodeView right = View(right_ref.data());
    right.set_is_leaf(true);

    const int total = n + 1;
    const int left_n = (total + 1) / 2;
    const int right_n = total - left_n;
    std::memcpy(node.LeafEntry(0), all.data(),
                static_cast<size_t>(left_n) * esz);
    node.set_count(static_cast<uint16_t>(left_n));
    std::memcpy(right.LeafEntry(0),
                all.data() + static_cast<size_t>(left_n) * esz,
                static_cast<size_t>(right_n) * esz);
    right.set_count(static_cast<uint16_t>(right_n));

    right.set_next_leaf(node.next_leaf());
    node.set_next_leaf(static_cast<uint32_t>(right_ref.page_no()));
    ref.MarkDirty();
    right_ref.MarkDirty();

    out->split = true;
    out->right_page = static_cast<uint32_t>(right_ref.page_no());
    out->separator.assign(right.LeafEntry(0),
                          right.LeafEntry(0) + key_width_);
    return Status::OK();
  }

  // Internal node.
  const int ci = ChildIndex(node, key);
  const uint32_t child = node.Child(ci);
  SplitResult child_split;
  // Release the parent pin during the child's recursion is not required for
  // correctness here (single-threaded), and keeping it pinned guarantees the
  // view stays valid across the recursive call.
  MMDB_RETURN_IF_ERROR(InsertRec(child, key, payload, &child_split));
  if (!child_split.split) return Status::OK();

  const int n = node.count();  // number of keys; children = n + 1
  if (n < max_fanout_ - 1) {
    // Shift keys [ci, n) right, children [ci+1, n+1) right.
    std::memmove(node.InternalKey(ci + 1), node.InternalKey(ci),
                 static_cast<size_t>(n - ci) * key_width_);
    for (int i = n + 1; i > ci + 1; --i) {
      node.SetChild(i, node.Child(i - 1));
    }
    std::memcpy(node.InternalKey(ci), child_split.separator.data(),
                static_cast<size_t>(key_width_));
    node.SetChild(ci + 1, child_split.right_page);
    node.set_count(static_cast<uint16_t>(n + 1));
    ref.MarkDirty();
    return Status::OK();
  }

  // Split internal node: n+1 keys and n+2 children after the insertion.
  std::vector<std::vector<char>> keys;
  std::vector<uint32_t> children;
  keys.reserve(static_cast<size_t>(n + 1));
  children.reserve(static_cast<size_t>(n + 2));
  for (int i = 0; i <= n; ++i) children.push_back(node.Child(i));
  for (int i = 0; i < n; ++i) {
    keys.emplace_back(node.InternalKey(i), node.InternalKey(i) + key_width_);
  }
  keys.insert(keys.begin() + ci, child_split.separator);
  children.insert(children.begin() + ci + 1, child_split.right_page);

  const int total_keys = n + 1;
  const int mid = total_keys / 2;  // keys[mid] promotes

  MMDB_ASSIGN_OR_RETURN(auto right_ref, pool_->New(file_->id()));
  NodeView right = View(right_ref.data());
  right.set_is_leaf(false);

  // Left keeps keys [0, mid) and children [0, mid].
  for (int i = 0; i < mid; ++i) {
    std::memcpy(node.InternalKey(i), keys[static_cast<size_t>(i)].data(),
                static_cast<size_t>(key_width_));
  }
  for (int i = 0; i <= mid; ++i) {
    node.SetChild(i, children[static_cast<size_t>(i)]);
  }
  node.set_count(static_cast<uint16_t>(mid));

  // Right gets keys (mid, total) and children [mid+1, total+1].
  const int right_keys = total_keys - mid - 1;
  for (int i = 0; i < right_keys; ++i) {
    std::memcpy(right.InternalKey(i),
                keys[static_cast<size_t>(mid + 1 + i)].data(),
                static_cast<size_t>(key_width_));
  }
  for (int i = 0; i <= right_keys; ++i) {
    right.SetChild(i, children[static_cast<size_t>(mid + 1 + i)]);
  }
  right.set_count(static_cast<uint16_t>(right_keys));

  ref.MarkDirty();
  right_ref.MarkDirty();

  out->split = true;
  out->right_page = static_cast<uint32_t>(right_ref.page_no());
  out->separator = keys[static_cast<size_t>(mid)];
  return Status::OK();
}

Status BPlusTree::Insert(const char* key, const char* payload) {
  if (payload_width_ > 0 && payload == nullptr) {
    return Status::InvalidArgument("payload required");
  }
  if (root_ == kNoPage) {
    MMDB_ASSIGN_OR_RETURN(auto ref, pool_->New(file_->id()));
    NodeView node = View(ref.data());
    node.set_is_leaf(true);
    node.set_next_leaf(kNoPage);
    ref.MarkDirty();
    root_ = static_cast<uint32_t>(ref.page_no());
  }
  SplitResult split;
  MMDB_RETURN_IF_ERROR(InsertRec(root_, key, payload, &split));
  if (split.split) {
    MMDB_ASSIGN_OR_RETURN(auto ref, pool_->New(file_->id()));
    NodeView node = View(ref.data());
    node.set_is_leaf(false);
    node.set_next_leaf(kNoPage);
    node.SetChild(0, root_);
    node.SetChild(1, split.right_page);
    std::memcpy(node.InternalKey(0), split.separator.data(),
                static_cast<size_t>(key_width_));
    node.set_count(1);
    ref.MarkDirty();
    root_ = static_cast<uint32_t>(ref.page_no());
    ++height_;
  }
  ++size_;
  return Status::OK();
}

Status BPlusTree::Find(const char* key, char* payload_out) {
  if (root_ == kNoPage) return Status::NotFound("empty tree");
  uint32_t page = root_;
  while (true) {
    MMDB_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(file_->id(), page));
    ++stats_.node_visits;
    NodeView node = View(ref.data());
    if (!node.is_leaf()) {
      page = node.Child(ChildIndex(node, key));
      continue;
    }
    const int pos = LowerBoundLeaf(node, key);
    if (pos < node.count() &&
        std::memcmp(node.LeafEntry(pos), key,
                    static_cast<size_t>(key_width_)) == 0) {
      ++stats_.comparisons;  // the final equality check
      if (payload_width_ > 0 && payload_out != nullptr) {
        std::memcpy(payload_out, node.LeafEntry(pos) + key_width_,
                    static_cast<size_t>(payload_width_));
      }
      return Status::OK();
    }
    ++stats_.comparisons;
    return Status::NotFound("key not in B+-tree");
  }
}

Status BPlusTree::ScanFrom(
    const char* key,
    const std::function<bool(const char*, const char*)>& fn, int64_t limit) {
  if (root_ == kNoPage) return Status::OK();
  uint32_t page = root_;
  while (true) {
    MMDB_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(file_->id(), page));
    ++stats_.node_visits;
    NodeView node = View(ref.data());
    if (!node.is_leaf()) {
      int lo = 0, hi = node.count();
      while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (Compare(node.InternalKey(mid), key) < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      page = node.Child(lo);
      continue;
    }
    break;
  }
  int64_t emitted = 0;
  bool first_leaf = true;
  while (page != kNoPage) {
    MMDB_ASSIGN_OR_RETURN(auto ref,
                          pool_->Fetch(file_->id(), page, IoKind::kSequential));
    ++stats_.node_visits;
    NodeView node = View(ref.data());
    int start = 0;
    if (first_leaf) {
      start = LowerBoundLeaf(node, key);
      first_leaf = false;
    }
    for (int i = start; i < node.count(); ++i) {
      if (limit >= 0 && emitted >= limit) return Status::OK();
      const char* entry = node.LeafEntry(i);
      if (!fn(entry, entry + key_width_)) return Status::OK();
      ++emitted;
    }
    page = node.next_leaf();
  }
  return Status::OK();
}

StatusOr<double> BPlusTree::AvgLeafFill() {
  if (root_ == kNoPage) return 0.0;
  // Walk the leaf chain from the leftmost leaf.
  uint32_t page = root_;
  while (true) {
    MMDB_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(file_->id(), page));
    NodeView node = View(ref.data());
    if (node.is_leaf()) break;
    page = node.Child(0);
  }
  int64_t leaves = 0, entries = 0;
  while (page != kNoPage) {
    MMDB_ASSIGN_OR_RETURN(auto ref,
                          pool_->Fetch(file_->id(), page, IoKind::kSequential));
    NodeView node = View(ref.data());
    ++leaves;
    entries += node.count();
    page = node.next_leaf();
  }
  if (leaves == 0) return 0.0;
  return double(entries) / (double(leaves) * leaf_capacity_);
}

Status BPlusTree::ValidateRec(uint32_t page_no, int depth, const char* lo,
                              const char* hi, int64_t* entries,
                              int* leaf_depth) {
  MMDB_ASSIGN_OR_RETURN(auto ref, pool_->Fetch(file_->id(), page_no));
  NodeView node = View(ref.data());
  const size_t kw = static_cast<size_t>(key_width_);
  if (node.is_leaf()) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal("leaves at differing depths");
    }
    for (int i = 0; i < node.count(); ++i) {
      const char* k = node.LeafEntry(i);
      if (i > 0 && std::memcmp(node.LeafEntry(i - 1), k, kw) > 0) {
        return Status::Internal("leaf keys out of order");
      }
      if (lo != nullptr && std::memcmp(k, lo, kw) < 0) {
        return Status::Internal("leaf key below lower bound");
      }
      if (hi != nullptr && std::memcmp(k, hi, kw) > 0) {
        return Status::Internal("leaf key above upper bound");
      }
    }
    *entries += node.count();
    return Status::OK();
  }
  const int n = node.count();
  if (n < 1) return Status::Internal("internal node with no keys");
  std::vector<std::vector<char>> keys;
  std::vector<uint32_t> children;
  for (int i = 0; i < n; ++i) {
    keys.emplace_back(node.InternalKey(i), node.InternalKey(i) + key_width_);
    if (i > 0 && std::memcmp(keys[static_cast<size_t>(i - 1)].data(),
                             keys[static_cast<size_t>(i)].data(), kw) > 0) {
      return Status::Internal("internal keys out of order");
    }
  }
  for (int i = 0; i <= n; ++i) children.push_back(node.Child(i));
  ref.Release();  // don't hold pins across the whole recursion

  for (int i = 0; i <= n; ++i) {
    const char* child_lo = i == 0 ? lo : keys[static_cast<size_t>(i - 1)].data();
    const char* child_hi = i == n ? hi : keys[static_cast<size_t>(i)].data();
    MMDB_RETURN_IF_ERROR(ValidateRec(children[static_cast<size_t>(i)],
                                     depth + 1, child_lo, child_hi, entries,
                                     leaf_depth));
  }
  return Status::OK();
}

Status BPlusTree::ValidateInvariants() {
  if (root_ == kNoPage) {
    if (size_ != 0) return Status::Internal("size nonzero with no root");
    return Status::OK();
  }
  int64_t entries = 0;
  int leaf_depth = -1;
  MMDB_RETURN_IF_ERROR(
      ValidateRec(root_, 1, nullptr, nullptr, &entries, &leaf_depth));
  if (entries != size_) {
    return Status::Internal("entry count mismatch vs size()");
  }
  if (leaf_depth != height_) {
    return Status::Internal("height field inconsistent with leaf depth");
  }
  return Status::OK();
}

void BPlusTree::EncodeInt64Key(int64_t v, char* out, int32_t k) {
  MMDB_CHECK_MSG(v >= 0, "int64 B+-tree keys must be non-negative");
  uint64_t u = static_cast<uint64_t>(v);
  if (k < 8) {
    MMDB_CHECK_MSG(k >= 1 && (u >> (8 * k)) == 0, "key does not fit width");
  }
  std::memset(out, 0, static_cast<size_t>(k));
  const int bytes = k < 8 ? k : 8;
  for (int i = 0; i < bytes; ++i) {
    out[k - 1 - i] = static_cast<char>((u >> (8 * i)) & 0xFF);
  }
}

void BPlusTree::EncodeStringKey(std::string_view s, char* out, int32_t k) {
  std::memset(out, 0, static_cast<size_t>(k));
  std::memcpy(out, s.data(), std::min<size_t>(s.size(), static_cast<size_t>(k)));
}

}  // namespace mmdb
