#include "index/avl_tree.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"

namespace mmdb {

void AvlTree::ConfigurePaging(int64_t total_pages, int64_t memory_pages,
                              uint64_t seed) {
  MMDB_CHECK(total_pages >= 0 && memory_pages >= 0);
  total_pages_ = total_pages;
  memory_pages_ = memory_pages;
  fault_rng_ = Random(seed);
  resident_.clear();
  resident_pos_.clear();
}

void AvlTree::Visit(int32_t n) {
  ++stats_.node_visits;
  if (total_pages_ <= 0) return;
  // The paper's default: node `n` is scattered onto one of the S pages,
  // with no clustering.
  const int64_t page = static_cast<int64_t>(
      Mix64(static_cast<uint64_t>(n)) % static_cast<uint64_t>(total_pages_));
  if (resident_pos_.count(page)) return;  // hit
  ++stats_.page_faults;
  if (memory_pages_ <= 0) return;  // nothing ever stays resident
  if (static_cast<int64_t>(resident_.size()) >= memory_pages_) {
    // Random replacement.
    size_t victim_idx =
        static_cast<size_t>(fault_rng_.Uniform(resident_.size()));
    int64_t victim_page = resident_[victim_idx];
    resident_[victim_idx] = resident_.back();
    resident_pos_[resident_[victim_idx]] = victim_idx;
    resident_.pop_back();
    resident_pos_.erase(victim_page);
  }
  resident_pos_[page] = resident_.size();
  resident_.push_back(page);
}

int32_t AvlTree::NewNode(const Value& key, int64_t payload) {
  nodes_.push_back(Node{key, payload, -1, -1, 1});
  return static_cast<int32_t>(nodes_.size()) - 1;
}

void AvlTree::UpdateHeight(int32_t n) {
  Node& node = nodes_[static_cast<size_t>(n)];
  node.height = 1 + std::max(NodeHeight(node.left), NodeHeight(node.right));
}

int32_t AvlTree::RotateLeft(int32_t n) {
  Node& x = nodes_[static_cast<size_t>(n)];
  int32_t r = x.right;
  Node& y = nodes_[static_cast<size_t>(r)];
  x.right = y.left;
  y.left = n;
  UpdateHeight(n);
  UpdateHeight(r);
  return r;
}

int32_t AvlTree::RotateRight(int32_t n) {
  Node& x = nodes_[static_cast<size_t>(n)];
  int32_t l = x.left;
  Node& y = nodes_[static_cast<size_t>(l)];
  x.left = y.right;
  y.right = n;
  UpdateHeight(n);
  UpdateHeight(l);
  return l;
}

int32_t AvlTree::Rebalance(int32_t n) {
  UpdateHeight(n);
  int bf = BalanceFactor(n);
  if (bf > 1) {
    Node& node = nodes_[static_cast<size_t>(n)];
    if (BalanceFactor(node.left) < 0) {
      node.left = RotateLeft(node.left);
    }
    return RotateRight(n);
  }
  if (bf < -1) {
    Node& node = nodes_[static_cast<size_t>(n)];
    if (BalanceFactor(node.right) > 0) {
      node.right = RotateRight(node.right);
    }
    return RotateLeft(n);
  }
  return n;
}

int32_t AvlTree::InsertRec(int32_t n, int32_t new_node) {
  if (n < 0) return new_node;
  Visit(n);
  ++stats_.comparisons;
  const int cmp = CompareValues(nodes_[static_cast<size_t>(new_node)].key,
                                nodes_[static_cast<size_t>(n)].key);
  if (cmp < 0) {
    int32_t child = InsertRec(nodes_[static_cast<size_t>(n)].left, new_node);
    nodes_[static_cast<size_t>(n)].left = child;
  } else {
    int32_t child = InsertRec(nodes_[static_cast<size_t>(n)].right, new_node);
    nodes_[static_cast<size_t>(n)].right = child;
  }
  return Rebalance(n);
}

void AvlTree::Insert(const Value& key, int64_t payload) {
  int32_t node = NewNode(key, payload);
  root_ = InsertRec(root_, node);
  ++size_;
}

StatusOr<int64_t> AvlTree::Find(const Value& key) {
  int32_t n = root_;
  while (n >= 0) {
    Visit(n);
    ++stats_.comparisons;
    const Node& node = nodes_[static_cast<size_t>(n)];
    const int cmp = CompareValues(key, node.key);
    if (cmp == 0) return node.payload;
    n = cmp < 0 ? node.left : node.right;
  }
  return Status::NotFound("key not in AVL tree");
}

void AvlTree::ScanFrom(const Value& low,
                       const std::function<bool(const Value&, int64_t)>& fn,
                       int64_t limit) {
  // Iterative in-order traversal starting at the first key >= low.
  std::vector<int32_t> stack;
  int32_t n = root_;
  while (n >= 0) {
    Visit(n);
    ++stats_.comparisons;
    const Node& node = nodes_[static_cast<size_t>(n)];
    if (CompareValues(node.key, low) >= 0) {
      stack.push_back(n);
      n = node.left;
    } else {
      n = node.right;
    }
  }
  int64_t emitted = 0;
  while (!stack.empty()) {
    if (limit >= 0 && emitted >= limit) return;
    int32_t top = stack.back();
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(top)];
    if (!fn(node.key, node.payload)) return;
    ++emitted;
    int32_t r = node.right;
    while (r >= 0) {
      Visit(r);
      stack.push_back(r);
      r = nodes_[static_cast<size_t>(r)].left;
    }
  }
}

Status AvlTree::ValidateRec(int32_t n, const Value* lo, const Value* hi,
                            int* height_out) const {
  if (n < 0) {
    *height_out = 0;
    return Status::OK();
  }
  const Node& node = nodes_[static_cast<size_t>(n)];
  if (lo != nullptr && CompareValues(node.key, *lo) < 0) {
    return Status::Internal("BST order violated (key below lower bound)");
  }
  if (hi != nullptr && CompareValues(node.key, *hi) > 0) {
    return Status::Internal("BST order violated (key above upper bound)");
  }
  int lh = 0, rh = 0;
  MMDB_RETURN_IF_ERROR(ValidateRec(node.left, lo, &node.key, &lh));
  MMDB_RETURN_IF_ERROR(ValidateRec(node.right, &node.key, hi, &rh));
  if (node.height != 1 + std::max(lh, rh)) {
    return Status::Internal("stale height field");
  }
  if (std::abs(lh - rh) > 1) {
    return Status::Internal("AVL balance violated");
  }
  *height_out = node.height;
  return Status::OK();
}

Status AvlTree::ValidateInvariants() const {
  int h = 0;
  return ValidateRec(root_, nullptr, nullptr, &h);
}

}  // namespace mmdb
