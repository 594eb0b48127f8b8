#include "txn/lock_manager.h"

#include "common/check.h"

namespace mmdb {

LockManager::LockManager(std::chrono::milliseconds wait_timeout,
                         MetricsRegistry* metrics, std::string_view prefix)
    : wait_timeout_(wait_timeout),
      counters_(metrics, prefix,
                {{kAcquisitions, "acquisitions"}, {kWaits, "waits"},
                 {kDeadlocks, "deadlocks"},
                 {kDependenciesRecorded, "dependencies_recorded"}}) {}

bool LockManager::Compatible(const Lock& lock, TxnId txn,
                             LockMode mode) const {
  for (const auto& [holder, held_mode] : lock.holders) {
    if (holder == txn) continue;  // self-compatibility / upgrade handled out
    if (!LockModesCompatible(mode, held_mode)) return false;
  }
  return true;
}

bool LockManager::PathExists(TxnId from, TxnId to) const {
  // DFS in waits_for_. Caller holds mu_.
  std::vector<TxnId> stack = {from};
  std::set<TxnId> seen;
  while (!stack.empty()) {
    TxnId t = stack.back();
    stack.pop_back();
    if (t == to) return true;
    if (!seen.insert(t).second) continue;
    auto it = waits_for_.find(t);
    if (it == waits_for_.end()) continue;
    for (TxnId next : it->second) stack.push_back(next);
  }
  return false;
}

Status LockManager::Acquire(TxnId txn, LockId lock_id, LockMode mode,
                            std::vector<TxnId>* deps) {
  std::unique_lock<std::mutex> lock(mu_);
  Lock& l = locks_[lock_id];
  counters_.Add(kAcquisitions);

  // Already held? Possibly upgrade (S+X, S+IX and IX+X all escalate to X).
  auto self = l.holders.find(txn);
  if (self != l.holders.end()) {
    const LockMode combined = CombineLockModes(self->second, mode);
    if (combined == self->second) return Status::OK();
    // Upgrade: wait for the combined mode (compatibility ignores self).
    mode = combined;
  }

  bool waited = false;
  while (!Compatible(l, txn, mode)) {
    // Build waits-for edges to the blocking active holders and check for a
    // cycle that includes us.
    std::set<TxnId>& blockers = waits_for_[txn];
    blockers.clear();
    for (const auto& [holder, held_mode] : l.holders) {
      if (holder == txn) continue;
      if (!LockModesCompatible(mode, held_mode)) blockers.insert(holder);
    }
    for (TxnId blocker : blockers) {
      if (PathExists(blocker, txn)) {
        waits_for_.erase(txn);
        counters_.Add(kDeadlocks);
        return Status::Deadlock("waits-for cycle on lock " +
                                std::to_string(lock_id));
      }
    }
    if (!waited) {
      waited = true;
      counters_.Add(kWaits);
      ++l.waiting;
    }
    if (cv_.wait_for(lock, wait_timeout_) == std::cv_status::timeout) {
      --l.waiting;
      waits_for_.erase(txn);
      return Status::Deadlock("lock wait timeout on " +
                              std::to_string(lock_id));
    }
  }
  if (waited) --l.waiting;
  waits_for_.erase(txn);

  // (If this was an S->X upgrade the early return above already handled the
  // no-op cases, so `mode` is the final mode either way.)
  l.holders[txn] = mode;
  held_[txn].insert(lock_id);

  // Record dependencies on pre-committed former holders (§5.2).
  if (deps != nullptr) {
    for (TxnId pc : l.pre_committed) {
      if (pc != txn) {
        deps->push_back(pc);
        counters_.Add(kDependenciesRecorded);
      }
    }
  }
  return Status::OK();
}

void LockManager::PreCommit(TxnId txn) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  for (LockId lid : it->second) {
    Lock& l = locks_[lid];
    l.holders.erase(txn);
    l.pre_committed.insert(txn);
    pre_committed_[txn].insert(lid);
  }
  held_.erase(it);
  cv_.notify_all();
}

void LockManager::FinalizeCommit(TxnId txn) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = pre_committed_.find(txn);
  if (it == pre_committed_.end()) return;
  for (LockId lid : it->second) {
    auto lit = locks_.find(lid);
    if (lit == locks_.end()) continue;
    lit->second.pre_committed.erase(txn);
    // Drop empty entries to keep the table compact.
    if (lit->second.holders.empty() && lit->second.pre_committed.empty() &&
        lit->second.waiting == 0) {
      locks_.erase(lit);
    }
  }
  pre_committed_.erase(it);
}

void LockManager::ReleaseAll(TxnId txn) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = held_.find(txn);
  if (it != held_.end()) {
    for (LockId lid : it->second) {
      auto lit = locks_.find(lid);
      if (lit == locks_.end()) continue;
      lit->second.holders.erase(txn);
      if (lit->second.holders.empty() && lit->second.pre_committed.empty() &&
          lit->second.waiting == 0) {
        locks_.erase(lit);
      }
    }
    held_.erase(it);
  }
  waits_for_.erase(txn);
  cv_.notify_all();
}

int64_t LockManager::NumLocks() const {
  std::unique_lock<std::mutex> lock(mu_);
  return static_cast<int64_t>(locks_.size());
}

LockManager::Stats LockManager::stats() const {
  Stats s;
  s.acquisitions = counters_.Get(kAcquisitions);
  s.waits = counters_.Get(kWaits);
  s.deadlocks = counters_.Get(kDeadlocks);
  s.dependencies_recorded = counters_.Get(kDependenciesRecorded);
  return s;
}

}  // namespace mmdb
