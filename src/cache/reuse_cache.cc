#include "cache/reuse_cache.h"

#include <functional>

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/check.h"
#include "optimizer/predicate.h"

namespace mmdb {

namespace {

std::string_view AlgTag(JoinAlgorithm a) {
  switch (a) {
    case JoinAlgorithm::kNestedLoop: return "nl";
    case JoinAlgorithm::kSortMerge: return "sm";
    case JoinAlgorithm::kSimpleHash: return "sh";
    case JoinAlgorithm::kGraceHash: return "gh";
    case JoinAlgorithm::kHybridHash: return "hh";
  }
  return "?";
}

std::string_view IndexTag(IndexKind k) {
  switch (k) {
    case IndexKind::kAvl: return "avl";
    case IndexKind::kBTree: return "bt";
    case IndexKind::kHash: return "h";
  }
  return "?";
}

}  // namespace

ReuseCache::ReuseCache() : ReuseCache(Options()) {}

ReuseCache::ReuseCache(Options options, MetricsRegistry* metrics)
    : options_(options),
      counters_(metrics, "cache.reuse",
                {{kHits, "hits"}, {kMisses, "misses"},
                 {kBuildHits, "build_hits"}, {kInstalls, "installs"},
                 {kRejected, "rejected"}, {kBypassed, "bypassed"},
                 {kEvictions, "evictions"},
                 {kInvalidations, "invalidations"},
                 {kInvalidatedEntries, "invalidated_entries"},
                 {kBytes, "bytes"}, {kEntries, "entries"}}) {}

void ReuseCache::SetEnvTag(std::string tag) { env_tag_ = std::move(tag); }

uint64_t ReuseCache::TableVersion(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  return VersionLocked(table);
}

uint64_t ReuseCache::VersionLocked(const std::string& table) const {
  auto it = versions_.find(table);
  return it == versions_.end() ? 0 : it->second;
}

void ReuseCache::InvalidateTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  ++versions_[table];
  counters_.Add(kInvalidations);
  auto it = by_table_.find(table);
  if (it == by_table_.end()) return;
  // EraseLocked mutates by_table_; detach the key set first.
  const std::set<std::string> keys = std::move(it->second);
  by_table_.erase(it);
  for (const std::string& key : keys) {
    if (entries_.count(key)) {
      EraseLocked(key);
      counters_.Add(kInvalidatedEntries);
    }
  }
}

std::string ReuseCache::CanonValue(const Value& v) {
  char buf[64];
  switch (TypeOf(v)) {
    case ValueType::kInt64:
      std::snprintf(buf, sizeof(buf), "i:%lld",
                    static_cast<long long>(std::get<int64_t>(v)));
      return buf;
    case ValueType::kDouble:
      std::snprintf(buf, sizeof(buf), "d:%.17g", std::get<double>(v));
      return buf;
    case ValueType::kString: {
      const std::string& s = std::get<std::string>(v);
      return "s:" + std::to_string(s.size()) + ":" + s;
    }
  }
  return "?";
}

int ReuseCache::ResolvePos(const std::vector<ColumnRef>& columns,
                           const ColumnRef& ref) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == ref) return static_cast<int>(i);
  }
  int found = -1;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].column == ref.column) {
      if (found >= 0) return -1;  // ambiguous: don't guess
      found = static_cast<int>(i);
    }
  }
  return found;
}

namespace {

/// Canonical predicate: column position (falling back to the raw column
/// name when the position cannot be resolved), operator, exact literal.
std::string CanonPred(const Predicate& p,
                      const std::vector<ColumnRef>& columns) {
  const int pos = ReuseCache::ResolvePos(columns, ColumnRef{p.table, p.column});
  std::string out = pos >= 0 ? "#" + std::to_string(pos) : "$" + p.column;
  out += CmpOpName(p.op);
  out += ReuseCache::CanonValue(p.literal);
  return out;
}

}  // namespace

std::string ReuseCache::CanonJoin(JoinAlgorithm algorithm,
                                  const std::string& build_fp,
                                  const std::string& probe_fp,
                                  int build_key_pos, int probe_key_pos) const {
  std::string out = "join(";
  out += AlgTag(algorithm);
  out += ",";
  out += env_tag_;
  out += ",b#" + std::to_string(build_key_pos);
  out += ",p#" + std::to_string(probe_key_pos);
  out += ")(" + build_fp + ")(" + probe_fp + ")";
  return out;
}

void ReuseCache::FingerprintPlan(const PlanNode& root,
                                 Fingerprints* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  FingerprintLocked(root, out);
}

void ReuseCache::FingerprintRun(const PlanNode& root, Fingerprints* out) {
  std::lock_guard<std::mutex> lock(mu_);
  FingerprintLocked(root, out);
  // The root reads every table of the plan, each once.
  std::set<std::string> written;
  for (const std::string& table : out->tables[&root]) {
    const uint64_t version = VersionLocked(table);
    auto [it, first_read] = read_versions_.try_emplace(table, version);
    if (!first_read && it->second != version) written.insert(table);
    it->second = version;
  }
  if (written.empty()) return;
  for (const auto& [node, tables] : out->tables) {
    for (const std::string& table : tables) {
      if (written.count(table) != 0) {
        out->declined.insert(node);
        break;
      }
    }
  }
}

void ReuseCache::FingerprintLocked(const PlanNode& root,
                                   Fingerprints* out) const {
  // Recursion writes canonical + table deps for every node.
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    std::string canon;
    std::vector<std::string> tables;
    switch (node.kind) {
      case PlanNode::Kind::kScan: {
        canon = "scan(" + node.table + "@" +
                std::to_string(VersionLocked(node.table)) + ")";
        tables.push_back(node.table);
        break;
      }
      case PlanNode::Kind::kIndexScan: {
        canon = "ix(" + node.table + "@" +
                std::to_string(VersionLocked(node.table)) + ",";
        canon += IndexTag(node.index_kind);
        canon += ",";
        if (!node.predicates.empty()) {
          canon += CanonPred(node.predicates[0], node.output_columns);
        }
        canon += ")";
        tables.push_back(node.table);
        break;
      }
      case PlanNode::Kind::kFilter: {
        MMDB_CHECK(node.child_left != nullptr);
        walk(*node.child_left);
        canon = "fil(";
        for (size_t i = 0; i < node.predicates.size(); ++i) {
          if (i > 0) canon += ";";
          canon += CanonPred(node.predicates[i],
                             node.child_left->output_columns);
        }
        canon += ")(" + out->canonical[node.child_left.get()] + ")";
        tables = out->tables[node.child_left.get()];
        break;
      }
      case PlanNode::Kind::kJoin: {
        MMDB_CHECK(node.child_left != nullptr && node.child_right != nullptr);
        walk(*node.child_left);
        walk(*node.child_right);
        const PlanNode& build =
            node.build_is_right ? *node.child_right : *node.child_left;
        const PlanNode& probe =
            node.build_is_right ? *node.child_left : *node.child_right;
        const ColumnRef& build_col =
            node.build_is_right ? node.join.right : node.join.left;
        const ColumnRef& probe_col =
            node.build_is_right ? node.join.left : node.join.right;
        canon = CanonJoin(node.algorithm, out->canonical[&build],
                          out->canonical[&probe],
                          ResolvePos(build.output_columns, build_col),
                          ResolvePos(probe.output_columns, probe_col));
        tables = out->tables[node.child_left.get()];
        const auto& rt = out->tables[node.child_right.get()];
        tables.insert(tables.end(), rt.begin(), rt.end());
        break;
      }
      case PlanNode::Kind::kProject: {
        MMDB_CHECK(node.child_left != nullptr);
        walk(*node.child_left);
        canon = "proj(";
        for (size_t i = 0; i < node.projection.size(); ++i) {
          if (i > 0) canon += ",";
          const int pos =
              ResolvePos(node.child_left->output_columns, node.projection[i]);
          canon += pos >= 0 ? "#" + std::to_string(pos)
                            : "$" + node.projection[i].column;
        }
        canon += ")(" + out->canonical[node.child_left.get()] + ")";
        tables = out->tables[node.child_left.get()];
        break;
      }
    }
    std::sort(tables.begin(), tables.end());
    tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
    out->canonical[&node] = std::move(canon);
    out->tables[&node] = std::move(tables);
  };
  walk(root);
}

bool ReuseCache::HasResult(const std::string& fp) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fp);
  return it != entries_.end() && it->second.result != nullptr;
}

std::shared_ptr<const Relation> ReuseCache::LookupResult(
    const std::string& fp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fp);
  if (it == entries_.end() || it->second.result == nullptr) {
    counters_.Add(kMisses);
    return nullptr;
  }
  counters_.Add(kHits);
  it->second.tick = ++tick_;
  return it->second.result;
}

bool ReuseCache::InstallResult(const std::string& fp,
                               const std::vector<std::string>& tables,
                               const Relation& result, double cost_seconds) {
  return InstallResult(fp, tables, RowView(&result), cost_seconds);
}

bool ReuseCache::InstallResult(const std::string& fp,
                               const std::vector<std::string>& tables,
                               const RowView& view, double cost_seconds) {
  {
    // Decide before paying for the copy, on the bytes the copy allocates.
    std::lock_guard<std::mutex> lock(mu_);
    if (RefusedLocked(Relation::ReservedBytes(view.schema(), view.size()),
                      cost_seconds)) {
      return false;
    }
  }
  Entry entry;
  entry.result = std::make_shared<const Relation>(view.Materialize());
  entry.tables = tables;
  entry.bytes = entry.result->allocated_bytes();
  entry.cost_seconds = cost_seconds;
  std::lock_guard<std::mutex> lock(mu_);
  return AdmitLocked(fp, std::move(entry));
}

std::string ReuseCache::BuildKey(const std::string& build_fp, int key_column) {
  return "build#" + std::to_string(key_column) + "(" + build_fp + ")";
}

bool ReuseCache::HasBuild(const std::string& build_fp, int key_column) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(BuildKey(build_fp, key_column));
  return it != entries_.end() && it->second.build != nullptr;
}

std::shared_ptr<const CachedBuild> ReuseCache::LookupBuild(
    const std::string& build_fp, int key_column) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(BuildKey(build_fp, key_column));
  if (it == entries_.end() || it->second.build == nullptr) {
    counters_.Add(kMisses);
    return nullptr;
  }
  counters_.Add(kHits);
  counters_.Add(kBuildHits);
  it->second.tick = ++tick_;
  return it->second.build;
}

bool ReuseCache::InstallBuild(const std::string& build_fp, int key_column,
                              const std::vector<std::string>& tables,
                              std::shared_ptr<const CachedBuild> build,
                              double cost_seconds) {
  Entry entry;
  entry.bytes =
      build->records.allocated_bytes() + build->table.allocated_bytes();
  entry.build = std::move(build);
  entry.tables = tables;
  entry.cost_seconds = cost_seconds;
  std::lock_guard<std::mutex> lock(mu_);
  return AdmitLocked(BuildKey(build_fp, key_column), std::move(entry));
}

bool ReuseCache::RefusedLocked(int64_t bytes, double cost_seconds) {
  if (options_.budget_bytes <= 0) return true;
  const int64_t cap = options_.max_entry_bytes > 0
                          ? options_.max_entry_bytes
                          : options_.budget_bytes / 4;
  if (cost_seconds < options_.min_cost_seconds || bytes > cap ||
      bytes > options_.budget_bytes) {
    counters_.Add(kRejected);
    return true;
  }
  return false;
}

bool ReuseCache::AdmitLocked(const std::string& key, Entry entry) {
  if (RefusedLocked(entry.bytes, entry.cost_seconds)) return false;
  // Cost/size admission against the eviction pool: evicting strictly
  // denser entries to fit this one would be a net loss, so refuse instead.
  const double density =
      entry.cost_seconds / double(std::max<int64_t>(1, entry.bytes));
  int64_t reclaimable = options_.budget_bytes - bytes_;
  for (const auto& [k, e] : entries_) {
    const double d = e.cost_seconds / double(std::max<int64_t>(1, e.bytes));
    if (d < density) reclaimable += e.bytes;
  }
  if (reclaimable < entry.bytes) {
    counters_.Add(kRejected);
    return false;
  }
  if (entries_.count(key)) EraseLocked(key);  // refresh in place
  entry.tick = ++tick_;
  bytes_ += entry.bytes;
  for (const std::string& t : entry.tables) by_table_[t].insert(key);
  entries_[key] = std::move(entry);
  counters_.Add(kInstalls);
  // Evict worst-density (oldest-tick tie-break) entries until the budget
  // holds. The new entry is protected: admission proved the math above.
  while (bytes_ > options_.budget_bytes) {
    std::string victim;
    double worst = std::numeric_limits<double>::infinity();
    uint64_t worst_tick = std::numeric_limits<uint64_t>::max();
    for (const auto& [k, e] : entries_) {
      if (k == key) continue;
      const double d = e.cost_seconds / double(std::max<int64_t>(1, e.bytes));
      if (d < worst || (d == worst && e.tick < worst_tick)) {
        worst = d;
        worst_tick = e.tick;
        victim = k;
      }
    }
    if (victim.empty()) break;
    EraseLocked(victim);
    counters_.Add(kEvictions);
  }
  counters_.Set(kBytes, bytes_);
  counters_.Set(kEntries, static_cast<int64_t>(entries_.size()));
  return true;
}

void ReuseCache::EraseLocked(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  bytes_ -= it->second.bytes;
  for (const std::string& t : it->second.tables) {
    auto bt = by_table_.find(t);
    if (bt != by_table_.end()) {
      bt->second.erase(key);
      if (bt->second.empty()) by_table_.erase(bt);
    }
  }
  entries_.erase(it);
  counters_.Set(kBytes, bytes_);
  counters_.Set(kEntries, static_cast<int64_t>(entries_.size()));
}

ReuseCache::Stats ReuseCache::stats() const {
  Stats s;
  s.hits = counters_.Get(kHits);
  s.misses = counters_.Get(kMisses);
  s.build_hits = counters_.Get(kBuildHits);
  s.installs = counters_.Get(kInstalls);
  s.rejected = counters_.Get(kRejected);
  s.bypassed = counters_.Get(kBypassed);
  s.evictions = counters_.Get(kEvictions);
  s.invalidations = counters_.Get(kInvalidations);
  s.invalidated_entries = counters_.Get(kInvalidatedEntries);
  s.bytes = counters_.Get(kBytes);
  s.entries = counters_.Get(kEntries);
  return s;
}

std::string ReuseCache::DebugString() const {
  const Stats s = stats();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "reuse cache: %lld entries, %lld bytes (budget %lld)\n"
      "  hits=%lld (build=%lld) misses=%lld hit_rate=%.1f%%\n"
      "  installs=%lld rejected=%lld bypassed=%lld evictions=%lld\n"
      "  invalidations=%lld (entries dropped=%lld)",
      static_cast<long long>(s.entries), static_cast<long long>(s.bytes),
      static_cast<long long>(options_.budget_bytes),
      static_cast<long long>(s.hits), static_cast<long long>(s.build_hits),
      static_cast<long long>(s.misses),
      s.hits + s.misses > 0 ? 100.0 * double(s.hits) /
                                  double(s.hits + s.misses)
                            : 0.0,
      static_cast<long long>(s.installs), static_cast<long long>(s.rejected),
      static_cast<long long>(s.bypassed), static_cast<long long>(s.evictions),
      static_cast<long long>(s.invalidations),
      static_cast<long long>(s.invalidated_entries));
  return buf;
}

}  // namespace mmdb
