// Unit tests for the plan-fingerprint reuse cache (DESIGN.md §15):
// canonical-fingerprint collision/divergence properties, cost-based
// admission with density eviction, and table-version invalidation.

#include "cache/reuse_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace mmdb {
namespace {

// ---- Plan scaffolding: fingerprints read only the plan tree, so tests
// build trees by hand without tables behind them.

std::unique_ptr<PlanNode> Scan(const std::string& table,
                               const std::string& tag) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kScan;
  node->table = table;
  node->output_columns = {{tag, "key"}, {tag, "payload"}, {tag, "pad"}};
  return node;
}

std::unique_ptr<PlanNode> Filter(std::unique_ptr<PlanNode> child,
                                 const std::string& pred_table,
                                 const std::string& column, CmpOp op,
                                 Value literal) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kFilter;
  Predicate pred;
  pred.table = pred_table;
  pred.column = column;
  pred.op = op;
  pred.literal = std::move(literal);
  node->predicates.push_back(std::move(pred));
  node->output_columns = child->output_columns;
  node->child_left = std::move(child);
  return node;
}

std::unique_ptr<PlanNode> Join(std::unique_ptr<PlanNode> left,
                               std::unique_ptr<PlanNode> right,
                               const JoinClause& clause,
                               bool build_is_right) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kJoin;
  node->algorithm = JoinAlgorithm::kHybridHash;
  node->join = clause;
  node->build_is_right = build_is_right;
  const auto& b_cols = build_is_right ? right->output_columns
                                      : left->output_columns;
  const auto& p_cols = build_is_right ? left->output_columns
                                      : right->output_columns;
  node->output_columns = b_cols;
  node->output_columns.insert(node->output_columns.end(), p_cols.begin(),
                              p_cols.end());
  node->child_left = std::move(left);
  node->child_right = std::move(right);
  return node;
}

std::string Fp(const ReuseCache& cache, const PlanNode& root) {
  ReuseCache::Fingerprints fps;
  cache.FingerprintPlan(root, &fps);
  return fps.canonical.at(&root);
}

Relation SmallRelation(int64_t rows) {
  Schema schema({{"key", ValueType::kInt64, 8}});
  Relation rel(schema);
  for (int64_t i = 0; i < rows; ++i) rel.Add(Row{Value{i}});
  return rel;
}

// ---- Fingerprint properties -------------------------------------------

TEST(ReuseCacheFingerprint, AliasRenamedPlansCollide) {
  ReuseCache cache;
  // Same table and structure; the second plan tags its column refs with an
  // alias. Positional canonicalization must make them collide.
  auto a = Filter(Scan("r", "r"), "r", "payload", CmpOp::kLt, Value{int64_t{7}});
  auto b = Filter(Scan("r", "e"), "e", "payload", CmpOp::kLt, Value{int64_t{7}});
  EXPECT_EQ(Fp(cache, *a), Fp(cache, *b));
}

TEST(ReuseCacheFingerprint, DifferingConstantsDiverge) {
  ReuseCache cache;
  auto a = Filter(Scan("r", "r"), "r", "payload", CmpOp::kLt, Value{int64_t{7}});
  auto b = Filter(Scan("r", "r"), "r", "payload", CmpOp::kLt, Value{int64_t{8}});
  EXPECT_NE(Fp(cache, *a), Fp(cache, *b));
  // Type-tagged literals: int64 7 is not double 7.0.
  auto c = Filter(Scan("r", "r"), "r", "payload", CmpOp::kLt, Value{7.0});
  EXPECT_NE(Fp(cache, *a), Fp(cache, *c));
  // Operator is part of the rendering.
  auto d = Filter(Scan("r", "r"), "r", "payload", CmpOp::kLe, Value{int64_t{7}});
  EXPECT_NE(Fp(cache, *a), Fp(cache, *d));
}

TEST(ReuseCacheFingerprint, DifferingProjectionsDiverge) {
  ReuseCache cache;
  auto mk = [](std::vector<ColumnRef> cols) {
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanNode::Kind::kProject;
    node->projection = cols;
    node->output_columns = std::move(cols);
    node->child_left = Scan("r", "r");
    return node;
  };
  auto a = mk({{"r", "key"}, {"r", "payload"}});
  auto b = mk({{"r", "payload"}, {"r", "key"}});
  auto c = mk({{"r", "key"}});
  EXPECT_NE(Fp(cache, *a), Fp(cache, *b));
  EXPECT_NE(Fp(cache, *a), Fp(cache, *c));
}

TEST(ReuseCacheFingerprint, TableVersionsDiverge) {
  ReuseCache cache;
  auto plan = Filter(Scan("r", "r"), "r", "key", CmpOp::kGe, Value{int64_t{0}});
  const std::string before = Fp(cache, *plan);
  cache.InvalidateTable("r");
  EXPECT_NE(before, Fp(cache, *plan));
  // An unrelated table's version is not part of this plan's fingerprint.
  const std::string after = Fp(cache, *plan);
  cache.InvalidateTable("s");
  EXPECT_EQ(after, Fp(cache, *plan));
}

TEST(ReuseCacheFingerprint, SwappedChildrenWithSwappedBuildSideCollide) {
  // join(r, s, build=right) and join(s, r, build=left) run the same build
  // and probe and emit identical bytes, so they share a fingerprint.
  ReuseCache cache;
  const JoinClause rs{{"r", "key"}, {"s", "key"}};
  const JoinClause sr{{"s", "key"}, {"r", "key"}};
  auto a = Join(Scan("r", "r"), Scan("s", "s"), rs, /*build_is_right=*/true);
  auto b = Join(Scan("s", "s"), Scan("r", "r"), sr, /*build_is_right=*/false);
  EXPECT_EQ(Fp(cache, *a), Fp(cache, *b));
  // Flipping ONLY the build side changes emission order: must diverge.
  auto c = Join(Scan("r", "r"), Scan("s", "s"), rs, /*build_is_right=*/false);
  EXPECT_NE(Fp(cache, *a), Fp(cache, *c));
}

TEST(ReuseCacheFingerprint, EnvTagSeparatesEnvironments) {
  ReuseCache small, large;
  small.SetEnvTag("m8");
  large.SetEnvTag("m4096");
  const JoinClause rs{{"r", "key"}, {"s", "key"}};
  auto plan = Join(Scan("r", "r"), Scan("s", "s"), rs, true);
  EXPECT_NE(Fp(small, *plan), Fp(large, *plan));
}

TEST(ReuseCacheFingerprint, CanonJoinMatchesFingerprintPlan) {
  // The optimizer composes candidate fingerprints from child fingerprints;
  // the executor fingerprints the finished tree. They must agree.
  ReuseCache cache;
  cache.SetEnvTag("m64");
  const JoinClause rs{{"r", "key"}, {"s", "key"}};
  auto plan = Join(Filter(Scan("r", "r"), "r", "payload", CmpOp::kLt,
                          Value{int64_t{10}}),
                   Scan("s", "s"), rs, /*build_is_right=*/true);
  ReuseCache::Fingerprints fps;
  cache.FingerprintPlan(*plan, &fps);
  const std::string composed = cache.CanonJoin(
      JoinAlgorithm::kHybridHash, fps.canonical.at(plan->child_right.get()),
      fps.canonical.at(plan->child_left.get()), /*build_key_pos=*/0,
      /*probe_key_pos=*/0);
  EXPECT_EQ(composed, fps.canonical.at(plan.get()));
  // Table dependencies: the join depends on both inputs.
  EXPECT_EQ(fps.tables.at(plan.get()),
            (std::vector<std::string>{"r", "s"}));
}

// ---- Admission / eviction / invalidation ------------------------------

TEST(ReuseCacheAdmission, CostFloorRejects) {
  ReuseCache::Options opts;
  opts.budget_bytes = 1 << 20;
  opts.min_cost_seconds = 1e-3;
  ReuseCache cache(opts);
  const Relation rel = SmallRelation(8);
  EXPECT_FALSE(cache.InstallResult("cheap", {"r"}, rel, 1e-6));
  EXPECT_TRUE(cache.InstallResult("costly", {"r"}, rel, 1.0));
  const ReuseCache::Stats s = cache.stats();
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.installs, 1);
  EXPECT_EQ(s.entries, 1);
}

TEST(ReuseCacheAdmission, OversizedEntryRejected) {
  ReuseCache::Options opts;
  opts.budget_bytes = 4096;  // per-entry cap = 1024
  ReuseCache cache(opts);
  EXPECT_FALSE(cache.InstallResult("big", {"r"}, SmallRelation(200), 1.0));
  EXPECT_EQ(cache.stats().rejected, 1);
}

TEST(ReuseCacheAdmission, DensityEvictionPrefersCostPerByte) {
  ReuseCache::Options opts;
  const Relation rel = SmallRelation(10);
  const int64_t bytes = Relation::ReservedBytes(rel.schema(), rel.num_tuples());
  opts.budget_bytes = bytes * 2 + bytes / 2;  // room for two entries
  opts.max_entry_bytes = bytes;
  ReuseCache cache(opts);
  ASSERT_TRUE(cache.InstallResult("low", {"r"}, rel, 0.001));
  ASSERT_TRUE(cache.InstallResult("high", {"r"}, rel, 10.0));
  // A mid-density entry must displace "low", not "high".
  ASSERT_TRUE(cache.InstallResult("mid", {"r"}, rel, 1.0));
  EXPECT_FALSE(cache.HasResult("low"));
  EXPECT_TRUE(cache.HasResult("high"));
  EXPECT_TRUE(cache.HasResult("mid"));
  EXPECT_EQ(cache.stats().evictions, 1);
  // An entry strictly worse than everything resident is refused outright
  // rather than thrashing the better entries out.
  EXPECT_FALSE(cache.InstallResult("worst", {"r"}, rel, 1e-5));
  EXPECT_TRUE(cache.HasResult("high"));
  EXPECT_TRUE(cache.HasResult("mid"));
}

// The bytes the cache charges are the bytes its entries allocate: a
// one-row result holds one record, not a block of them.
TEST(ReuseCacheAdmission, ChargesTheBytesItsEntriesAllocate) {
  ReuseCache::Options opts;
  opts.budget_bytes = 1 << 20;
  ReuseCache cache(opts);
  const Relation one = SmallRelation(1);
  const int kEntries = 500;
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(
        cache.InstallResult("point" + std::to_string(i), {"r"}, one, 1.0));
  }
  int64_t allocated = 0;
  for (int i = 0; i < kEntries; ++i) {
    auto hit = cache.LookupResult("point" + std::to_string(i));
    ASSERT_NE(hit, nullptr);
    allocated += hit->allocated_bytes();
  }
  EXPECT_EQ(cache.stats().entries, kEntries);
  EXPECT_EQ(cache.stats().bytes, allocated);
  EXPECT_EQ(allocated, kEntries * (int64_t(sizeof(Relation)) + 8));
}

// Admission before a run: a node is declined when a table it reads was
// written since the last statement that read it.
TEST(ReuseCacheAdmission, DeclinesNodesOverATableWrittenSinceItsLastRead) {
  ReuseCache cache;
  const JoinClause fd{{"f", "key"}, {"d", "key"}};
  auto plan = Join(Filter(Scan("f", "f"), "f", "payload", CmpOp::kLt,
                          Value{int64_t{10}}),
                   Scan("d", "d"), fd, /*build_is_right=*/true);
  const PlanNode* filter = plan->child_left.get();
  const PlanNode* fact = filter->child_left.get();
  const PlanNode* dim = plan->child_right.get();
  auto run = [&cache, &plan] {
    ReuseCache::Fingerprints fps;
    cache.FingerprintRun(*plan, &fps);
    return fps;
  };
  // Writes before a table's first read do not count: it was never read.
  cache.InvalidateTable("f");
  cache.InvalidateTable("d");
  EXPECT_TRUE(run().declined.empty());
  // A write and then a read: every node over f is declined, d's is not.
  cache.InvalidateTable("f");
  const ReuseCache::Fingerprints after_write = run();
  EXPECT_FALSE(after_write.admitted(plan.get()));
  EXPECT_FALSE(after_write.admitted(filter));
  EXPECT_FALSE(after_write.admitted(fact));
  EXPECT_TRUE(after_write.admitted(dim));
  // A second read with no write in between admits again.
  EXPECT_TRUE(run().declined.empty());
  // The optimizer's costing fingerprint is not a read: the write still
  // declines the next run.
  cache.InvalidateTable("f");
  ReuseCache::Fingerprints costing;
  cache.FingerprintPlan(*plan, &costing);
  EXPECT_TRUE(costing.declined.empty());
  EXPECT_FALSE(run().admitted(filter));
  EXPECT_TRUE(run().admitted(filter));
}

TEST(ReuseCacheInvalidation, DropsDependentsAndBumpsVersion) {
  ReuseCache cache;
  const Relation rel = SmallRelation(4);
  ASSERT_TRUE(cache.InstallResult("fp_r", {"r"}, rel, 1.0));
  ASSERT_TRUE(cache.InstallResult("fp_rs", {"r", "s"}, rel, 1.0));
  ASSERT_TRUE(cache.InstallResult("fp_s", {"s"}, rel, 1.0));
  EXPECT_EQ(cache.TableVersion("r"), 0u);
  cache.InvalidateTable("r");
  EXPECT_EQ(cache.TableVersion("r"), 1u);
  EXPECT_FALSE(cache.HasResult("fp_r"));
  EXPECT_FALSE(cache.HasResult("fp_rs"));
  EXPECT_TRUE(cache.HasResult("fp_s"));
  const ReuseCache::Stats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1);
  EXPECT_EQ(s.invalidated_entries, 2);
  EXPECT_EQ(s.entries, 1);
}

TEST(ReuseCacheBuilds, InstallLookupAndInvalidate) {
  ReuseCache cache;
  Schema schema({{"key", ValueType::kInt64, 8}});
  Relation rows(schema);
  for (int64_t i = 0; i < 16; ++i) rows.Add({Value{i}});
  auto build = std::make_shared<CachedBuild>(std::move(rows), 0);
  ASSERT_TRUE(cache.InstallBuild("scan(r@0)", 0, {"r"}, build, 1.0));
  // Charged the records' blocks and the table's directory, chain links and
  // record addresses.
  EXPECT_EQ(cache.stats().bytes,
            build->records.allocated_bytes() + build->table.allocated_bytes());
  EXPECT_TRUE(cache.HasBuild("scan(r@0)", 0));
  EXPECT_FALSE(cache.HasBuild("scan(r@0)", 1));  // key column is identity
  auto served = cache.LookupBuild("scan(r@0)", 0);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->records.num_tuples(), 16);
  EXPECT_EQ(served->table.size(), 16);
  Relation probe(schema);
  probe.Add({Value{int64_t{5}}});
  int matches = 0;
  served->table.Match(Field::Of(schema, 0), probe.record(0),
                      [&](const char*) { ++matches; });
  EXPECT_EQ(matches, 1);
  cache.InvalidateTable("r");
  EXPECT_FALSE(cache.HasBuild("scan(r@0)", 0));
  const ReuseCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.build_hits, 1);
}

TEST(ReuseCacheStats, HitMissAccountingAndDebugString) {
  ReuseCache cache;
  EXPECT_EQ(cache.LookupResult("nope"), nullptr);
  ASSERT_TRUE(cache.InstallResult("fp", {"r"}, SmallRelation(4), 1.0));
  EXPECT_NE(cache.LookupResult("fp"), nullptr);
  const ReuseCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_GT(s.bytes, 0);
  const std::string dump = cache.DebugString();
  EXPECT_NE(dump.find("hits=1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("bypassed=0"), std::string::npos) << dump;
  EXPECT_NE(dump.find("reuse cache"), std::string::npos) << dump;
}

}  // namespace
}  // namespace mmdb
