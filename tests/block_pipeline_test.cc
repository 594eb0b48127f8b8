// The executor's block pipeline (DESIGN.md §14) at block boundaries: a
// Filter over a Scan runs its conjunction a block of
// Relation::kBlockRecords records at a time and hands each block's
// survivors to its consumer — the root's materialize, the in-memory hash
// join's probe or the root's GROUP BY fold. Every case here is checked
// against a record-at-a-time oracle built on BoundPredicate::Matches: the
// rows in order and the cost-clock charges.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "optimizer/catalog.h"
#include "optimizer/executor.h"
#include "optimizer/plan.h"
#include "optimizer/predicate.h"

namespace mmdb {
namespace {

constexpr int64_t kBlock = Relation::kBlockRecords;

/// t(i, blk, edge, r, d): i is the ordinal, blk its block, edge 1 on the
/// first and last record of a block, r a join and group key in [0, 40)
/// and d a double in [0, 1).
const std::vector<std::string> kColumns = {"i", "blk", "edge", "r", "d"};

Relation MakeTable(int64_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Relation rel(Schema({Column::Int64("i"), Column::Int64("blk"),
                       Column::Int64("edge"), Column::Int64("r"),
                       Column::Double("d")}));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t at = i % kBlock;
    rel.Add({Value{i}, Value{i / kBlock},
             Value{int64_t{at == 0 || at == kBlock - 1}},
             Value{static_cast<int64_t>(rng() % 40)},
             Value{static_cast<double>(rng() % 1000) / 1000}});
  }
  return rel;
}

/// u(k, w): keys 0..29, the first 15 twice, so a probe key of t matches
/// two, one or (30..39) no build rows.
Relation MakeBuild() {
  Relation rel(Schema({Column::Int64("k"), Column::Int64("w")}));
  for (int64_t j = 0; j < 45; ++j) rel.Add({Value{j % 30}, Value{100 + j}});
  return rel;
}

int ColumnOf(const std::string& name) {
  for (size_t c = 0; c < kColumns.size(); ++c) {
    if (kColumns[c] == name) return static_cast<int>(c);
  }
  return -1;
}

Predicate Pred(const std::string& column, CmpOp op, Value literal) {
  return Predicate{"t", column, op, std::move(literal)};
}

std::unique_ptr<PlanNode> ScanOf(const std::string& table,
                                 const std::vector<std::string>& columns) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kScan;
  node->table = table;
  for (const std::string& c : columns) {
    node->output_columns.push_back({table, c});
  }
  return node;
}

std::unique_ptr<PlanNode> FilterOver(std::unique_ptr<PlanNode> child,
                                     std::vector<Predicate> preds) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kFilter;
  node->predicates = std::move(preds);
  node->output_columns = child->output_columns;
  node->child_left = std::move(child);
  return node;
}

/// What the record-at-a-time oracle expects of Filter(preds) over t: the
/// survivors' ordinals in table order and one Comp per predicate
/// evaluated with early exit.
struct Oracle {
  std::vector<int64_t> survivors;
  int64_t comps = 0;
};

Oracle RunOracle(const Relation& t, const std::vector<Predicate>& preds) {
  std::vector<BoundPredicate> bound;
  for (const Predicate& p : preds) {
    bound.emplace_back(p, t.schema(), ColumnOf(p.column));
  }
  Oracle o;
  for (int64_t i = 0; i < t.num_tuples(); ++i) {
    bool pass = true;
    for (const BoundPredicate& p : bound) {
      ++o.comps;
      if (!p.Matches(t.record(i))) {
        pass = false;
        break;
      }
    }
    if (pass) o.survivors.push_back(i);
  }
  return o;
}

std::vector<std::string> RowStrings(const Relation& rel) {
  std::vector<std::string> out;
  for (const Row& row : rel.rows()) out.push_back(RowToString(row));
  return out;
}

/// One table size and conjunction, run through the three consumers.
class BlockPipelineTest : public ::testing::Test {
 protected:
  void SetUpTable(int64_t n) {
    table_ = MakeTable(n, 1000 + static_cast<uint64_t>(n));
    catalog_ = std::make_unique<Catalog>();
    ASSERT_TRUE(catalog_->RegisterTable("t", &table_).ok());
    ASSERT_TRUE(catalog_->RegisterTable("u", &build_).ok());
  }

  /// Project(d, i) over Filter(preds) over Scan(t): the survivors, copied
  /// through a column map, at the root.
  void ExpectMaterialize(const std::vector<Predicate>& preds,
                         const std::string& what) {
    const Oracle o = RunOracle(table_, preds);
    Relation want(table_.schema().Select({4, 0}));
    for (int64_t ord : o.survivors) {
      const Row row = table_.RowAt(ord);
      want.Add({row[4], row[0]});
    }
    auto project = std::make_unique<PlanNode>();
    project->kind = PlanNode::Kind::kProject;
    project->projection = {{"t", "d"}, {"t", "i"}};
    project->output_columns = project->projection;
    project->child_left = FilterOver(ScanOf("t", kColumns), preds);
    ExecEnv env;
    auto got = ExecutePlan(*project, *catalog_, &env.ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(RowStrings(*got), RowStrings(want)) << what;
    EXPECT_EQ(env.clock.counters().comparisons, o.comps) << what;
    EXPECT_EQ(env.clock.counters().hashes, 0) << what;
    EXPECT_EQ(env.metrics.Get("exec.filter.rows_in"), table_.num_tuples())
        << what;
    EXPECT_EQ(env.metrics.Get("exec.filter.rows_out"),
              static_cast<int64_t>(o.survivors.size()))
        << what;
  }

  /// Join[hybrid](Scan(u) build, Filter(preds) over Scan(t) probe) on
  /// u.k = t.r: each survivor probes the table while its block is in
  /// cache. The oracle's probe: build rows in insertion order per
  /// survivor, one Comp per build row of the key or one for a miss.
  void ExpectProbe(const std::vector<Predicate>& preds,
                   const std::string& what) {
    const Oracle o = RunOracle(table_, preds);
    Relation want(Schema::Concat(build_.schema(), table_.schema()));
    int64_t probe_comps = 0;
    for (int64_t ord : o.survivors) {
      const int64_t key = std::get<int64_t>(table_.RowAt(ord)[3]);
      int64_t matches = 0;
      for (int64_t j = 0; j < build_.num_tuples(); ++j) {
        if (std::get<int64_t>(build_.RowAt(j)[0]) != key) continue;
        ++matches;
        char* dst = want.AppendRecord();
        std::memcpy(dst, build_.record(j), build_.schema().record_size());
        std::memcpy(dst + build_.schema().record_size(), table_.record(ord),
                    table_.schema().record_size());
      }
      probe_comps += matches == 0 ? 1 : matches;
    }
    auto join = std::make_unique<PlanNode>();
    join->kind = PlanNode::Kind::kJoin;
    join->algorithm = JoinAlgorithm::kHybridHash;
    join->join = {{"u", "k"}, {"t", "r"}};
    join->child_left = ScanOf("u", {"k", "w"});
    join->child_right = FilterOver(ScanOf("t", kColumns), preds);
    join->output_columns = join->child_left->output_columns;
    for (const ColumnRef& c : join->child_right->output_columns) {
      join->output_columns.push_back(c);
    }
    ExecEnv env;
    PlanRunTrace trace;
    auto got = ExecutePlan(*join, *catalog_, &env.ctx, nullptr, &trace);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(RowStrings(*got), RowStrings(want)) << what;
    const CostCounters& c = env.clock.counters();
    EXPECT_EQ(c.comparisons, o.comps + probe_comps) << what;
    EXPECT_EQ(c.hashes, build_.num_tuples() +
                            static_cast<int64_t>(o.survivors.size()))
        << what;
    EXPECT_EQ(c.moves, build_.num_tuples()) << what;
    EXPECT_EQ(env.metrics.Get("exec.join.probe_tuples"),
              static_cast<int64_t>(o.survivors.size()))
        << what;
    // EXPLAIN ANALYZE credits the filter's work to the Filter node, which
    // its consumer ran inside the join's window.
    const PlanNodeRunStats& filter = trace.nodes[join->child_right.get()];
    const PlanNodeRunStats& joined = trace.nodes[join.get()];
    EXPECT_EQ(filter.rows_out, static_cast<int64_t>(o.survivors.size()))
        << what;
    EXPECT_EQ(filter.comparisons, o.comps) << what;
    EXPECT_EQ(joined.comparisons, o.comps + probe_comps) << what;
    EXPECT_EQ(joined.rows_out, want.num_tuples()) << what;
    EXPECT_GE(joined.wall_ns, filter.wall_ns) << what;
  }

  /// Filter(preds) over Scan(t) grouped at the root on `group_by` with
  /// COUNT and SUM(d), folded as the blocks' survivors arrive. The oracle
  /// groups in first-seen order; a row costs one Comp when its group
  /// already exists (no two of these keys share a hash) and each group
  /// one Move.
  void ExpectFold(const std::vector<Predicate>& preds,
                  const std::vector<int>& group_by, const std::string& what) {
    const Oracle o = RunOracle(table_, preds);
    std::map<std::vector<int64_t>, size_t> index;
    std::vector<std::vector<int64_t>> keys;
    std::vector<int64_t> counts;
    std::vector<double> sums;
    int64_t fold_comps = 0;
    for (int64_t ord : o.survivors) {
      const Row row = table_.RowAt(ord);
      std::vector<int64_t> key;
      for (int c : group_by) key.push_back(std::get<int64_t>(row[size_t(c)]));
      auto [it, added] = index.emplace(key, keys.size());
      if (added) {
        keys.push_back(key);
        counts.push_back(0);
        sums.push_back(0);
      } else {
        ++fold_comps;
      }
      ++counts[it->second];
      sums[it->second] += std::get<double>(row[4]);
    }
    AggregateSpec spec;
    spec.group_by = group_by;
    spec.aggregates = {{AggFn::kCount, 0, "n"}, {AggFn::kSum, 4, "s"}};
    std::vector<Column> cols = table_.schema().Select(group_by).columns();
    cols.push_back(Column::Int64("n"));
    cols.push_back(Column::Double("s"));
    Relation want{Schema(std::move(cols))};
    for (size_t g = 0; g < keys.size(); ++g) {
      Row row;
      for (int64_t k : keys[g]) row.emplace_back(k);
      row.emplace_back(counts[g]);
      row.emplace_back(sums[g]);
      want.Add(std::move(row));
    }
    const auto plan = FilterOver(ScanOf("t", kColumns), preds);
    ExecEnv env;
    AggStats stats;
    auto got = ExecutePlan(*plan, *catalog_, &env.ctx, nullptr, nullptr,
                           &spec, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(stats.one_pass) << what;
    EXPECT_EQ(RowStrings(*got), RowStrings(want)) << what;
    const CostCounters& c = env.clock.counters();
    EXPECT_EQ(c.comparisons, o.comps + fold_comps) << what;
    EXPECT_EQ(c.hashes, static_cast<int64_t>(o.survivors.size())) << what;
    EXPECT_EQ(c.moves, static_cast<int64_t>(keys.size())) << what;
    EXPECT_EQ(env.metrics.Get("exec.agg.input_tuples"),
              static_cast<int64_t>(o.survivors.size()))
        << what;
  }

  Relation table_;
  Relation build_ = MakeBuild();
  std::unique_ptr<Catalog> catalog_;
};

/// Conjunctions of one to three predicates: survivors only at block
/// edges, none in the middle block, scattered, and none at all.
std::vector<std::vector<Predicate>> Conjunctions() {
  return {
      {Pred("edge", CmpOp::kEq, Value{int64_t{1}})},
      {Pred("blk", CmpOp::kNe, Value{int64_t{1}})},
      {Pred("r", CmpOp::kLt, Value{int64_t{20}})},
      {Pred("r", CmpOp::kLt, Value{int64_t{20}}),
       Pred("d", CmpOp::kGt, Value{0.25})},
      {Pred("edge", CmpOp::kEq, Value{int64_t{0}}),
       Pred("r", CmpOp::kGe, Value{int64_t{5}}),
       Pred("d", CmpOp::kLt, Value{0.9})},
      {Pred("blk", CmpOp::kNe, Value{int64_t{1}}),
       Pred("edge", CmpOp::kEq, Value{int64_t{1}})},
      {Pred("r", CmpOp::kLt, Value{int64_t{0}})},
  };
}

std::string Describe(int64_t n, const std::vector<Predicate>& preds) {
  std::string out = "rows " + std::to_string(n) + ":";
  for (const Predicate& p : preds) out += " " + p.ToString();
  return out;
}

const int64_t kSizes[] = {0, 1, kBlock - 1, kBlock, kBlock + 1,
                          2 * kBlock + 1};

TEST_F(BlockPipelineTest, FilterIntoMaterializeMatchesOracle) {
  for (const int64_t n : kSizes) {
    SetUpTable(n);
    for (const auto& preds : Conjunctions()) {
      ExpectMaterialize(preds, Describe(n, preds));
    }
  }
}

TEST_F(BlockPipelineTest, FilterIntoProbeMatchesOracle) {
  for (const int64_t n : kSizes) {
    SetUpTable(n);
    for (const auto& preds : Conjunctions()) {
      ExpectProbe(preds, Describe(n, preds));
    }
  }
}

TEST_F(BlockPipelineTest, FilterIntoGroupByMatchesOracle) {
  for (const int64_t n : kSizes) {
    SetUpTable(n);
    for (const auto& preds : Conjunctions()) {
      // One INT64 key (one group per chain) and a two-column key.
      ExpectFold(preds, {3}, Describe(n, preds) + " by r");
      ExpectFold(preds, {3, 2}, Describe(n, preds) + " by r, edge");
    }
  }
}

TEST_F(BlockPipelineTest, EmptyMiddleBlockHandsOnTheOuterBlocksOnly) {
  SetUpTable(2 * kBlock + 1);
  const std::vector<Predicate> preds = {
      Pred("blk", CmpOp::kNe, Value{int64_t{1}})};
  const Oracle o = RunOracle(table_, preds);
  ASSERT_EQ(static_cast<int64_t>(o.survivors.size()), kBlock + 1);
  ASSERT_EQ(o.survivors[size_t(kBlock - 1)], kBlock - 1);
  ASSERT_EQ(o.survivors[size_t(kBlock)], 2 * kBlock);
  // The block source itself: one SelectBlocks call per block, the middle
  // one with no survivor and so not handed on.
  std::vector<BoundPredicate> bound;
  bound.emplace_back(preds[0], table_.schema(), 1);
  std::vector<int64_t> got;
  std::vector<int64_t> sizes;
  int64_t comps = 0;
  SelectBlocks(table_, nullptr, table_.num_tuples(), bound, &comps,
               [&](const int64_t* ords, int64_t k) {
                 sizes.push_back(k);
                 got.insert(got.end(), ords, ords + k);
               });
  EXPECT_EQ(got, o.survivors);
  EXPECT_EQ(sizes, (std::vector<int64_t>{kBlock, 1}));
  EXPECT_EQ(comps, o.comps);
}

TEST_F(BlockPipelineTest, SelectBlocksReadsASelectionInBlocks) {
  // A filter over a view that already selects (a selection's ordinals,
  // not a range of records), as over an index scan without an index.
  SetUpTable(2 * kBlock + 1);
  std::vector<int64_t> sel;
  for (int64_t i = 0; i < table_.num_tuples(); i += 2) sel.push_back(i);
  std::vector<BoundPredicate> bound;
  const Predicate r = Pred("r", CmpOp::kLt, Value{int64_t{20}});
  const Predicate d = Pred("d", CmpOp::kGt, Value{0.25});
  bound.emplace_back(r, table_.schema(), 3);
  bound.emplace_back(d, table_.schema(), 4);
  std::vector<int64_t> want;
  int64_t want_comps = 0;
  for (int64_t ord : sel) {
    ++want_comps;
    if (!bound[0].Matches(table_.record(ord))) continue;
    ++want_comps;
    if (bound[1].Matches(table_.record(ord))) want.push_back(ord);
  }
  std::vector<int64_t> got;
  int64_t comps = 0;
  SelectBlocks(table_, sel.data(), static_cast<int64_t>(sel.size()), bound,
               &comps, [&](const int64_t* ords, int64_t k) {
                 EXPECT_LE(k, kBlock);
                 got.insert(got.end(), ords, ords + k);
               });
  EXPECT_EQ(got, want);
  EXPECT_EQ(comps, want_comps);
}

TEST_F(BlockPipelineTest, IndexScanWithoutIndexFiltersInBlocks) {
  // With no index provider an IndexScan degrades to a filter over the
  // table; a Filter above it reads its survivors collected.
  SetUpTable(2 * kBlock + 1);
  auto index_scan = ScanOf("t", kColumns);
  index_scan->kind = PlanNode::Kind::kIndexScan;
  index_scan->predicates = {Pred("edge", CmpOp::kEq, Value{int64_t{0}})};
  const std::vector<Predicate> residual = {
      Pred("r", CmpOp::kLt, Value{int64_t{20}})};
  const auto plan = FilterOver(std::move(index_scan), residual);
  const Oracle o = RunOracle(
      table_, {Pred("edge", CmpOp::kEq, Value{int64_t{0}}), residual[0]});
  Relation want(table_.schema());
  for (int64_t ord : o.survivors) want.Append(table_.record(ord));
  ExecEnv env;
  auto got = ExecutePlan(*plan, *catalog_, &env.ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(RowStrings(*got), RowStrings(want));
  EXPECT_EQ(env.clock.counters().comparisons, o.comps);
}

}  // namespace
}  // namespace mmdb
