// Differential suite for late materialization (DESIGN.md §14): Filter and
// Project pass row references, and the aggregate, DISTINCT and the
// in-memory hybrid hash join read them in place. For SQL filter+project,
// GROUP BY, DISTINCT and join statements, the view path must return the
// bytes, in the order, that the materializing paths return: the reuse
// cache, and HashAggregate / ExecuteJoin called directly on the
// materialized inputs — the last with the same cost-clock totals and the
// same exec.* counters.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "cache/reuse_cache.h"
#include "db/query_parser.h"
#include "optimizer/executor.h"
#include "optimizer/optimizer.h"
#include "storage/datagen.h"

namespace mmdb {
namespace {

std::vector<std::string> RowStrings(const Relation& rel) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(rel.num_tuples()));
  for (const Row& row : rel.rows()) out.push_back(RowToString(row));
  return out;
}

/// r(key, payload, pad) and s(key, payload, pad), s.key drawn from r's
/// key range so the join fans out.
struct Tables {
  explicit Tables(uint64_t seed) {
    GenOptions r_opts;
    r_opts.num_tuples = 1'500;
    r_opts.tuple_width = 48;
    r_opts.seed = seed * 2 + 1;
    r = MakeKeyedRelation(r_opts);
    GenOptions s_opts;
    s_opts.num_tuples = 4'000;
    s_opts.tuple_width = 40;
    s_opts.distribution =
        seed % 2 == 0 ? KeyDistribution::kUniform : KeyDistribution::kZipf;
    s_opts.key_range = r_opts.num_tuples;
    s_opts.seed = seed * 2 + 2;
    s = MakeKeyedRelation(s_opts);
    EXPECT_TRUE(catalog.RegisterTable("r", &r).ok());
    EXPECT_TRUE(catalog.RegisterTable("s", &s).ok());
  }

  Relation r;
  Relation s;
  Catalog catalog;
};

/// A parsed SELECT with its terminal aggregate (GROUP BY, or DISTINCT,
/// which the parser turns into grouping on every selected column), the way
/// Database runs it.
struct Statement {
  Query query;
  std::optional<AggregateSpec> aggregate;

  const AggregateSpec* spec() const {
    return aggregate.has_value() ? &*aggregate : nullptr;
  }
};

Statement Parse(const std::string& sql, const Catalog& catalog) {
  StatusOr<ParsedStatement> parsed = ParseStatement(sql, catalog);
  EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
  Statement st;
  if (!parsed.ok()) return st;
  st.query = parsed->query;
  st.aggregate = parsed->aggregate;
  return st;
}

const char* const kStatements[] = {
    // Filter + project over one table.
    "SELECT key, payload FROM r WHERE payload < 600",
    "SELECT pad, key FROM s WHERE key >= 100 AND payload != 7",
    // Joins, probe side filtered, projected and not.
    "SELECT r.key, s.payload, r.pad FROM r, s "
    "WHERE r.key = s.key AND s.payload > 300",
    "SELECT * FROM r, s WHERE r.key = s.key AND r.payload < 900",
    // GROUP BY over a filter and over a join.
    "SELECT payload, COUNT(*), SUM(key), MIN(pad), MAX(key), AVG(key) "
    "FROM s WHERE key < 700 GROUP BY payload",
    "SELECT s.key, COUNT(*), SUM(r.payload), MAX(s.pad) FROM r, s "
    "WHERE r.key = s.key AND r.payload < 900 GROUP BY s.key",
    "SELECT COUNT(*), SUM(payload) FROM r WHERE key > 10",
    // DISTINCT over a filter and over a join.
    "SELECT DISTINCT payload FROM s WHERE key < 1000",
    "SELECT DISTINCT r.payload, s.payload FROM r, s "
    "WHERE r.key = s.key AND s.key < 400",
};

OptimizerOptions BaseOptions() {
  OptimizerOptions opts;
  opts.memory_pages = 4096;
  opts.hash_only = true;
  return opts;
}

struct RunOutcome {
  std::vector<std::string> rows;
  CostCounters counters;
  std::string metrics;
};

RunOutcome RunStatement(const Statement& st, const Catalog& catalog,
                 const OptimizerOptions& opts, ExecEnv* env) {
  RunOutcome run;
  auto result = RunQuery(st.query, catalog, opts, &env->ctx, nullptr,
                         nullptr, st.spec());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return run;
  run.rows = RowStrings(result->relation);
  run.counters = env->clock.counters();
  run.metrics = env->metrics.ToJson();
  return run;
}

class SqlViewDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlViewDifferentialTest, ViewPathMatchesEveryMaterializingPath) {
  Tables t(GetParam());
  ReuseCache cache;
  for (const char* sql : kStatements) {
    SCOPED_TRACE(sql);
    const Statement st = Parse(sql, t.catalog);
    ExecEnv base_env(4096);
    const RunOutcome base = RunStatement(st, t.catalog, BaseOptions(), &base_env);
    ASSERT_FALSE(base.rows.empty());

    // Reuse cache, transparent: a cold run installs, a warm run serves.
    OptimizerOptions cached = BaseOptions();
    cached.reuse_cache = &cache;
    cached.reuse_cost_discounts = false;
    for (int pass = 0; pass < 2; ++pass) {
      ExecEnv env(4096);
      env.ctx.reuse_cache = &cache;
      EXPECT_EQ(RunStatement(st, t.catalog, cached, &env).rows, base.rows)
          << "reuse pass " << pass;
    }

    if (st.aggregate.has_value()) {
      // The materializing reference: HashAggregate over the relation the
      // plan returns — same bytes, order, charges and counters.
      ExecEnv ref_env(4096);
      auto input = RunQuery(st.query, t.catalog, BaseOptions(), &ref_env.ctx);
      ASSERT_TRUE(input.ok());
      auto groups = HashAggregate(input->relation, *st.aggregate,
                                  &ref_env.ctx);
      ASSERT_TRUE(groups.ok());
      EXPECT_EQ(RowStrings(*groups), base.rows);
      EXPECT_EQ(ref_env.clock.counters(), base.counters);
      EXPECT_EQ(ref_env.metrics.ToJson(), base.metrics);
    }
  }
}

/// The join node under an optional root projection.
const PlanNode* FindJoin(const PlanNode& plan) {
  if (plan.kind == PlanNode::Kind::kJoin) return &plan;
  return plan.child_left != nullptr ? FindJoin(*plan.child_left) : nullptr;
}

int Position(const std::vector<ColumnRef>& columns, const ColumnRef& ref) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == ref) return static_cast<int>(i);
  }
  return -1;
}

TEST_P(SqlViewDifferentialTest, JoinCountersMatchDirectExecuteJoin) {
  Tables t(GetParam());
  const Statement st = Parse(
      "SELECT * FROM r, s WHERE r.key = s.key AND s.payload < 500 "
      "AND r.payload > 100",
      t.catalog);
  Optimizer optimizer(&t.catalog, BaseOptions());
  auto plan = optimizer.Optimize(st.query);
  ASSERT_TRUE(plan.ok());
  const PlanNode* join = FindJoin(**plan);
  ASSERT_NE(join, nullptr);
  ASSERT_EQ(join->algorithm, JoinAlgorithm::kHybridHash);

  ExecEnv view_env(4096);
  auto view = ExecutePlan(**plan, t.catalog, &view_env.ctx);
  ASSERT_TRUE(view.ok());

  // The same join on materialized inputs: both filtered children
  // executed (and copied) on their own, then ExecuteJoin.
  const PlanNode& bnode =
      join->build_is_right ? *join->child_right : *join->child_left;
  const PlanNode& pnode =
      join->build_is_right ? *join->child_left : *join->child_right;
  ExecEnv direct_env(4096);
  auto probe = ExecutePlan(pnode, t.catalog, &direct_env.ctx);
  auto build = ExecutePlan(bnode, t.catalog, &direct_env.ctx);
  ASSERT_TRUE(probe.ok() && build.ok());
  JoinSpec spec;
  spec.left_column = Position(
      bnode.output_columns,
      join->build_is_right ? join->join.right : join->join.left);
  spec.right_column = Position(
      pnode.output_columns,
      join->build_is_right ? join->join.left : join->join.right);
  auto direct = ExecuteJoin(join->algorithm, *build, *probe, spec,
                            &direct_env.ctx);
  ASSERT_TRUE(direct.ok());

  EXPECT_EQ(RowStrings(*view), RowStrings(*direct));
  EXPECT_EQ(view_env.clock.counters(), direct_env.clock.counters());
  EXPECT_EQ(view_env.metrics.ToJson(), direct_env.metrics.ToJson());
  EXPECT_EQ(view_env.metrics.Get("exec.join.runs"), 1);
  EXPECT_GT(view_env.metrics.Get("exec.filter.rows_in"),
            view_env.metrics.Get("exec.filter.rows_out"));
}

/// Scan(name) with its table's columns.
std::unique_ptr<PlanNode> ScanNode(const std::string& name) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kScan;
  node->table = name;
  for (const char* c : {"key", "payload", "pad"}) {
    node->output_columns.push_back({name, c});
  }
  return node;
}

// A Filter above a join narrows rows the join owns. The selection points
// into the join's output, which must stay put while the NodeResult holding
// it moves up the plan (run under ASan, a dangling pointer fails here).
TEST_P(SqlViewDifferentialTest, FilterOverOwnedJoinOutputOutlivesMoves) {
  Tables t(GetParam());
  auto join = std::make_unique<PlanNode>();
  join->kind = PlanNode::Kind::kJoin;
  join->algorithm = JoinAlgorithm::kHybridHash;
  join->join = {{"r", "key"}, {"s", "key"}};
  join->child_left = ScanNode("r");
  join->child_right = ScanNode("s");
  join->output_columns = join->child_left->output_columns;
  for (const ColumnRef& c : join->child_right->output_columns) {
    join->output_columns.push_back(c);
  }
  auto filter = std::make_unique<PlanNode>();
  filter->kind = PlanNode::Kind::kFilter;
  Predicate pred;
  pred.table = "s";
  pred.column = "payload";
  pred.op = CmpOp::kLt;
  pred.literal = Value{int64_t{400}};
  filter->predicates = {pred};
  filter->output_columns = join->output_columns;
  filter->child_left = std::move(join);
  PlanNode project;
  project.kind = PlanNode::Kind::kProject;
  project.projection = {{"s", "payload"}, {"r", "key"}, {"s", "pad"}};
  project.output_columns = project.projection;
  project.child_left = std::move(filter);

  // Reference: the same steps on materialized relations.
  ExecEnv ref_env(4096);
  JoinSpec spec;
  auto joined = ExecuteJoin(JoinAlgorithm::kHybridHash, t.r, t.s, spec,
                            &ref_env.ctx);
  ASSERT_TRUE(joined.ok());
  Relation expected(joined->schema().Select({4, 0, 5}));
  for (const Row& row : joined->rows()) {
    if (std::get<int64_t>(row[4]) < 400) {
      expected.Add({row[4], row[0], row[5]});
    }
  }
  ASSERT_GT(expected.num_tuples(), 0);

  ExecEnv env(4096);
  auto out = ExecutePlan(project, t.catalog, &env.ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(RowStrings(*out), RowStrings(expected));

  // And grouped straight from that view.
  AggregateSpec agg;
  agg.group_by = {0};
  agg.aggregates = {{AggFn::kCount, 0, "n"}, {AggFn::kMax, 2, "pad"}};
  ExecEnv agg_env(4096);
  auto groups = ExecutePlan(project, t.catalog, &agg_env.ctx, nullptr,
                            nullptr, &agg);
  ASSERT_TRUE(groups.ok());
  ExecEnv direct_env(4096);
  auto direct = HashAggregate(expected, agg, &direct_env.ctx);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(RowStrings(*groups), RowStrings(*direct));
}

// A view is offered to the reuse cache as it is: its bytes are exact
// record arithmetic, the cost floor and the size cap each refuse it (and
// count once) without installing anything, and an admitted offer holds
// exactly the view's rows, selection and column map applied.
TEST(SqlViewReuseOfferTest, RefusesOnExactBytesAndInstallsTheViewRows) {
  ReuseCache::Options options;
  options.min_cost_seconds = 1.0;
  options.max_entry_bytes = 1000;
  ReuseCache cache(options);
  const Relation rel = MakeKeyedRelation(GenOptions{});
  RowView view(&rel);
  view.Select({3, 1, 4});
  view.Project({1});
  const int64_t bytes = Relation::ReservedBytes(view.schema(), view.size());
  EXPECT_EQ(bytes, int64_t(sizeof(Relation)) + 3 * 8);
  EXPECT_EQ(bytes, view.Materialize().allocated_bytes());
  EXPECT_FALSE(cache.InstallResult("below-floor", {"r"}, view, 0.5));
  EXPECT_FALSE(cache.InstallResult("oversized", {"r"}, RowView(&rel), 2.0));
  EXPECT_EQ(cache.stats().rejected, 2);
  EXPECT_EQ(cache.stats().entries, 0);
  ASSERT_TRUE(cache.InstallResult("admitted", {"r"}, view, 2.0));
  EXPECT_EQ(cache.stats().bytes, bytes);
  auto hit = cache.LookupResult("admitted");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(RowStrings(*hit), RowStrings(view.Materialize()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlViewDifferentialTest,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

}  // namespace
}  // namespace mmdb
