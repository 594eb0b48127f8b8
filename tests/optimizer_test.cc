#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include "optimizer/executor.h"
#include "storage/datagen.h"

namespace mmdb {
namespace {

/// A small star schema: orders -> customers, orders -> products.
class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : catalog_(4096) {
    customers_ = Relation(Schema({Column::Int64("cust_id"),
                                  Column::Char("city", 12)}));
    Random rng(5);
    const char* cities[] = {"madison", "berkeley", "fargo"};
    for (int64_t i = 0; i < 100; ++i) {
      customers_.Add({i, std::string(cities[rng.Uniform(3)])});
    }
    products_ = Relation(Schema({Column::Int64("prod_id"),
                                 Column::Double("price")}));
    for (int64_t i = 0; i < 50; ++i) {
      products_.Add({i, double(i) * 1.5});
    }
    orders_ = Relation(Schema({Column::Int64("order_id"),
                               Column::Int64("cust"), Column::Int64("prod"),
                               Column::Int64("qty")}));
    for (int64_t i = 0; i < 2000; ++i) {
      orders_.Add({i, static_cast<int64_t>(rng.Uniform(100)),
                   static_cast<int64_t>(rng.Uniform(50)),
                   static_cast<int64_t>(rng.Uniform(10))});
    }
    MMDB_CHECK(catalog_.RegisterTable("customers", &customers_).ok());
    MMDB_CHECK(catalog_.RegisterTable("products", &products_).ok());
    MMDB_CHECK(catalog_.RegisterTable("orders", &orders_).ok());
  }

  Query StarQuery() const {
    Query q;
    q.tables = {"orders", "customers", "products"};
    q.joins = {{ColumnRef{"orders", "cust"}, ColumnRef{"customers", "cust_id"}},
               {ColumnRef{"orders", "prod"}, ColumnRef{"products", "prod_id"}}};
    return q;
  }

  OptimizerOptions Opts(int64_t memory_pages = 4096) const {
    OptimizerOptions o;
    o.memory_pages = memory_pages;
    return o;
  }

  Catalog catalog_;
  Relation customers_, products_, orders_;
};

TEST_F(OptimizerTest, CatalogStatsAreExact) {
  auto entry = catalog_.Lookup("orders");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->stats.num_tuples, 2000);
  EXPECT_EQ((*entry)->stats.columns[0].num_distinct, 2000);
  EXPECT_EQ((*entry)->stats.columns[2].num_distinct, 50);
  EXPECT_FALSE(catalog_.Lookup("nope").ok());
  EXPECT_EQ(*catalog_.ResolveColumn("products", "price"), 1);
}

TEST_F(OptimizerTest, SelectivityEstimates) {
  auto entry = catalog_.Lookup("orders");
  ASSERT_TRUE(entry.ok());
  Predicate eq{"orders", "qty", CmpOp::kEq, Value{int64_t{3}}};
  EXPECT_NEAR(EstimateSelectivity(eq, **entry), 0.1, 1e-9);
  Predicate lt{"orders", "order_id", CmpOp::kLt, Value{int64_t{500}}};
  EXPECT_NEAR(EstimateSelectivity(lt, **entry), 0.25, 0.01);
  Predicate ge{"orders", "order_id", CmpOp::kGe, Value{int64_t{1500}}};
  EXPECT_NEAR(EstimateSelectivity(ge, **entry), 0.25, 0.01);
}

TEST_F(OptimizerTest, PredicateEvaluation) {
  Row row = {int64_t{5}, std::string("jones_x"), 2.5};
  auto matches = [&row](Predicate p, size_t column) {
    return BoundPredicate(p, column).Matches(row);
  };
  EXPECT_TRUE(matches({"t", "c", CmpOp::kEq, Value{int64_t{5}}}, 0));
  EXPECT_FALSE(matches({"t", "c", CmpOp::kNe, Value{int64_t{5}}}, 0));
  EXPECT_TRUE(matches({"t", "c", CmpOp::kLe, Value{2.5}}, 2));
  EXPECT_TRUE(
      matches({"t", "c", CmpOp::kPrefix, Value{std::string("jones")}}, 1));
  EXPECT_FALSE(
      matches({"t", "c", CmpOp::kPrefix, Value{std::string("smith")}}, 1));
  // Type mismatch is simply false, never a crash.
  EXPECT_FALSE(matches({"t", "c", CmpOp::kEq, Value{2.5}}, 0));
}

TEST_F(OptimizerTest, FiltersOrderedMostSelectiveFirst) {
  Query q;
  q.tables = {"orders"};
  // qty = 3 has selectivity 0.1; order_id >= 1500 has ~0.25.
  q.filters = {{"orders", "order_id", CmpOp::kGe, Value{int64_t{1500}}},
               {"orders", "qty", CmpOp::kEq, Value{int64_t{3}}}};
  Optimizer opt(&catalog_, Opts());
  auto plan = opt.Optimize(q);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ((*plan)->kind, PlanNode::Kind::kFilter);
  ASSERT_EQ((*plan)->predicates.size(), 2u);
  EXPECT_EQ((*plan)->predicates[0].column, "qty");  // §4 ordering
  EXPECT_EQ((*plan)->predicates[1].column, "order_id");
}

TEST_F(OptimizerTest, LargeMemoryPicksHybridHashEverywhere) {
  Optimizer opt(&catalog_, Opts(4096));
  auto plan = opt.Optimize(StarQuery());
  ASSERT_TRUE(plan.ok());
  // Both joins must be hybrid hash (§4: hashing wins with large memory).
  std::function<void(const PlanNode&)> check = [&](const PlanNode& node) {
    if (node.kind == PlanNode::Kind::kJoin) {
      EXPECT_EQ(node.algorithm, JoinAlgorithm::kHybridHash);
    }
    if (node.child_left) check(*node.child_left);
    if (node.child_right) check(*node.child_right);
  };
  check(**plan);
}

TEST_F(OptimizerTest, HashOnlyModeMatchesFullSearchWithLargeMemory) {
  // §4's punchline: with |M| >= sqrt(|S|F) the reduced planner (hybrid
  // only, no interesting orders) finds the same plan cost as the full
  // search.
  Optimizer full(&catalog_, Opts(4096));
  OptimizerOptions reduced_opts = Opts(4096);
  reduced_opts.hash_only = true;
  Optimizer reduced(&catalog_, reduced_opts);
  auto a = full.Optimize(StarQuery());
  auto b = reduced.Optimize(StarQuery());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR((*a)->est_cost_seconds, (*b)->est_cost_seconds, 1e-9);
}

TEST_F(OptimizerTest, JoinsSmallerRelationsFirst) {
  // The DP should join orders with the most filtered/smallest side first
  // when it is cheaper; at minimum the plan is connected and covers all
  // three tables exactly once.
  Optimizer opt(&catalog_, Opts());
  auto plan = opt.Optimize(StarQuery());
  ASSERT_TRUE(plan.ok());
  int scans = 0;
  std::function<void(const PlanNode&)> count = [&](const PlanNode& node) {
    if (node.kind == PlanNode::Kind::kScan) ++scans;
    if (node.child_left) count(*node.child_left);
    if (node.child_right) count(*node.child_right);
  };
  count(**plan);
  EXPECT_EQ(scans, 3);
}

TEST_F(OptimizerTest, DisconnectedJoinGraphRejected) {
  Query q;
  q.tables = {"orders", "customers"};
  // no join clause
  Optimizer opt(&catalog_, Opts());
  EXPECT_EQ(opt.Optimize(q).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(OptimizerTest, UnknownTableOrColumnRejected) {
  Optimizer opt(&catalog_, Opts());
  Query q;
  q.tables = {"nope"};
  EXPECT_FALSE(opt.Optimize(q).ok());
  Query q2;
  q2.tables = {"orders"};
  q2.filters = {{"orders", "nope", CmpOp::kEq, Value{int64_t{0}}}};
  EXPECT_FALSE(opt.Optimize(q2).ok());
}

TEST_F(OptimizerTest, ChooseJoinAlgorithmFollowsMemory) {
  // Large memory: hybrid. (Sort-merge never wins under Table 2 costs; the
  // §4 claim is exactly that the choice is unconditional.)
  Optimizer opt(&catalog_, Opts(4096));
  auto big = opt.ChooseJoinAlgorithm(100, 4000, 200, 8000);
  EXPECT_EQ(big.algorithm, JoinAlgorithm::kHybridHash);
  Optimizer tiny(&catalog_, Opts(8));
  auto small = tiny.ChooseJoinAlgorithm(100, 4000, 200, 8000);
  EXPECT_GT(small.weighted_cost_seconds, big.weighted_cost_seconds);
}

TEST_F(OptimizerTest, ExecutePlanMatchesManualPipeline) {
  Query q = StarQuery();
  q.filters = {{"customers", "city", CmpOp::kEq,
                Value{std::string("madison")}},
               {"orders", "qty", CmpOp::kGe, Value{int64_t{5}}}};
  q.select_columns = {{"orders", "order_id"}, {"customers", "city"},
                      {"products", "price"}};
  ExecEnv env(4096);
  auto result = RunQuery(q, catalog_, Opts(), &env.ctx);
  ASSERT_TRUE(result.ok());

  // Manual evaluation.
  int64_t expected = 0;
  for (const Row& o : orders_.rows()) {
    if (std::get<int64_t>(o[3]) < 5) continue;
    const Row& c = customers_.rows()[static_cast<size_t>(
        std::get<int64_t>(o[1]))];
    if (std::get<std::string>(c[1]) != "madison") continue;
    ++expected;  // every order has exactly one product
  }
  EXPECT_EQ(result->relation.num_tuples(), expected);
  EXPECT_EQ(result->relation.schema().num_columns(), 3);
  // Every output city is madison.
  for (const Row& row : result->relation.rows()) {
    EXPECT_EQ(std::get<std::string>(row[1]), "madison");
  }
}

TEST_F(OptimizerTest, ExecutedResultIdenticalAcrossMemorySizes) {
  Query q = StarQuery();
  q.select_columns = {{"orders", "order_id"}};
  std::multiset<std::string> reference;
  for (int64_t memory : {8, 64, 4096}) {
    ExecEnv env(memory);
    auto result = RunQuery(q, catalog_, Opts(memory), &env.ctx);
    ASSERT_TRUE(result.ok()) << memory;
    std::multiset<std::string> got;
    for (const Row& row : result->relation.rows()) {
      got.insert(RowToString(row));
    }
    if (reference.empty()) {
      reference = std::move(got);
      EXPECT_EQ(reference.size(), 2000u);
    } else {
      EXPECT_EQ(got, reference) << memory;
    }
  }
}

TEST_F(OptimizerTest, PlanToStringMentionsStructure) {
  Optimizer opt(&catalog_, Opts());
  auto plan = opt.Optimize(StarQuery());
  ASSERT_TRUE(plan.ok());
  const std::string text = (*plan)->ToString();
  EXPECT_NE(text.find("Join[hybrid-hash]"), std::string::npos);
  EXPECT_NE(text.find("Scan(orders)"), std::string::npos);
}

}  // namespace
}  // namespace mmdb
