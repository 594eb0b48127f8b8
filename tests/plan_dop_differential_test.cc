// Differential property suite for planned execution at every DOP
// (DESIGN.md §8, §14): for randomized predicates and joins, in-memory and
// spilling, the optimizer's plan run at DOP 1, 2 and 4 must produce the
// same row sequence, the same cost-clock totals and the same metrics
// snapshot.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

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

struct Trial {
  uint64_t seed;
  int64_t r_tuples;
  int64_t s_tuples;
  int64_t memory_pages;  // small values force the spilling join paths
};

class PlanDopDifferentialTest : public ::testing::TestWithParam<Trial> {};

TEST_P(PlanDopDifferentialTest, PlansAgreeAtEveryDop) {
  const Trial t = GetParam();
  std::mt19937_64 rng(t.seed);

  GenOptions r_opts;
  r_opts.num_tuples = t.r_tuples;
  r_opts.tuple_width = 64;
  r_opts.seed = t.seed * 2 + 1;
  const Relation r = MakeKeyedRelation(r_opts);
  GenOptions s_opts;
  s_opts.num_tuples = t.s_tuples;
  s_opts.tuple_width = 48;
  s_opts.distribution =
      (t.seed % 2 == 0) ? KeyDistribution::kUniform : KeyDistribution::kZipf;
  s_opts.key_range = t.r_tuples;
  s_opts.seed = t.seed * 2 + 2;
  const Relation s = MakeKeyedRelation(s_opts);

  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("r", &r).ok());
  ASSERT_TRUE(catalog.RegisterTable("s", &s).ok());

  // Random conjunctive filters on both tables.
  Query query;
  query.tables = {"r", "s"};
  query.joins = {{{"r", "key"}, {"s", "key"}}};
  const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                       CmpOp::kGe, CmpOp::kNe};
  const int num_preds = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < num_preds; ++i) {
    Predicate pred;
    pred.table = (rng() % 2 == 0) ? "r" : "s";
    pred.column = (rng() % 2 == 0) ? "key" : "payload";
    pred.op = ops[rng() % 5];
    pred.literal = Value{static_cast<int64_t>(rng() % (2 * t.r_tuples))};
    query.filters.push_back(pred);
  }
  if (rng() % 2 == 0) {
    query.select_columns = {{"r", "key"}, {"s", "payload"}, {"r", "pad"}};
  }

  std::vector<std::string> base_rows;
  CostCounters base_counters;
  std::string base_metrics;
  bool have_base = false;
  for (const int dop : {1, 2, 4}) {
    OptimizerOptions opts;
    opts.memory_pages = t.memory_pages;
    opts.hash_only = true;
    opts.dop = dop;
    ExecEnv env(t.memory_pages);
    auto result = RunQuery(query, catalog, opts, &env.ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<std::string> rows = RowStrings(result->relation);
    if (!have_base) {
      base_rows = rows;
      base_counters = env.clock.counters();
      base_metrics = env.metrics.ToJson();
      have_base = true;
      continue;
    }
    // Same bytes in the same order, same simulated work, same metrics —
    // regardless of DOP.
    EXPECT_EQ(rows, base_rows) << "dop=" << dop;
    EXPECT_EQ(env.clock.counters(), base_counters) << "dop=" << dop;
    EXPECT_EQ(env.metrics.ToJson(), base_metrics) << "dop=" << dop;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PlanDopDifferentialTest,
    ::testing::Values(Trial{1, 800, 2'400, 4096},   // in-memory joins
                      Trial{2, 1'000, 3'000, 4096},
                      Trial{3, 1'200, 2'000, 8},    // spilling joins
                      Trial{4, 900, 2'700, 8},
                      Trial{5, 700, 2'100, 4},      // deep recursion
                      Trial{6, 1'500, 1'500, 4096}));

}  // namespace
}  // namespace mmdb
