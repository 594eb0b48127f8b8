#include "storage/datagen.h"

#include <gtest/gtest.h>

#include <set>

namespace mmdb {
namespace {

TEST(DatagenTest, UniqueShuffledKeysArePermutation) {
  GenOptions opts;
  opts.num_tuples = 1000;
  Relation rel = MakeKeyedRelation(opts);
  ASSERT_EQ(rel.num_tuples(), 1000);
  std::set<int64_t> keys;
  for (const Row& row : rel.rows()) {
    keys.insert(std::get<int64_t>(row[0]));
  }
  EXPECT_EQ(keys.size(), 1000u);
  EXPECT_EQ(*keys.begin(), 0);
  EXPECT_EQ(*keys.rbegin(), 999);
}

TEST(DatagenTest, PayloadIsSourceIndex) {
  GenOptions opts;
  opts.num_tuples = 100;
  Relation rel = MakeKeyedRelation(opts);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(std::get<int64_t>(rel.RowAt(i)[1]), i);
  }
}

TEST(DatagenTest, TupleWidthHonored) {
  GenOptions opts;
  opts.num_tuples = 10;
  opts.tuple_width = 100;
  Relation rel = MakeKeyedRelation(opts);
  EXPECT_EQ(rel.schema().record_size(), 100);
  opts.tuple_width = 16;  // minimum: no pad column
  Relation slim = MakeKeyedRelation(opts);
  EXPECT_EQ(slim.schema().record_size(), 16);
  EXPECT_EQ(slim.schema().num_columns(), 2);
}

TEST(DatagenTest, UniformKeysInRange) {
  GenOptions opts;
  opts.num_tuples = 5000;
  opts.distribution = KeyDistribution::kUniform;
  opts.key_range = 100;
  Relation rel = MakeKeyedRelation(opts);
  for (const Row& row : rel.rows()) {
    int64_t k = std::get<int64_t>(row[0]);
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 100);
  }
}

TEST(DatagenTest, ZipfSkewsKeys) {
  GenOptions opts;
  opts.num_tuples = 20000;
  opts.distribution = KeyDistribution::kZipf;
  opts.key_range = 1000;
  opts.zipf_theta = 0.9;
  Relation rel = MakeKeyedRelation(opts);
  int64_t head = 0;
  for (const Row& row : rel.rows()) {
    if (std::get<int64_t>(row[0]) < 10) ++head;
  }
  EXPECT_GT(head, rel.num_tuples() / 10);
}

TEST(DatagenTest, DeterministicAcrossCalls) {
  GenOptions opts;
  opts.num_tuples = 50;
  opts.seed = 77;
  Relation a = MakeKeyedRelation(opts);
  Relation b = MakeKeyedRelation(opts);
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.RowAt(i), b.RowAt(i));
  }
}

TEST(DatagenTest, EmployeeRelationShape) {
  Relation emp = MakeEmployeeRelation(500, 64, 3);
  ASSERT_EQ(emp.num_tuples(), 500);
  EXPECT_EQ(emp.schema().record_size(), 64);
  EXPECT_TRUE(emp.schema().ColumnIndex("name").ok());
  EXPECT_TRUE(emp.schema().ColumnIndex("salary").ok());
  // emp_ids are a permutation.
  std::set<int64_t> ids;
  for (const Row& row : emp.rows()) ids.insert(std::get<int64_t>(row[0]));
  EXPECT_EQ(ids.size(), 500u);
  // Names come from the stem set.
  const std::string name = std::get<std::string>(emp.RowAt(0)[1]);
  EXPECT_FALSE(name.empty());
  EXPECT_NE(name.find('_'), std::string::npos);
}

}  // namespace
}  // namespace mmdb
