#include "exec/setops.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "storage/datagen.h"

namespace mmdb {
namespace {

Schema PairSchema() {
  return Schema({Column::Int64("a"), Column::Int64("b")});
}

Relation MakePairs(const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  Relation rel(PairSchema());
  for (const auto& [a, b] : pairs) rel.Add({a, b});
  return rel;
}

std::multiset<std::string> Canonical(const Relation& rel) {
  std::multiset<std::string> out;
  for (const Row& row : rel.rows()) out.insert(RowToString(row));
  return out;
}

TEST(SetOpTest, UnionDeduplicates) {
  Relation a = MakePairs({{1, 1}, {2, 2}, {2, 2}, {3, 3}});
  Relation b = MakePairs({{2, 2}, {4, 4}});
  ExecEnv env(64);
  auto out = HashSetOp(SetOp::kUnion, a, b, &env.ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Canonical(*out),
            (std::multiset<std::string>{"1|1", "2|2", "3|3", "4|4"}));
}

TEST(SetOpTest, IntersectAndDifference) {
  Relation a = MakePairs({{1, 1}, {2, 2}, {3, 3}, {3, 3}});
  Relation b = MakePairs({{2, 2}, {3, 3}, {9, 9}});
  ExecEnv env(64);
  auto inter = HashSetOp(SetOp::kIntersect, a, b, &env.ctx);
  ASSERT_TRUE(inter.ok());
  EXPECT_EQ(Canonical(*inter), (std::multiset<std::string>{"2|2", "3|3"}));
  auto diff = HashSetOp(SetOp::kDifference, a, b, &env.ctx);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(Canonical(*diff), (std::multiset<std::string>{"1|1"}));
}

TEST(SetOpTest, SchemaMismatchRejected) {
  Relation a = MakePairs({{1, 1}});
  Relation b(Schema({Column::Int64("x")}));
  ExecEnv env(64);
  EXPECT_EQ(HashSetOp(SetOp::kUnion, a, b, &env.ctx).status().code(),
            StatusCode::kInvalidArgument);
}

struct SetOpCase {
  SetOp op;
  const char* name;
};

class SetOpSpillTest : public ::testing::TestWithParam<SetOpCase> {};

TEST_P(SetOpSpillTest, SpillingMatchesInMemory) {
  // Property: the partitioned (tiny-memory) execution equals the
  // one-pass execution on random multisets with heavy overlap.
  GenOptions opts;
  opts.num_tuples = 6000;
  opts.tuple_width = 32;
  opts.distribution = KeyDistribution::kUniform;
  opts.key_range = 300;
  opts.seed = 1;
  Relation a = MakeKeyedRelation(opts);
  opts.seed = 2;
  Relation b = MakeKeyedRelation(opts);
  // Collapse payload so duplicates actually exist.
  for (Row& row : a.mutable_rows()) row[1] = int64_t{0};
  for (Row& row : b.mutable_rows()) row[1] = int64_t{0};

  ExecEnv big(1 << 16), tiny(2);
  auto in_memory = HashSetOp(GetParam().op, a, b, &big.ctx);
  auto spilled = HashSetOp(GetParam().op, a, b, &tiny.ctx);
  ASSERT_TRUE(in_memory.ok());
  ASSERT_TRUE(spilled.ok());
  EXPECT_EQ(Canonical(*in_memory), Canonical(*spilled));
  EXPECT_GT(tiny.clock.counters().rand_ios + tiny.clock.counters().seq_ios,
            0);
  EXPECT_EQ(tiny.disk.TotalPages(), 0);
}

// Static storage zero-fills the padding between `op` and `name`. gtest
// prints the parameter's raw bytes into the discovered test name, so
// stack temporaries would give a name that changes from build to build.
const SetOpCase kSetOpCases[] = {{SetOp::kUnion, "union"},
                                 {SetOp::kIntersect, "intersect"},
                                 {SetOp::kDifference, "difference"}};

INSTANTIATE_TEST_SUITE_P(Ops, SetOpSpillTest,
                         ::testing::ValuesIn(kSetOpCases),
                         [](const auto& info) { return info.param.name; });

TEST(SemiJoinTest, MatchesReferenceSemantics) {
  Schema rs({Column::Int64("k"), Column::Int64("v")});
  Schema ss({Column::Int64("k")});
  Relation r(rs), s(ss);
  for (int64_t i = 0; i < 20; ++i) r.Add({i % 10, i});
  for (int64_t k : {2, 4, 6}) s.Add({k});
  s.Add({int64_t{2}});  // duplicate in s must not duplicate output
  ExecEnv env(64);
  auto semi = HashSemiJoin(r, s, JoinSpec{0, 0}, &env.ctx);
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(semi->num_tuples(), 6);  // keys 2,4,6 appear twice each in r
  for (const Row& row : semi->rows()) {
    const int64_t k = std::get<int64_t>(row[0]);
    EXPECT_TRUE(k == 2 || k == 4 || k == 6);
  }
  auto anti = HashAntiJoin(r, s, JoinSpec{0, 0}, &env.ctx);
  ASSERT_TRUE(anti.ok());
  EXPECT_EQ(anti->num_tuples(), 14);
  // Semi + anti partition r exactly.
  EXPECT_EQ(semi->num_tuples() + anti->num_tuples(), r.num_tuples());
}

TEST(SemiJoinTest, SpillingMatchesInMemory) {
  GenOptions opts;
  opts.num_tuples = 8000;
  opts.tuple_width = 32;
  opts.distribution = KeyDistribution::kUniform;
  opts.key_range = 1000;
  opts.seed = 3;
  Relation r = MakeKeyedRelation(opts);
  opts.num_tuples = 5000;
  opts.seed = 4;
  Relation s = MakeKeyedRelation(opts);
  ExecEnv big(1 << 16), tiny(2);
  auto a = HashSemiJoin(r, s, JoinSpec{0, 0}, &big.ctx);
  auto b = HashSemiJoin(r, s, JoinSpec{0, 0}, &tiny.ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Canonical(*a), Canonical(*b));
  EXPECT_EQ(tiny.disk.TotalPages(), 0);
}

TEST(DivisionTest, StudentsWhoPassedEveryCourse) {
  // enrolled(student, course) ÷ required(course)
  Schema es({Column::Char("student", 8), Column::Int64("course")});
  Relation enrolled(es);
  auto enroll = [&](const char* s, std::initializer_list<int64_t> courses) {
    for (int64_t c : courses) enrolled.Add({std::string(s), c});
  };
  enroll("ada", {1, 2, 3});
  enroll("bob", {1, 3});
  enroll("cyd", {1, 2, 3, 4});
  enroll("dee", {2});
  Relation required(Schema({Column::Int64("course")}));
  for (int64_t c : {1, 2, 3}) required.Add({c});

  ExecEnv env(64);
  auto out = HashDivision(enrolled, {0}, 1, required, 0, &env.ctx);
  ASSERT_TRUE(out.ok());
  std::set<std::string> names;
  for (const Row& row : out->rows()) {
    names.insert(std::get<std::string>(row[0]));
  }
  EXPECT_EQ(names, (std::set<std::string>{"ada", "cyd"}));
}

TEST(DivisionTest, EmptyDivisorYieldsEmpty) {
  Relation r = MakePairs({{1, 1}, {2, 2}});
  Relation s(Schema({Column::Int64("b")}));
  ExecEnv env(64);
  auto out = HashDivision(r, {0}, 1, s, 0, &env.ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_tuples(), 0);
}

TEST(DivisionTest, DuplicateDividendRowsAreHarmless) {
  Relation r = MakePairs({{1, 5}, {1, 5}, {1, 6}, {2, 5}});
  Relation s(Schema({Column::Int64("b")}));
  s.Add({int64_t{5}});
  s.Add({int64_t{6}});
  ExecEnv env(64);
  auto out = HashDivision(r, {0}, 1, s, 0, &env.ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_tuples(), 1);
  EXPECT_EQ(std::get<int64_t>(out->rows()[0][0]), 1);
}

TEST(DivisionTest, SpillingMatchesInMemory) {
  // Large dividend with known structure: group g covers divisor value d
  // iff d <= g % 7 (so groups with g % 7 == 6 cover {0..6} ⊇ {0,3,5}...).
  Schema rs({Column::Int64("g"), Column::Int64("d")});
  Relation r(rs);
  for (int64_t g = 0; g < 3000; ++g) {
    for (int64_t d = 0; d <= g % 7; ++d) r.Add({g, d});
  }
  Relation s(Schema({Column::Int64("d")}));
  for (int64_t d : {0, 3, 5}) s.Add({d});

  ExecEnv big(1 << 16), tiny(2);
  auto a = HashDivision(r, {0}, 1, s, 0, &big.ctx);
  auto b = HashDivision(r, {0}, 1, s, 0, &tiny.ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Canonical(*a), Canonical(*b));
  // Groups with g % 7 >= 5 cover d in {0,3,5}: residues 5 and 6, i.e.
  // ceil(2995/7) + ceil(2994/7) = 428 + 428 groups.
  EXPECT_EQ(a->num_tuples(), 856);
  EXPECT_EQ(tiny.disk.TotalPages(), 0);
}

TEST(DivisionTest, RejectsBadColumns) {
  Relation r = MakePairs({{1, 1}});
  Relation s(Schema({Column::Int64("b")}));
  ExecEnv env(64);
  EXPECT_FALSE(HashDivision(r, {}, 1, s, 0, &env.ctx).ok());
  EXPECT_FALSE(HashDivision(r, {9}, 1, s, 0, &env.ctx).ok());
  EXPECT_FALSE(HashDivision(r, {0}, 9, s, 0, &env.ctx).ok());
  EXPECT_FALSE(HashDivision(r, {0}, 1, s, 9, &env.ctx).ok());
}

}  // namespace
}  // namespace mmdb
