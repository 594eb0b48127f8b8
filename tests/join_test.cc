#include "exec/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "run_fingerprint.h"
#include "storage/datagen.h"

namespace mmdb {
namespace {

const JoinAlgorithm kRealAlgorithms[] = {
    JoinAlgorithm::kSortMerge, JoinAlgorithm::kSimpleHash,
    JoinAlgorithm::kGraceHash, JoinAlgorithm::kHybridHash};

/// Canonical multiset of output rows so order differences don't matter.
std::multiset<std::string> Canonical(const Relation& rel) {
  std::multiset<std::string> out;
  for (const Row& row : rel.rows()) out.insert(RowToString(row));
  return out;
}

struct JoinCase {
  int64_t r_tuples;
  int64_t s_tuples;
  KeyDistribution s_dist;
  int64_t s_key_range;
  double memory_ratio;  // of |R|*F
  const char* name;
};

class JoinOracleTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinOracleTest, AllAlgorithmsMatchNestedLoop) {
  const JoinCase c = GetParam();
  GenOptions r_opts;
  r_opts.num_tuples = c.r_tuples;
  r_opts.tuple_width = 64;
  r_opts.seed = 101;
  GenOptions s_opts;
  s_opts.num_tuples = c.s_tuples;
  s_opts.tuple_width = 48;
  s_opts.distribution = c.s_dist;
  s_opts.key_range = c.s_key_range;
  s_opts.seed = 202;
  const Relation r = MakeKeyedRelation(r_opts);
  const Relation s = MakeKeyedRelation(s_opts);
  const JoinSpec spec{0, 0};

  ExecEnv oracle_env(1 << 20);
  auto oracle = NestedLoopJoin(r, s, spec, &oracle_env.ctx);
  ASSERT_TRUE(oracle.ok());
  const auto expected = Canonical(*oracle);

  const int64_t memory = std::max<int64_t>(
      2, static_cast<int64_t>(c.memory_ratio * double(r.NumPages(4096)) * 1.2));
  for (JoinAlgorithm alg : kRealAlgorithms) {
    ExecEnv env(memory);
    JoinRunStats stats;
    auto out = ExecuteJoin(alg, r, s, spec, &env.ctx, &stats);
    ASSERT_TRUE(out.ok()) << JoinAlgorithmName(alg);
    EXPECT_EQ(Canonical(*out), expected) << JoinAlgorithmName(alg);
    EXPECT_EQ(stats.output_tuples, oracle->num_tuples());
    EXPECT_EQ(out->schema().num_columns(),
              r.schema().num_columns() + s.schema().num_columns());
    // Spill space fully reclaimed.
    EXPECT_EQ(env.disk.TotalPages(), 0) << JoinAlgorithmName(alg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, JoinOracleTest,
    ::testing::Values(
        JoinCase{500, 500, KeyDistribution::kUniform, 500, 2.0, "inmem"},
        JoinCase{500, 500, KeyDistribution::kUniform, 500, 0.5, "half"},
        JoinCase{800, 1600, KeyDistribution::kUniform, 800, 0.2, "tiny"},
        JoinCase{300, 900, KeyDistribution::kZipf, 300, 0.3, "zipf_skew"},
        JoinCase{400, 400, KeyDistribution::kUniform, 4000, 0.4,
                 "sparse_matches"},
        JoinCase{64, 2000, KeyDistribution::kUniform, 64, 0.25,
                 "small_build_fanout"}),
    [](const auto& info) { return info.param.name; });

TEST(JoinTest, EmptyInputsProduceEmptyOutput) {
  Schema schema({Column::Int64("key"), Column::Int64("payload")});
  Relation empty(schema);
  GenOptions opts;
  opts.num_tuples = 100;
  opts.tuple_width = 16;
  Relation full = MakeKeyedRelation(opts);
  for (JoinAlgorithm alg : kRealAlgorithms) {
    ExecEnv env(4);
    auto a = ExecuteJoin(alg, empty, full, JoinSpec{0, 0}, &env.ctx);
    ASSERT_TRUE(a.ok()) << JoinAlgorithmName(alg);
    EXPECT_EQ(a->num_tuples(), 0);
    auto b = ExecuteJoin(alg, full, empty, JoinSpec{0, 0}, &env.ctx);
    ASSERT_TRUE(b.ok()) << JoinAlgorithmName(alg);
    EXPECT_EQ(b->num_tuples(), 0);
  }
}

TEST(JoinTest, DisjointKeysProduceEmptyOutput) {
  Schema schema({Column::Int64("key"), Column::Int64("payload")});
  Relation r(schema), s(schema);
  for (int64_t i = 0; i < 200; ++i) {
    r.Add({i, i});
    s.Add({i + 10'000, i});
  }
  for (JoinAlgorithm alg : kRealAlgorithms) {
    ExecEnv env(2);
    auto out = ExecuteJoin(alg, r, s, JoinSpec{0, 0}, &env.ctx);
    ASSERT_TRUE(out.ok()) << JoinAlgorithmName(alg);
    EXPECT_EQ(out->num_tuples(), 0) << JoinAlgorithmName(alg);
  }
}

TEST(JoinTest, ManyToManyCrossGroups) {
  // 10 copies of each key on both sides: every key contributes 100 output
  // tuples — exercises group handling in sort-merge and duplicate chains
  // in the hash tables.
  Schema schema({Column::Int64("key"), Column::Int64("tag")});
  Relation r(schema), s(schema);
  for (int64_t k = 0; k < 20; ++k) {
    for (int64_t i = 0; i < 10; ++i) {
      r.Add({k, i});
      s.Add({k, 100 + i});
    }
  }
  ExecEnv oracle_env(1 << 20);
  auto oracle = NestedLoopJoin(r, s, JoinSpec{0, 0}, &oracle_env.ctx);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle->num_tuples(), 20 * 10 * 10);
  for (JoinAlgorithm alg : kRealAlgorithms) {
    ExecEnv env(2);
    auto out = ExecuteJoin(alg, r, s, JoinSpec{0, 0}, &env.ctx);
    ASSERT_TRUE(out.ok()) << JoinAlgorithmName(alg);
    EXPECT_EQ(Canonical(*out), Canonical(*oracle)) << JoinAlgorithmName(alg);
  }
}

TEST(JoinTest, StringJoinKeys) {
  Schema rs({Column::Char("name", 12), Column::Int64("x")});
  Schema ss({Column::Char("name", 12), Column::Int64("y")});
  Relation r(rs), s(ss);
  const char* names[] = {"ada", "grace", "edsger", "barbara", "tony"};
  for (int64_t i = 0; i < 5; ++i) {
    r.Add({std::string(names[i]), i});
  }
  for (int64_t i = 0; i < 40; ++i) {
    s.Add({std::string(names[i % 5]), i});
  }
  ExecEnv oracle_env(1 << 20);
  auto oracle = NestedLoopJoin(r, s, JoinSpec{0, 0}, &oracle_env.ctx);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle->num_tuples(), 40);
  for (JoinAlgorithm alg : kRealAlgorithms) {
    ExecEnv env(2);
    auto out = ExecuteJoin(alg, r, s, JoinSpec{0, 0}, &env.ctx);
    ASSERT_TRUE(out.ok()) << JoinAlgorithmName(alg);
    EXPECT_EQ(Canonical(*out), Canonical(*oracle)) << JoinAlgorithmName(alg);
  }
}

TEST(JoinTest, JoinOnNonFirstColumns) {
  Schema rs({Column::Char("pad", 4), Column::Int64("k")});
  Schema ss({Column::Int64("v"), Column::Int64("fk"), Column::Char("pad", 4)});
  Relation r(rs), s(ss);
  for (int64_t i = 0; i < 50; ++i) {
    r.Add({std::string("r"), i});
    s.Add({i * 10, i % 25, std::string("s")});
  }
  const JoinSpec spec{1, 1};
  ExecEnv oracle_env(1 << 20);
  auto oracle = NestedLoopJoin(r, s, spec, &oracle_env.ctx);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle->num_tuples(), 50);  // keys 0..24 match twice... 25*2
  for (JoinAlgorithm alg : kRealAlgorithms) {
    ExecEnv env(2);
    auto out = ExecuteJoin(alg, r, s, spec, &env.ctx);
    ASSERT_TRUE(out.ok()) << JoinAlgorithmName(alg);
    EXPECT_EQ(Canonical(*out), Canonical(*oracle)) << JoinAlgorithmName(alg);
  }
}

TEST(JoinTest, HybridRecursionHandlesSkew) {
  // A single hot key makes one spilled partition overflow memory: the
  // recursive fallback (§3.3) must still produce the exact result.
  Schema schema({Column::Int64("key"), Column::Int64("tag"),
                 Column::Char("pad", 48)});
  Relation r(schema), s(schema);
  for (int64_t i = 0; i < 3000; ++i) {
    r.Add({i % 7 == 0 ? int64_t{7} : i, i, std::string()});
    s.Add({i % 11 == 0 ? int64_t{7} : i, i, std::string()});
  }
  ExecEnv oracle_env(1 << 20);
  auto oracle = NestedLoopJoin(r, s, JoinSpec{0, 0}, &oracle_env.ctx);
  ASSERT_TRUE(oracle.ok());
  ExecEnv env(3);  // far too small: guarantees overflow
  JoinRunStats stats;
  auto out = HybridHashJoin(r, s, JoinSpec{0, 0}, &env.ctx, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Canonical(*out), Canonical(*oracle));
}

TEST(JoinTest, HybridAllDuplicatesForcesProbeInsteadOfRecursing) {
  // Every build tuple carries the same key, so any spilled partition is a
  // single-key partition: re-partitioning it can never make progress (every
  // hash function maps one key to one partition). The no-progress guard
  // must detect this and force an in-memory probe rather than recursing to
  // the depth cap and failing.
  Schema schema({Column::Int64("key"), Column::Int64("tag"),
                 Column::Char("pad", 48)});
  Relation r(schema), s(schema);
  for (int64_t i = 0; i < 2000; ++i) {
    r.Add({int64_t{42}, i, std::string()});
    s.Add({i % 2 == 0 ? int64_t{42} : i, i, std::string()});
  }
  ExecEnv oracle_env(1 << 20);
  auto oracle = NestedLoopJoin(r, s, JoinSpec{0, 0}, &oracle_env.ctx);
  ASSERT_TRUE(oracle.ok());
  ExecEnv env(3);  // the single-key partition cannot fit: must spill
  JoinRunStats stats;
  auto out = HybridHashJoin(r, s, JoinSpec{0, 0}, &env.ctx, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Canonical(*out), Canonical(*oracle));
  EXPECT_GT(stats.forced_probes, 0);
  // 2000 * 1000 matching pairs came out despite the 3-page grant.
  EXPECT_EQ(out->num_tuples(), 2000 * 1000);
}

TEST(JoinTest, HybridDynamicMigrationReportsDestagedPartitions) {
  // Uniform keys with a grant well below |R|F: the destaging schedule must
  // evict buffered partitions mid-build (Jahangiri/Carey-style dynamic
  // migration) and report how many it migrated.
  GenOptions opts;
  opts.num_tuples = 4000;
  opts.tuple_width = 64;
  opts.seed = 71;
  Relation r = MakeKeyedRelation(opts);
  opts.seed = 72;
  opts.distribution = KeyDistribution::kUniform;
  opts.key_range = 4000;
  Relation s = MakeKeyedRelation(opts);
  ExecEnv oracle_env(1 << 20);
  auto oracle = NestedLoopJoin(r, s, JoinSpec{0, 0}, &oracle_env.ctx);
  ASSERT_TRUE(oracle.ok());
  ExecEnv env(20);
  JoinRunStats stats;
  auto out = HybridHashJoin(r, s, JoinSpec{0, 0}, &env.ctx, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Canonical(*out), Canonical(*oracle));
  EXPECT_GT(stats.migrations, 0);
  EXPECT_GT(stats.partitions, 0);
  EXPECT_LT(stats.q, 1.0);
}

TEST(JoinTest, SimpleHashEarlyExitWhenNothingPassedOver) {
  // If the first pass consumes everything (table fits), later passes are
  // skipped even when the pass estimate was pessimistic.
  GenOptions opts;
  opts.num_tuples = 100;
  opts.tuple_width = 16;
  Relation r = MakeKeyedRelation(opts);
  opts.seed = 2;
  Relation s = MakeKeyedRelation(opts);
  ExecEnv env(1 << 16);
  JoinRunStats stats;
  auto out = SimpleHashJoin(r, s, JoinSpec{0, 0}, &env.ctx, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.passes, 1);
  EXPECT_EQ(env.clock.counters().seq_ios, 0);
}

TEST(JoinTest, CostChargesScaleWithPasses) {
  // More memory => fewer simple-hash passes => strictly less simulated
  // time: a coarse monotonicity property of the executed algorithm.
  GenOptions opts;
  opts.num_tuples = 4000;
  opts.tuple_width = 100;
  Relation r = MakeKeyedRelation(opts);
  opts.seed = 5;
  Relation s = MakeKeyedRelation(opts);
  double prev = 1e100;
  for (int64_t memory : {12, 30, 80, 200}) {
    ExecEnv env(memory);
    auto out = SimpleHashJoin(r, s, JoinSpec{0, 0}, &env.ctx);
    ASSERT_TRUE(out.ok());
    EXPECT_LT(env.clock.Seconds(), prev);
    prev = env.clock.Seconds();
  }
}

/// Golden runs: every join algorithm on fixed seeded inputs, at a grant
/// that holds R's hash table, at one that spills, and on a skewed input at
/// three pages (the hybrid recurses there). Each run's output sequence,
/// cost counters and disk transfers are pinned (RunFingerprint), so a
/// rewrite of a join must reproduce the rows, their order and every
/// charge exactly.
TEST(JoinGoldenTest, SequenceAndChargesArePinned) {
  GenOptions r_opts;
  r_opts.num_tuples = 700;
  r_opts.tuple_width = 64;
  r_opts.seed = 9;
  GenOptions s_opts;
  s_opts.num_tuples = 1400;
  s_opts.tuple_width = 48;
  s_opts.distribution = KeyDistribution::kUniform;
  s_opts.key_range = 700;
  s_opts.seed = 10;
  const Relation r = MakeKeyedRelation(r_opts);
  const Relation s = MakeKeyedRelation(s_opts);
  const int64_t r_table_pages =
      static_cast<int64_t>(double(r.NumPages(4096)) * 1.2);

  Schema skew_schema({Column::Int64("key"), Column::Int64("tag"),
                      Column::Char("pad", 48)});
  Relation skew_r(skew_schema), skew_s(skew_schema);
  for (int64_t i = 0; i < 3000; ++i) {
    skew_r.Add({i % 7 == 0 ? int64_t{7} : i, i, std::string()});
    skew_s.Add({i % 11 == 0 ? int64_t{7} : i, i, std::string()});
  }

  struct Case {
    const char* name;
    const Relation* r;
    const Relation* s;
    int64_t memory_pages;
  };
  const Case cases[] = {
      {"in_memory", &r, &s, 2 * r_table_pages},
      {"spilling", &r, &s, std::max<int64_t>(2, r_table_pages * 3 / 10)},
      {"skew_3_pages", &skew_r, &skew_s, 3},
  };
  const JoinAlgorithm algorithms[] = {
      JoinAlgorithm::kNestedLoop, JoinAlgorithm::kSortMerge,
      JoinAlgorithm::kSimpleHash, JoinAlgorithm::kGraceHash,
      JoinAlgorithm::kHybridHash};
  const std::map<std::string, std::string> golden = {
      {"nested-loop/in_memory",
       "rows=1400 hash=bd2b519b012dde09 comps=980000 hashes=0 moves=0 small_moves=0 swaps=0 seq_ios=0 rand_ios=0 reads=0 writes=0"},
      {"sort-merge/in_memory",
       "rows=1400 hash=b3c15cedf5c391d0 comps=40891 hashes=0 moves=0 small_moves=0 swaps=18447 seq_ios=0 rand_ios=0 reads=0 writes=0"},
      {"simple-hash/in_memory",
       "rows=1400 hash=62f55ce0ddab934d comps=1400 hashes=2100 moves=700 small_moves=0 swaps=0 seq_ios=0 rand_ios=0 reads=0 writes=0"},
      {"grace-hash/in_memory",
       "rows=1400 hash=62f55ce0ddab934d comps=1400 hashes=2100 moves=700 small_moves=0 swaps=0 seq_ios=0 rand_ios=0 reads=0 writes=0"},
      {"hybrid-hash/in_memory",
       "rows=1400 hash=62f55ce0ddab934d comps=1400 hashes=2100 moves=700 small_moves=0 swaps=0 seq_ios=0 rand_ios=0 reads=0 writes=0"},
      {"nested-loop/spilling",
       "rows=1400 hash=bd2b519b012dde09 comps=980000 hashes=0 moves=0 small_moves=0 swaps=0 seq_ios=0 rand_ios=0 reads=0 writes=0"},
      {"sort-merge/spilling",
       "rows=1400 hash=fb91e4b52b22d28d comps=40633 hashes=0 moves=2100 small_moves=0 swaps=15951 seq_ios=31 rand_ios=31 reads=31 writes=31"},
      {"simple-hash/spilling",
       "rows=1400 hash=168c489d142e6d09 comps=1400 hashes=4575 moves=3175 small_moves=0 swaps=0 seq_ios=72 rand_ios=0 reads=36 writes=36"},
      {"grace-hash/spilling",
       "rows=1400 hash=51f4ba6ce4941882 comps=1400 hashes=4200 moves=2800 small_moves=0 swaps=0 seq_ios=30 rand_ios=30 reads=30 writes=30"},
      {"hybrid-hash/spilling",
       "rows=1400 hash=ebc437f5e9630cc2 comps=1400 hashes=4200 moves=3034 small_moves=0 swaps=0 seq_ios=33 rand_ios=33 reads=33 writes=33"},
      {"nested-loop/skew_3_pages",
       "rows=119883 hash=ef66bbb51492bca2 comps=9000000 hashes=0 moves=0 small_moves=0 swaps=0 seq_ios=0 rand_ios=0 reads=0 writes=0"},
      {"sort-merge/skew_3_pages",
       "rows=119883 hash=871744bb1d414d56 comps=103889 hashes=0 moves=9000 small_moves=0 swaps=38732 seq_ios=147 rand_ios=147 reads=147 writes=147"},
      {"simple-hash/skew_3_pages",
       "rows=119883 hash=a2f67f58e21726b5 comps=120272 hashes=58251 moves=55251 small_moves=0 swaps=0 seq_ios=1694 rand_ios=0 reads=847 writes=847"},
      {"grace-hash/skew_3_pages",
       "rows=119883 hash=04eb3d6db36a02f4 comps=120272 hashes=12000 moves=9000 small_moves=0 swaps=0 seq_ios=98 rand_ios=98 reads=98 writes=98"},
      {"hybrid-hash/skew_3_pages",
       "rows=119883 hash=c6993013689750d3 comps=120404 hashes=14880 moves=12761 small_moves=0 swaps=0 seq_ios=214 rand_ios=116 reads=165 writes=165"},
  };
  for (const Case& c : cases) {
    for (JoinAlgorithm alg : algorithms) {
      const std::string key =
          std::string(JoinAlgorithmName(alg)) + "/" + c.name;
      ExecEnv env(c.memory_pages);
      auto out = ExecuteJoin(alg, *c.r, *c.s, JoinSpec{0, 0}, &env.ctx);
      ASSERT_TRUE(out.ok()) << key;
      const std::string got = RunFingerprint(*out, env);
      auto it = golden.find(key);
      ASSERT_NE(it, golden.end()) << key;
      EXPECT_EQ(got, it->second) << key;
    }
  }
}

}  // namespace
}  // namespace mmdb
