#include "exec/partitioner.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"
#include "storage/datagen.h"

namespace mmdb {
namespace {

TEST(HashPartitionerTest, DeterministicAndInRange) {
  HashPartitioner p(7);
  for (int64_t k = 0; k < 1000; ++k) {
    const int64_t part = p.PartitionOf(Value{k});
    EXPECT_GE(part, 0);
    EXPECT_LT(part, 7);
    EXPECT_EQ(part, p.PartitionOf(Value{k}));  // stable
  }
}

TEST(HashPartitionerTest, RoughlyBalanced) {
  // §3.3: "the central limit theorem assures us that the relative
  // variation in the number of keys in each partition will be small".
  constexpr int64_t kParts = 8;
  constexpr int64_t kKeys = 80'000;
  HashPartitioner p(kParts);
  std::vector<int64_t> counts(kParts, 0);
  for (int64_t k = 0; k < kKeys; ++k) {
    ++counts[static_cast<size_t>(p.PartitionOf(Value{k}))];
  }
  for (int64_t c : counts) {
    EXPECT_NEAR(double(c), double(kKeys) / kParts,
                double(kKeys) / kParts * 0.05);
  }
}

TEST(HashPartitionerTest, LevelsGiveIndependentHashes) {
  HashPartitioner a(4, 0), b(4, 1);
  int agree = 0;
  for (int64_t k = 0; k < 4000; ++k) {
    if (a.PartitionOf(Value{k}) == b.PartitionOf(Value{k})) ++agree;
  }
  // Independent 4-way functions agree ~25% of the time, not ~100%.
  EXPECT_LT(agree, 1500);
  EXPECT_GT(agree, 500);
}

TEST(HashPartitionerTest, HybridSplitRespectsQ0) {
  constexpr double kQ = 0.3;
  HashPartitioner p = HashPartitioner::Hybrid(kQ, 5);
  int64_t zero = 0;
  constexpr int64_t kKeys = 50'000;
  std::vector<int64_t> spilled(6, 0);
  for (int64_t k = 0; k < kKeys; ++k) {
    int64_t part = p.PartitionOf(Value{k});
    ASSERT_GE(part, 0);
    ASSERT_LT(part, 6);
    if (part == 0) {
      ++zero;
    } else {
      ++spilled[static_cast<size_t>(part)];
    }
  }
  EXPECT_NEAR(double(zero) / kKeys, kQ, 0.02);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_NEAR(double(spilled[size_t(i)]) / kKeys, (1 - kQ) / 5, 0.02);
  }
}

TEST(HashPartitionerTest, StringKeysPartitionConsistently) {
  HashPartitioner p(4);
  EXPECT_EQ(p.PartitionOf(Value{std::string("abc")}),
            p.PartitionOf(Value{std::string("abc")}));
}

TEST(HashPartitionerTest, UniformIsExactlyHybridWithZeroResidentFraction) {
  // Both constructors carve the same unit interval, so the same key can
  // never be routed differently by the two shapes (the bug this guards
  // against: the uniform split using `h % P` while the hybrid split used
  // the carve, silently disagreeing when call sites mixed them).
  for (int64_t parts : {int64_t{1}, int64_t{2}, int64_t{7}, int64_t{64}}) {
    HashPartitioner uniform(parts, 3);
    HashPartitioner hybrid = HashPartitioner::Hybrid(0.0, parts - 1, 3);
    for (int64_t k = -500; k < 500; ++k) {
      EXPECT_EQ(uniform.PartitionOf(Value{k}), hybrid.PartitionOf(Value{k}))
          << "parts=" << parts << " key=" << k;
    }
  }
}

TEST(HashPartitionerTest, ExtremeAndNegativeKeysStayInRange) {
  const int64_t extremes[] = {std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::min() + 1,
                              int64_t{-1},
                              int64_t{0},
                              std::numeric_limits<int64_t>::max() - 1,
                              std::numeric_limits<int64_t>::max()};
  const double doubles[] = {-0.0, 0.0, 1e308, -1e308,
                            std::numeric_limits<double>::denorm_min()};
  for (int64_t parts : {int64_t{1}, int64_t{2}, int64_t{5}, int64_t{1024}}) {
    HashPartitioner uniform(parts);
    HashPartitioner hybrid = HashPartitioner::Hybrid(0.4, parts);
    for (int64_t k : extremes) {
      const int64_t pu = uniform.PartitionOf(Value{k});
      EXPECT_GE(pu, 0);
      EXPECT_LT(pu, parts);
      const int64_t ph = hybrid.PartitionOf(Value{k});
      EXPECT_GE(ph, 0);
      EXPECT_LT(ph, parts + 1);
    }
    for (double d : doubles) {
      const int64_t pu = uniform.PartitionOf(Value{d});
      EXPECT_GE(pu, 0);
      EXPECT_LT(pu, parts);
    }
    // -0.0 and 0.0 must land together (HashValue normalizes the sign).
    EXPECT_EQ(uniform.PartitionOf(Value{-0.0}),
              uniform.PartitionOf(Value{0.0}));
  }
}

TEST(HashPartitionerTest, SinglePartitionTakesEverything) {
  HashPartitioner p(1);
  HashPartitioner h = HashPartitioner::Hybrid(0.999, 0);
  for (int64_t k = -2000; k < 2000; k += 37) {
    EXPECT_EQ(p.PartitionOf(Value{k}), 0);
    EXPECT_EQ(h.PartitionOf(Value{k}), 0);
  }
  EXPECT_EQ(p.PartitionOf(Value{std::string("anything")}), 0);
}

TEST(PartitionWriterSetTest, CompatiblePartitionsRoundTrip) {
  // The §3.3 property that makes partitioned joins work: writing rows by
  // partition and reading them back loses nothing and never mixes subsets.
  GenOptions opts;
  opts.num_tuples = 2000;
  opts.tuple_width = 32;
  Relation rel = MakeKeyedRelation(opts);
  ExecEnv env(64);
  constexpr int64_t kParts = 4;
  HashPartitioner partitioner(kParts);
  PartitionWriterSet writers(&env.ctx, rel.schema(), kParts,
                             IoKind::kRandom, "part");
  std::vector<int64_t> expected(kParts, 0);
  for (const Row& row : rel.rows()) {
    const int64_t part = partitioner.PartitionOf(row[0]);
    ++expected[static_cast<size_t>(part)];
    ASSERT_TRUE(writers.Append(part, row).ok());
  }
  ASSERT_TRUE(writers.FinishAll().ok());
  auto files = writers.Release();
  int64_t total = 0;
  for (int64_t i = 0; i < kParts; ++i) {
    EXPECT_EQ(files[size_t(i)].records, expected[size_t(i)]);
    auto rows = ReadAndDeletePartition(&env.ctx, rel.schema(),
                                       files[size_t(i)]);
    ASSERT_TRUE(rows.ok());
    for (const Row& row : *rows) {
      EXPECT_EQ(partitioner.PartitionOf(row[0]), i);
    }
    total += static_cast<int64_t>(rows->size());
  }
  EXPECT_EQ(total, rel.num_tuples());
  EXPECT_EQ(env.disk.TotalPages(), 0);  // partitions reclaimed
}

TEST(PartitionWriterSetTest, AllRowsToOnePartitionLeavesOthersEmpty) {
  // Skew regression: every row lands in one partition; the other writers
  // must finish with zero records AND zero pages (an empty partition never
  // flushes a page, so it costs no I/O).
  GenOptions opts;
  opts.num_tuples = 1000;
  opts.tuple_width = 64;
  Relation rel = MakeKeyedRelation(opts);
  ExecEnv env(64);
  constexpr int64_t kParts = 8;
  PartitionWriterSet writers(&env.ctx, rel.schema(), kParts, IoKind::kRandom,
                             "skew");
  for (const Row& row : rel.rows()) {
    ASSERT_TRUE(writers.Append(3, row).ok());
  }
  ASSERT_TRUE(writers.FinishAll().ok());
  auto files = writers.Release();
  for (int64_t i = 0; i < kParts; ++i) {
    if (i == 3) {
      EXPECT_EQ(files[size_t(i)].records, rel.num_tuples());
      EXPECT_GT(files[size_t(i)].pages, 0);
    } else {
      EXPECT_EQ(files[size_t(i)].records, 0);
      EXPECT_EQ(files[size_t(i)].pages, 0);
    }
  }
  auto rows = ReadAndDeletePartition(&env.ctx, rel.schema(), files[3]);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(static_cast<int64_t>(rows->size()), rel.num_tuples());
  for (int64_t i = 0; i < kParts; ++i) {
    if (i != 3) env.disk.DeleteFile(files[size_t(i)].file);
  }
  EXPECT_EQ(env.disk.TotalPages(), 0);
}

TEST(PartitionWriterSetTest, ZeroRowPartitionSetFinishesClean) {
  // Degenerate regression: a writer set that never sees a row must finish,
  // release zero-record files, and read back as empty partitions.
  Schema schema({Column::Int64("key"), Column::Int64("payload")});
  ExecEnv env(16);
  PartitionWriterSet writers(&env.ctx, schema, 4, IoKind::kSequential,
                             "empty");
  ASSERT_TRUE(writers.FinishAll().ok());
  auto files = writers.Release();
  ASSERT_EQ(files.size(), 4u);
  for (const auto& pf : files) {
    EXPECT_EQ(pf.records, 0);
    EXPECT_EQ(pf.pages, 0);
    auto rows = ReadAndDeletePartition(&env.ctx, schema, pf);
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows->empty());
  }
  EXPECT_EQ(env.clock.counters().moves, 0);
  EXPECT_EQ(env.clock.counters().seq_ios, 0);
  EXPECT_EQ(env.disk.TotalPages(), 0);
}

TEST(PartitionWriterSetTest, ChargesMovePerTupleAndIoPerPage) {
  GenOptions opts;
  opts.num_tuples = 500;
  opts.tuple_width = 100;
  Relation rel = MakeKeyedRelation(opts);
  ExecEnv env(64);
  PartitionWriterSet writers(&env.ctx, rel.schema(), 1, IoKind::kRandom,
                             "part");
  for (const Row& row : rel.rows()) {
    ASSERT_TRUE(writers.Append(0, row).ok());
  }
  ASSERT_TRUE(writers.FinishAll().ok());
  EXPECT_EQ(env.clock.counters().moves, 500);
  auto files = writers.Release();
  EXPECT_EQ(env.clock.counters().rand_ios, files[0].pages);
  env.disk.DeleteFile(files[0].file);
}

}  // namespace
}  // namespace mmdb
