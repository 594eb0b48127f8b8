#include "exec/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "storage/datagen.h"

namespace mmdb {
namespace {

Relation MakeInput(int64_t n, uint64_t seed) {
  GenOptions opts;
  opts.num_tuples = n;
  opts.tuple_width = 100;
  opts.seed = seed;
  return MakeKeyedRelation(opts);
}

std::vector<int64_t> Drain(SortedStream* stream) {
  std::vector<int64_t> keys;
  while (true) {
    auto rec = stream->Next();
    EXPECT_TRUE(rec.ok());
    if (*rec == nullptr) break;
    keys.push_back(Field{ValueType::kInt64, 8, 0}.Int(*rec));
  }
  return keys;
}

TEST(CountingHeapTest, PopsInOrderAndCharges) {
  CostClock clock;
  CountingHeap<int, std::less<int>> heap(std::less<int>(), &clock);
  for (int v : {5, 1, 4, 2, 3}) heap.Push(v);
  for (int expect = 1; expect <= 5; ++expect) {
    EXPECT_EQ(heap.Pop(), expect);
  }
  EXPECT_GT(clock.counters().comparisons, 0);
  EXPECT_GT(clock.counters().swaps, 0);
}

TEST(ExternalSortTest, InMemoryWhenInputFits) {
  Relation input = MakeInput(100, 1);
  ExecEnv env(1000);
  SortStats stats;
  auto stream = SortRelation(input, 0, &env.ctx, &stats);
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE(stats.in_memory);
  EXPECT_EQ(stats.runs, 1);
  std::vector<int64_t> keys = Drain(stream->get());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), 100u);
  // No I/O at all.
  EXPECT_EQ(env.clock.counters().seq_ios, 0);
  EXPECT_EQ(env.clock.counters().rand_ios, 0);
}

TEST(ExternalSortTest, SpillingSortIsCorrect) {
  Relation input = MakeInput(10'000, 2);
  ExecEnv env(8);  // tiny memory forces many runs
  SortStats stats;
  auto stream = SortRelation(input, 0, &env.ctx, &stats);
  ASSERT_TRUE(stream.ok());
  EXPECT_FALSE(stats.in_memory);
  EXPECT_GT(stats.runs, 2);
  std::vector<int64_t> keys = Drain(stream->get());
  ASSERT_EQ(keys.size(), 10'000u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (int64_t i = 0; i < 10'000; ++i) EXPECT_EQ(keys[size_t(i)], i);
  EXPECT_GT(env.clock.counters().seq_ios, 0);   // run writes
  EXPECT_GT(env.clock.counters().rand_ios, 0);  // merge reads
}

TEST(ExternalSortTest, RunsAverageTwiceMemory) {
  // [KNUT73]: replacement selection over random input produces runs
  // averaging ~2|M| pages (2|M|/F here, because the queue pays the F
  // space overhead).
  Relation input = MakeInput(40'000, 3);
  ExecEnv env(25);
  SortStats stats;
  auto stream = SortRelation(input, 0, &env.ctx, &stats);
  ASSERT_TRUE(stream.ok());
  const double expected = 2.0 * 25 / 1.2;
  EXPECT_NEAR(stats.avg_run_pages, expected, expected * 0.25);
  Drain(stream->get());
}

TEST(ExternalSortTest, SortedInputYieldsOneLongRun) {
  // Replacement selection on presorted input produces a single run no
  // matter how small memory is.
  Relation input = MakeInput(5000, 4);
  input.SortBy(0);
  ExecEnv env(4);
  SortStats stats;
  auto stream = SortRelation(input, 0, &env.ctx, &stats);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stats.runs, 1);
  std::vector<int64_t> keys = Drain(stream->get());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(ExternalSortTest, ReverseSortedInputYieldsManyRuns) {
  Relation input = MakeInput(5000, 5);
  input.SortBy(0);
  Relation reversed(input.schema());
  for (int64_t i = input.num_tuples() - 1; i >= 0; --i) {
    reversed.Append(input.record(i));
  }
  input = std::move(reversed);
  ExecEnv env(4);
  SortStats stats;
  auto stream = SortRelation(input, 0, &env.ctx, &stats);
  ASSERT_TRUE(stream.ok());
  EXPECT_GT(stats.runs, 10);  // worst case: runs of exactly {M} tuples
  std::vector<int64_t> keys = Drain(stream->get());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(ExternalSortTest, CascadedMergeWhenTooManyRuns) {
  // Violate the sqrt assumption: more runs than merge buffers triggers the
  // extra merge level (our extension past the paper).
  Relation input = MakeInput(20'000, 6);
  ExecEnv env(3);
  SortStats stats;
  auto stream = SortRelation(input, 0, &env.ctx, &stats);
  ASSERT_TRUE(stream.ok());
  EXPECT_GT(stats.merge_levels, 0);
  std::vector<int64_t> keys = Drain(stream->get());
  ASSERT_EQ(keys.size(), 20'000u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(ExternalSortTest, DuplicateKeysAllSurvive) {
  GenOptions opts;
  opts.num_tuples = 3000;
  opts.tuple_width = 100;
  opts.distribution = KeyDistribution::kUniform;
  opts.key_range = 10;  // heavy duplication
  Relation input = MakeKeyedRelation(opts);
  ExecEnv env(4);
  auto stream = SortRelation(input, 0, &env.ctx);
  ASSERT_TRUE(stream.ok());
  std::vector<int64_t> keys = Drain(stream->get());
  ASSERT_EQ(keys.size(), 3000u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(ExternalSortTest, SpillFilesAreReclaimed) {
  Relation input = MakeInput(10'000, 7);
  ExecEnv env(8);
  {
    auto stream = SortRelation(input, 0, &env.ctx);
    ASSERT_TRUE(stream.ok());
    Drain(stream->get());
  }
  EXPECT_EQ(env.disk.TotalPages(), 0);
}

TEST(ExternalSortTest, StringKeySort) {
  Relation emp = MakeEmployeeRelation(2000, 64, 8);
  ExecEnv env(4);
  auto name_col = emp.schema().ColumnIndex("name");
  ASSERT_TRUE(name_col.ok());
  auto stream = SortRelation(emp, *name_col, &env.ctx);
  ASSERT_TRUE(stream.ok());
  const Field name_field = Field::Of(emp.schema(), *name_col);
  std::string prev;
  int count = 0;
  while (true) {
    auto rec = (*stream)->Next();
    ASSERT_TRUE(rec.ok());
    if (*rec == nullptr) break;
    const std::string name(name_field.Chars(*rec));
    EXPECT_LE(prev, name);
    prev = name;
    ++count;
  }
  EXPECT_EQ(count, 2000);
}

}  // namespace
}  // namespace mmdb
