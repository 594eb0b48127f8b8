#include "index/hash_index.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"

namespace mmdb {
namespace {

TEST(HashIndexTest, InsertFindDelete) {
  HashIndex index;
  index.Insert(Value{int64_t{1}}, 10);
  index.Insert(Value{int64_t{2}}, 20);
  EXPECT_EQ(*index.Find(Value{int64_t{1}}), 10);
  EXPECT_EQ(index.Find(Value{int64_t{3}}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(index.size(), 2);
}

TEST(HashIndexTest, GrowsThroughResizes) {
  HashIndex index;
  constexpr int64_t kN = 20000;
  for (int64_t i = 0; i < kN; ++i) index.Insert(Value{i}, i * 2);
  EXPECT_GT(index.num_buckets(), 16);
  for (int64_t i = 0; i < kN; i += 131) {
    EXPECT_EQ(*index.Find(Value{i}), i * 2) << i;
  }
}

TEST(HashIndexTest, StringKeys) {
  HashIndex index;
  index.Insert(Value{std::string("alpha")}, 1);
  index.Insert(Value{std::string("beta")}, 2);
  EXPECT_EQ(*index.Find(Value{std::string("beta")}), 2);
  EXPECT_FALSE(index.Find(Value{std::string("gamma")}).ok());
}

TEST(HashIndexTest, FindAllReturnsEveryDuplicate) {
  HashIndex index;
  for (int i = 0; i < 7; ++i) index.Insert(Value{int64_t{5}}, 100 + i);
  index.Insert(Value{int64_t{6}}, 1);
  std::multiset<int64_t> payloads;
  index.FindAll(Value{int64_t{5}},
                [&](int64_t p) { payloads.insert(p); });
  EXPECT_EQ(payloads.size(), 7u);
  EXPECT_EQ(*payloads.begin(), 100);
}

TEST(HashIndexTest, ProbeCostStaysConstantish) {
  // The whole point of hashing (§4): ~O(1) comparisons per probe
  // regardless of size (cf. log n for trees).
  HashIndex index;
  Random rng(4);
  for (int64_t i = 0; i < 50000; ++i) index.Insert(Value{i}, i);
  index.ResetStats();
  constexpr int kProbes = 5000;
  for (int i = 0; i < kProbes; ++i) {
    ASSERT_TRUE(
        index.Find(Value{static_cast<int64_t>(rng.Uniform(50000))}).ok());
  }
  const double avg = double(index.stats().comparisons) / kProbes;
  EXPECT_LT(avg, 2.0);  // ~F probes on average, far below log2(50000) ~ 15.6
}

TEST(HashIndexTest, MatchesReferenceUnderRandomOps) {
  HashIndex index;
  std::multiset<int64_t> reference;
  Random rng(12);
  for (int op = 0; op < 20000; ++op) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(500));
    if (rng.Bernoulli(0.6)) {
      index.Insert(Value{key}, key);
      reference.insert(key);
    } else {
      const StatusOr<int64_t> found = index.Find(Value{key});
      ASSERT_EQ(found.ok(), reference.count(key) > 0) << "op " << op;
      if (found.ok()) {
        EXPECT_EQ(*found, key);
      }
    }
  }
  EXPECT_EQ(index.size(), static_cast<int64_t>(reference.size()));
  for (int64_t key = 0; key < 500; ++key) {
    int count = 0;
    index.FindAll(Value{key}, [&](int64_t) { ++count; });
    EXPECT_EQ(count, static_cast<int>(reference.count(key))) << key;
  }
}

}  // namespace
}  // namespace mmdb
