#include "index/avl_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.h"

namespace mmdb {
namespace {

TEST(AvlTreeTest, InsertFindBasics) {
  AvlTree tree;
  tree.Insert(Value{int64_t{5}}, 50);
  tree.Insert(Value{int64_t{3}}, 30);
  tree.Insert(Value{int64_t{8}}, 80);
  EXPECT_EQ(tree.size(), 3);
  EXPECT_EQ(*tree.Find(Value{int64_t{3}}), 30);
  EXPECT_EQ(*tree.Find(Value{int64_t{8}}), 80);
  EXPECT_EQ(tree.Find(Value{int64_t{9}}).status().code(),
            StatusCode::kNotFound);
}

TEST(AvlTreeTest, StringKeys) {
  AvlTree tree;
  tree.Insert(Value{std::string("jones")}, 1);
  tree.Insert(Value{std::string("smith")}, 2);
  EXPECT_EQ(*tree.Find(Value{std::string("jones")}), 1);
  ASSERT_TRUE(tree.ValidateInvariants().ok());
}

TEST(AvlTreeTest, SequentialInsertStaysBalanced) {
  AvlTree tree;
  constexpr int64_t kN = 4096;
  for (int64_t i = 0; i < kN; ++i) {
    tree.Insert(Value{i}, i);
  }
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  // AVL height bound: < 1.4405 log2(n+2).
  EXPECT_LE(tree.height(), static_cast<int>(1.4405 * std::log2(kN + 2)) + 1);
}

TEST(AvlTreeTest, DuplicatesAllFoundByScan) {
  AvlTree tree;
  for (int i = 0; i < 5; ++i) tree.Insert(Value{int64_t{7}}, 100 + i);
  tree.Insert(Value{int64_t{6}}, 1);
  tree.Insert(Value{int64_t{8}}, 2);
  std::multiset<int64_t> payloads;
  tree.ScanFrom(Value{int64_t{7}}, [&](const Value& k, int64_t p) {
    if (std::get<int64_t>(k) != 7) return false;
    payloads.insert(p);
    return true;
  });
  EXPECT_EQ(payloads.size(), 5u);
  ASSERT_TRUE(tree.ValidateInvariants().ok());
}

TEST(AvlTreeTest, ScanFromStartsAtLowerBoundInOrder) {
  AvlTree tree;
  for (int64_t i = 0; i < 100; i += 2) tree.Insert(Value{i}, i);
  std::vector<int64_t> seen;
  tree.ScanFrom(
      Value{int64_t{31}},
      [&](const Value& k, int64_t) {
        seen.push_back(std::get<int64_t>(k));
        return true;
      },
      5);
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen, (std::vector<int64_t>{32, 34, 36, 38, 40}));
}

TEST(AvlTreeTest, ComparisonsMatchPaperModel) {
  // §2: finding a tuple needs ~log2(n) + 0.25 comparisons.
  AvlTree tree;
  constexpr int64_t kN = 8192;
  Random rng(5);
  std::vector<int64_t> keys(kN);
  for (int64_t i = 0; i < kN; ++i) keys[size_t(i)] = i;
  rng.Shuffle(&keys);
  for (int64_t k : keys) tree.Insert(Value{k}, k);

  tree.ResetStats();
  constexpr int kLookups = 2000;
  for (int i = 0; i < kLookups; ++i) {
    ASSERT_TRUE(tree.Find(Value{keys[rng.Uniform(kN)]}).ok());
  }
  const double avg_comparisons =
      double(tree.stats().comparisons) / kLookups;
  const double model = std::log2(double(kN)) + 0.25;
  EXPECT_NEAR(avg_comparisons, model, 1.5);
}

TEST(AvlTreeTest, FaultSimulationMatchesPaperModel) {
  // §2: faults per lookup = C * (1 - |M|/S) under random replacement.
  AvlTree tree;
  constexpr int64_t kN = 8192;
  Random rng(6);
  std::vector<int64_t> keys(kN);
  for (int64_t i = 0; i < kN; ++i) keys[size_t(i)] = i;
  rng.Shuffle(&keys);
  for (int64_t k : keys) tree.Insert(Value{k}, k);

  constexpr int64_t kPages = 512;
  constexpr int64_t kMemory = 256;  // half resident
  tree.ConfigurePaging(kPages, kMemory);
  // Warm the resident set, then measure.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Find(Value{keys[rng.Uniform(kN)]}).ok());
  }
  tree.ResetStats();
  constexpr int kLookups = 2000;
  for (int i = 0; i < kLookups; ++i) {
    ASSERT_TRUE(tree.Find(Value{keys[rng.Uniform(kN)]}).ok());
  }
  const double avg_faults = double(tree.stats().page_faults) / kLookups;
  const double c = std::log2(double(kN)) + 0.25;
  const double model = c * (1.0 - double(kMemory) / double(kPages));
  // The paper's C*(1 - |M|/S) assumes every visited page is uniformly
  // random. Real traversals hit the hot upper levels every time, so the
  // model is a (fairly loose) UPPER bound — an interesting reproduction
  // finding recorded in EXPERIMENTS.md. The deep-node visits still fault
  // at ~(1 - |M|/S), so a substantial fraction of the model must appear.
  EXPECT_LE(avg_faults, model * 1.05);
  EXPECT_GE(avg_faults, model * 0.3);
}

// Two 8-byte fields, so the struct has no padding: gtest names each case
// by a byte dump of its parameter, and padding bytes would be whatever
// the stack held, changing the name from build to build.
struct RandomOpsParam {
  uint64_t seed;
  int64_t ops;
};

class AvlRandomOpsTest : public ::testing::TestWithParam<RandomOpsParam> {};

TEST_P(AvlRandomOpsTest, InvariantsHoldUnderRandomWorkload) {
  // Property test: under random inserts and lookups, every lookup agrees
  // with a reference multiset and the tree keeps its structural invariants.
  const RandomOpsParam param = GetParam();
  Random rng(param.seed);
  AvlTree tree;
  std::multiset<int64_t> reference;
  for (int op = 0; op < param.ops; ++op) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(200));
    if (rng.Bernoulli(0.6)) {
      tree.Insert(Value{key}, key);
      reference.insert(key);
    } else {
      const StatusOr<int64_t> found = tree.Find(Value{key});
      ASSERT_EQ(found.ok(), reference.count(key) > 0) << "op " << op;
      if (found.ok()) {
        EXPECT_EQ(*found, key);
      }
    }
    if (op % 64 == 0) {
      ASSERT_TRUE(tree.ValidateInvariants().ok()) << "op " << op;
    }
  }
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_EQ(tree.size(), static_cast<int64_t>(reference.size()));
  // Full in-order scan equals the sorted reference.
  std::vector<int64_t> scanned;
  tree.ScanFrom(Value{int64_t{-1}}, [&](const Value& k, int64_t) {
    scanned.push_back(std::get<int64_t>(k));
    return true;
  });
  std::vector<int64_t> expected(reference.begin(), reference.end());
  EXPECT_EQ(scanned, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AvlRandomOpsTest,
    ::testing::Values(RandomOpsParam{1, 500}, RandomOpsParam{2, 1000},
                      RandomOpsParam{3, 2000}, RandomOpsParam{99, 4000}));

}  // namespace
}  // namespace mmdb
