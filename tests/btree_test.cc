#include "index/btree.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "common/random.h"

namespace mmdb {
namespace {

/// Small pages stress splits; payload carries the key for verification.
class BTreeTest : public ::testing::Test {
 protected:
  static constexpr int64_t kPageSize = 256;

  BTreeTest()
      : disk_(kPageSize),
        pool_(&disk_, 64),
        file_(&disk_, "btree"),
        tree_(&pool_, &file_, BTreeOptions{8, 8}) {}

  void Key(int64_t v, char* out) { BPlusTree::EncodeInt64Key(v, out, 8); }

  Status Insert(int64_t k, int64_t payload) {
    char key[8], val[8];
    Key(k, key);
    std::memcpy(val, &payload, sizeof(payload));
    return tree_.Insert(key, val);
  }

  StatusOr<int64_t> Find(int64_t k) {
    char key[8], val[8];
    Key(k, key);
    MMDB_RETURN_IF_ERROR(tree_.Find(key, val));
    int64_t payload;
    std::memcpy(&payload, val, sizeof(payload));
    return payload;
  }

  SimulatedDisk disk_;
  BufferPool pool_;
  PageFile file_;
  BPlusTree tree_;
};

TEST_F(BTreeTest, InsertFindSmall) {
  ASSERT_TRUE(Insert(5, 50).ok());
  ASSERT_TRUE(Insert(1, 10).ok());
  ASSERT_TRUE(Insert(9, 90).ok());
  EXPECT_EQ(*Find(5), 50);
  EXPECT_EQ(*Find(1), 10);
  EXPECT_EQ(*Find(9), 90);
  EXPECT_EQ(Find(2).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(tree_.ValidateInvariants().ok());
}

TEST_F(BTreeTest, GrowsThroughManySplits) {
  constexpr int64_t kN = 5000;
  Random rng(8);
  std::vector<int64_t> keys(kN);
  for (int64_t i = 0; i < kN; ++i) keys[size_t(i)] = i;
  rng.Shuffle(&keys);
  for (int64_t k : keys) ASSERT_TRUE(Insert(k, k * 2).ok());
  ASSERT_TRUE(tree_.ValidateInvariants().ok());
  EXPECT_EQ(tree_.size(), kN);
  EXPECT_GT(tree_.height(), 2);
  for (int64_t i = 0; i < kN; i += 97) {
    EXPECT_EQ(*Find(i), i * 2) << i;
  }
}

TEST_F(BTreeTest, SequentialInsertAlsoValid) {
  for (int64_t i = 0; i < 2000; ++i) ASSERT_TRUE(Insert(i, i).ok());
  ASSERT_TRUE(tree_.ValidateInvariants().ok());
  EXPECT_EQ(*Find(1999), 1999);
}

TEST_F(BTreeTest, ScanFromWalksLeafChainInOrder) {
  Random rng(3);
  std::vector<int64_t> keys(1000);
  for (int64_t i = 0; i < 1000; ++i) keys[size_t(i)] = i * 3;
  rng.Shuffle(&keys);
  for (int64_t k : keys) ASSERT_TRUE(Insert(k, k).ok());

  char low[8];
  Key(500, low);
  std::vector<int64_t> seen;
  ASSERT_TRUE(tree_
                  .ScanFrom(
                      low,
                      [&](const char* key, const char*) {
                        // Decode big-endian.
                        int64_t v = 0;
                        for (int i = 0; i < 8; ++i) {
                          v = (v << 8) |
                              static_cast<unsigned char>(key[i]);
                        }
                        seen.push_back(v);
                        return true;
                      },
                      10)
                  .ok());
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), 501 / 3 * 3 == 501 ? 501 : ((500 + 2) / 3) * 3);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[i - 1] + 3);
  }
}

TEST_F(BTreeTest, DuplicatesAreAllScannable) {
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(Insert(7, 100 + i).ok());
  ASSERT_TRUE(Insert(6, 1).ok());
  ASSERT_TRUE(Insert(8, 2).ok());
  ASSERT_TRUE(tree_.ValidateInvariants().ok());
  char low[8];
  Key(7, low);
  int count = 0;
  ASSERT_TRUE(tree_
                  .ScanFrom(low,
                            [&](const char* key, const char*) {
                              char seven[8];
                              BPlusTree::EncodeInt64Key(7, seven, 8);
                              if (std::memcmp(key, seven, 8) != 0) {
                                return false;
                              }
                              ++count;
                              return true;
                            })
                  .ok());
  EXPECT_EQ(count, 40);
}

TEST_F(BTreeTest, GeometryMatchesPaperModel) {
  // Internal fanout ~ P/(K+4); leaf capacity ~ (P-8)/(K+V).
  EXPECT_EQ(tree_.internal_fanout(), (kPageSize - 8 + 8) / (8 + 4));
  EXPECT_EQ(tree_.leaf_capacity(), (kPageSize - 8) / 16);
}

TEST_F(BTreeTest, RandomInsertOccupancyNearYao69Percent) {
  // [YAO78]: B-tree nodes are ~69% full under random insertion.
  Random rng(17);
  std::vector<int64_t> keys(20000);
  for (int64_t i = 0; i < 20000; ++i) keys[size_t(i)] = i;
  rng.Shuffle(&keys);
  for (int64_t k : keys) ASSERT_TRUE(Insert(k, k).ok());
  auto fill = tree_.AvgLeafFill();
  ASSERT_TRUE(fill.ok());
  EXPECT_NEAR(*fill, 0.69, 0.06);
}

TEST(BTreeKeyTest, Int64EncodingPreservesOrder) {
  char a[8], b[8];
  const int64_t values[] = {0, 1, 255, 256, 65535, 1 << 30,
                            (int64_t{1} << 40) + 3};
  for (size_t i = 0; i + 1 < std::size(values); ++i) {
    BPlusTree::EncodeInt64Key(values[i], a, 8);
    BPlusTree::EncodeInt64Key(values[i + 1], b, 8);
    EXPECT_LT(std::memcmp(a, b, 8), 0) << values[i];
  }
}

TEST(BTreeKeyTest, NarrowKeysWork) {
  char a[4], b[4];
  BPlusTree::EncodeInt64Key(1000, a, 4);
  BPlusTree::EncodeInt64Key(1001, b, 4);
  EXPECT_LT(std::memcmp(a, b, 4), 0);
}

TEST(BTreeKeyTest, StringKeysPadAndTruncate) {
  char a[8], b[8];
  BPlusTree::EncodeStringKey("abc", a, 8);
  BPlusTree::EncodeStringKey("abd", b, 8);
  EXPECT_LT(std::memcmp(a, b, 8), 0);
  BPlusTree::EncodeStringKey("same_prefix_x", a, 8);
  BPlusTree::EncodeStringKey("same_prefix_y", b, 8);
  EXPECT_EQ(std::memcmp(a, b, 8), 0);  // truncated to the same 8 bytes
}

struct BTreeParam {
  int32_t key_width;
  int32_t payload_width;
  int64_t n;
};

class BTreeGeometryTest : public ::testing::TestWithParam<BTreeParam> {};

TEST_P(BTreeGeometryTest, RoundTripAcrossGeometries) {
  const BTreeParam p = GetParam();
  SimulatedDisk disk(512);
  BufferPool pool(&disk, 64);
  PageFile file(&disk, "b");
  BPlusTree tree(&pool, &file, BTreeOptions{p.key_width, p.payload_width});
  Random rng(p.n);
  std::vector<int64_t> keys(static_cast<size_t>(p.n));
  for (int64_t i = 0; i < p.n; ++i) keys[size_t(i)] = i;
  rng.Shuffle(&keys);

  std::vector<char> key(static_cast<size_t>(p.key_width));
  std::vector<char> payload(static_cast<size_t>(p.payload_width), 'p');
  for (int64_t k : keys) {
    BPlusTree::EncodeInt64Key(k, key.data(), p.key_width);
    ASSERT_TRUE(tree
                    .Insert(key.data(),
                            p.payload_width ? payload.data() : nullptr)
                    .ok());
  }
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  for (int64_t k = 0; k < p.n; k += 13) {
    BPlusTree::EncodeInt64Key(k, key.data(), p.key_width);
    EXPECT_TRUE(tree.Find(key.data(), nullptr).ok()) << k;
  }
  BPlusTree::EncodeInt64Key(p.n + 5, key.data(), p.key_width);
  EXPECT_FALSE(tree.Find(key.data(), nullptr).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BTreeGeometryTest,
    ::testing::Values(BTreeParam{4, 0, 500}, BTreeParam{8, 8, 2000},
                      BTreeParam{16, 32, 1000}, BTreeParam{8, 100, 800},
                      BTreeParam{32, 8, 1500}));

}  // namespace
}  // namespace mmdb
