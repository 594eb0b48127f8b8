#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>

namespace mmdb {
namespace {

class BufferPoolTest : public ::testing::TestWithParam<ReplacementPolicy> {
 protected:
  BufferPoolTest() : disk_(64), pool_(&disk_, 4, GetParam()) {
    file_ = disk_.CreateFile("t");
  }

  SimulatedDisk disk_;
  BufferPool pool_;
  SimulatedDisk::FileId file_;
};

TEST_P(BufferPoolTest, NewPageIsZeroedAndWritableBack) {
  {
    auto ref = pool_.New(file_);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 0);
    std::memset(ref->data(), 'x', 64);
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  char buf[64];
  ASSERT_TRUE(disk_.ReadPage(file_, 0, buf, IoKind::kSequential).ok());
  EXPECT_EQ(buf[0], 'x');
}

TEST_P(BufferPoolTest, FetchHitsAfterFirstFault) {
  {
    auto ref = pool_.New(file_);
    ASSERT_TRUE(ref.ok());
  }
  pool_.ResetStats();
  for (int i = 0; i < 3; ++i) {
    auto ref = pool_.Fetch(file_, 0);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pool_.stats().hits, 3);
  EXPECT_EQ(pool_.stats().faults, 0);
}

TEST_P(BufferPoolTest, EvictionWritesBackDirtyVictims) {
  // Fill beyond capacity; dirty pages must round-trip through disk.
  for (int i = 0; i < 8; ++i) {
    auto ref = pool_.New(file_);
    ASSERT_TRUE(ref.ok());
    std::memset(ref->data(), 'a' + i, 64);
    ref->MarkDirty();
  }
  // All 8 pages must read back correctly even though only 4 frames exist.
  for (int i = 0; i < 8; ++i) {
    auto ref = pool_.Fetch(file_, i);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 'a' + i) << "page " << i;
  }
  EXPECT_GT(pool_.stats().evictions, 0);
}

TEST_P(BufferPoolTest, AllPinnedFailsCleanly) {
  std::vector<BufferPool::PageRef> pins;
  for (int i = 0; i < 4; ++i) {
    auto ref = pool_.New(file_);
    ASSERT_TRUE(ref.ok());
    pins.push_back(std::move(*ref));
  }
  auto overflow = pool_.New(file_);
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  pins.clear();
  EXPECT_TRUE(pool_.New(file_).ok());
}

TEST_P(BufferPoolTest, PinnedPagesAreNeverEvicted) {
  auto pinned = pool_.New(file_);
  ASSERT_TRUE(pinned.ok());
  std::memset(pinned->data(), 'P', 64);
  pinned->MarkDirty();
  for (int i = 0; i < 20; ++i) {
    auto ref = pool_.New(file_);
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_TRUE(pool_.Contains(file_, pinned->page_no()));
  EXPECT_EQ(pinned->data()[0], 'P');
}

TEST_P(BufferPoolTest, EvictFileDropsEverything) {
  for (int i = 0; i < 3; ++i) {
    auto ref = pool_.New(file_);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool_.EvictFile(file_).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(pool_.Contains(file_, i));
  }
  // Content persisted on eviction.
  char buf[64];
  ASSERT_TRUE(disk_.ReadPage(file_, 2, buf, IoKind::kSequential).ok());
}

// A file about to be deleted leaves the pool unwritten, so no later
// eviction writes to a file that no longer exists.
TEST_P(BufferPoolTest, DropFileDiscardsDirtyFramesUnwritten) {
  for (int i = 0; i < 3; ++i) {
    auto ref = pool_.New(file_);
    ASSERT_TRUE(ref.ok());
    std::memset(ref->data(), 'd', 64);
    ref->MarkDirty();
  }
  pool_.ResetStats();
  ASSERT_TRUE(pool_.DropFile(file_).ok());
  EXPECT_EQ(pool_.stats().writebacks, 0);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(pool_.Contains(file_, i));
  disk_.DeleteFile(file_);
  // The freed frames serve another file without touching the deleted one.
  const SimulatedDisk::FileId other = disk_.CreateFile("u");
  for (int i = 0; i < 8; ++i) {
    auto ref = pool_.New(other);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ref->MarkDirty();
  }
}

TEST_P(BufferPoolTest, MovedPageRefReleasesOnce) {
  auto ref = pool_.New(file_);
  ASSERT_TRUE(ref.ok());
  BufferPool::PageRef moved = std::move(*ref);
  EXPECT_TRUE(moved.valid());
  moved.Release();
  EXPECT_FALSE(moved.valid());
  // Frame is unpinned: a full refill of the pool must succeed.
  std::vector<BufferPool::PageRef> pins;
  for (int i = 0; i < 4; ++i) {
    auto r = pool_.New(file_);
    ASSERT_TRUE(r.ok());
    pins.push_back(std::move(*r));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, BufferPoolTest,
                         ::testing::Values(ReplacementPolicy::kRandom,
                                           ReplacementPolicy::kLru,
                                           ReplacementPolicy::kClock),
                         [](const auto& info) {
                           switch (info.param) {
                             case ReplacementPolicy::kRandom:
                               return "Random";
                             case ReplacementPolicy::kLru:
                               return "Lru";
                             case ReplacementPolicy::kClock:
                               return "Clock";
                           }
                           return "Unknown";
                         });

TEST(BufferPoolLruTest, LruEvictsColdestPage) {
  SimulatedDisk disk(64);
  BufferPool pool(&disk, 2, ReplacementPolicy::kLru);
  auto file = disk.CreateFile("t");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(disk.AllocatePage(file).ok());
  }
  { auto r = pool.Fetch(file, 0); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Fetch(file, 1); ASSERT_TRUE(r.ok()); }
  { auto r = pool.Fetch(file, 0); ASSERT_TRUE(r.ok()); }  // 0 is hot
  { auto r = pool.Fetch(file, 2); ASSERT_TRUE(r.ok()); }  // evicts 1
  EXPECT_TRUE(pool.Contains(file, 0));
  EXPECT_FALSE(pool.Contains(file, 1));
  EXPECT_TRUE(pool.Contains(file, 2));
}

TEST(BufferPoolModelTest, RandomPolicyMatchesPaperFaultModel) {
  // §2: with random replacement, fault rate for uniform access over S pages
  // with |M| frames is ~(1 - |M|/S).
  SimulatedDisk disk(64);
  constexpr int64_t kPages = 400;
  constexpr int64_t kFrames = 100;
  BufferPool pool(&disk, kFrames, ReplacementPolicy::kRandom, 11);
  auto file = disk.CreateFile("t");
  for (int64_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(disk.AllocatePage(file).ok());
  }
  Random rng(3);
  // Warm up.
  for (int i = 0; i < 2000; ++i) {
    auto r = pool.Fetch(file, static_cast<int64_t>(rng.Uniform(kPages)));
    ASSERT_TRUE(r.ok());
  }
  pool.ResetStats();
  constexpr int kAccesses = 20000;
  for (int i = 0; i < kAccesses; ++i) {
    auto r = pool.Fetch(file, static_cast<int64_t>(rng.Uniform(kPages)));
    ASSERT_TRUE(r.ok());
  }
  const double fault_rate = double(pool.stats().faults) / kAccesses;
  const double model = 1.0 - double(kFrames) / double(kPages);
  EXPECT_NEAR(fault_rate, model, 0.03);
}

TEST(BufferPoolFaultTest, TransientReadFaultIsRetriedTransparently) {
  SimulatedDisk disk(64);
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  BufferPool pool(&disk, 2);
  auto file = disk.CreateFile("t");
  char page[64];
  std::memset(page, 'a', sizeof(page));
  ASSERT_TRUE(disk.WritePage(file, 0, page, IoKind::kSequential).ok());
  injector.ScheduleFault(injector.ops(), FaultKind::kTransientError);
  auto ref = pool.Fetch(file, 0);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->data()[0], 'a');
  EXPECT_EQ(pool.stats().io_retries, 1);
}

TEST(BufferPoolFaultTest, BadSectorExhaustsRetriesWithoutLeakingFrames) {
  SimulatedDisk disk(64);
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  BufferPool pool(&disk, 1);  // a leaked frame would empty this pool
  auto file = disk.CreateFile("t");
  char page[64] = {};
  ASSERT_TRUE(disk.WritePage(file, 0, page, IoKind::kSequential).ok());
  ASSERT_TRUE(disk.WritePage(file, 1, page, IoKind::kSequential).ok());
  injector.MarkPermanentError(FaultDevice::kDataDisk, file, 0);
  for (int round = 0; round < 3; ++round) {
    auto bad = pool.Fetch(file, 0);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kRetryExhausted) << round;
    // The single frame went back to the free list: a healthy page still
    // fits in the pool after every failure.
    auto good = pool.Fetch(file, 1);
    ASSERT_TRUE(good.ok()) << round;
  }
  EXPECT_EQ(pool.stats().io_retries, 3 * kDefaultMaxIoAttempts);
}

TEST(BufferPoolFaultTest, OutOfRangeIsNotRetried) {
  SimulatedDisk disk(64);
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  BufferPool pool(&disk, 2);
  auto file = disk.CreateFile("t");
  auto r = pool.Fetch(file, 5);
  ASSERT_FALSE(r.ok());
  // A structural error is surfaced as-is; backoff would just waste time.
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool.stats().io_retries, 0);
}

}  // namespace
}  // namespace mmdb
