#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <cstring>

#include "storage/relation.h"

namespace mmdb {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest()
      : disk_(128),
        pool_(&disk_, 8),
        file_(&disk_, "heap"),
        heap_(&pool_, &file_, 16) {}

  SimulatedDisk disk_;
  BufferPool pool_;
  PageFile file_;
  HeapFile heap_;
};

TEST_F(HeapFileTest, AppendAssignsSequentialRecordIds) {
  char rec[16] = {};
  for (int i = 0; i < 20; ++i) {
    rec[0] = static_cast<char>(i);
    auto rid = heap_.Append(rec);
    ASSERT_TRUE(rid.ok());
    EXPECT_EQ(rid->page_no, i / heap_.records_per_page());
    EXPECT_EQ(rid->slot, i % heap_.records_per_page());
  }
  EXPECT_EQ(heap_.num_records(), 20);
}

TEST_F(HeapFileTest, GetAndUpdateRoundTrip) {
  char rec[16] = {};
  rec[0] = 'a';
  auto rid = heap_.Append(rec);
  ASSERT_TRUE(rid.ok());
  char out[16];
  ASSERT_TRUE(heap_.Get(*rid, out).ok());
  EXPECT_EQ(out[0], 'a');
}

TEST_F(HeapFileTest, GetBadSlotFails) {
  char rec[16] = {};
  ASSERT_TRUE(heap_.Append(rec).ok());
  char out[16];
  EXPECT_EQ(heap_.Get(RecordId{0, 7}, out).code(), StatusCode::kOutOfRange);
}

TEST_F(HeapFileTest, ScanVisitsEverythingInOrder) {
  char rec[16] = {};
  for (int i = 0; i < 25; ++i) {
    rec[0] = static_cast<char>(i);
    ASSERT_TRUE(heap_.Append(rec).ok());
  }
  int expected = 0;
  ASSERT_TRUE(heap_
                  .Scan([&](RecordId, const char* r) {
                    EXPECT_EQ(r[0], static_cast<char>(expected));
                    ++expected;
                  })
                  .ok());
  EXPECT_EQ(expected, 25);
}

TEST(PagedRecordWriterTest, WriteReadRoundTrip) {
  SimulatedDisk disk(64);
  PagedRecordWriter writer(&disk, 10, IoKind::kSequential, "spill");
  char rec[10];
  for (int i = 0; i < 37; ++i) {
    std::memset(rec, i, sizeof(rec));
    ASSERT_TRUE(writer.Append(rec).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.records_written(), 37);
  // (64-8)/10 = 5 records per page -> 8 pages.
  EXPECT_EQ(writer.pages_written(), 8);

  auto file = writer.ReleaseFile();
  PagedRecordReader reader(&disk, file, 10, IoKind::kSequential);
  int count = 0;
  while (reader.Next(rec)) {
    EXPECT_EQ(rec[0], static_cast<char>(count));
    ++count;
  }
  EXPECT_EQ(count, 37);
  disk.DeleteFile(file);
}

TEST(PagedRecordWriterTest, EmptyFileReadsNothing) {
  SimulatedDisk disk(64);
  PagedRecordWriter writer(&disk, 10, IoKind::kSequential, "spill");
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.pages_written(), 0);
  auto file = writer.ReleaseFile();
  PagedRecordReader reader(&disk, file, 10, IoKind::kSequential);
  char rec[10];
  EXPECT_FALSE(reader.Next(rec));
  disk.DeleteFile(file);
}

TEST(PagedRecordWriterTest, DestructorDeletesUnreleasedFile) {
  SimulatedDisk disk(64);
  {
    PagedRecordWriter writer(&disk, 10, IoKind::kSequential, "spill");
    char rec[10] = {};
    ASSERT_TRUE(writer.Append(rec).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  EXPECT_EQ(disk.TotalPages(), 0);
}

TEST(PagedRecordWriterTest, ChargesDeclaredIoKind) {
  CostClock clock;
  SimulatedDisk disk(64, &clock);
  PagedRecordWriter writer(&disk, 10, IoKind::kRandom, "spill");
  char rec[10] = {};
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(writer.Append(rec).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(clock.counters().rand_ios, writer.pages_written());
  EXPECT_EQ(clock.counters().seq_ios, 0);
}

TEST(RelationTest, HeapFileRoundTrip) {
  SimulatedDisk disk(256);
  BufferPool pool(&disk, 8);
  PageFile file(&disk, "rel");
  Schema schema({Column::Int64("k"), Column::Char("s", 8)});
  Relation rel(schema);
  for (int64_t i = 0; i < 50; ++i) {
    rel.Add({i, std::string("v") + std::to_string(i % 10)});
  }
  HeapFile heap(&pool, &file, schema.record_size());
  ASSERT_TRUE(rel.ToHeapFile(&heap).ok());
  auto back = Relation::FromHeapFile(schema, &heap);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_tuples(), 50);
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(back->RowAt(i), rel.RowAt(i));
  }
}

TEST(RelationTest, NumPagesMatchesPageCapacity) {
  Schema schema({Column::Int64("k"), Column::Char("pad", 92)});  // 100 B
  Relation rel(schema);
  for (int i = 0; i < 85; ++i) rel.Add({int64_t{i}, std::string()});
  // 40 tuples per 4096-byte page -> 3 pages for 85 tuples.
  EXPECT_EQ(rel.TuplesPerPage(4096), 40);
  EXPECT_EQ(rel.NumPages(4096), 3);
}

TEST(RelationTest, SortByOrdersRows) {
  Schema schema({Column::Int64("k")});
  Relation rel(schema);
  rel.Add({int64_t{3}});
  rel.Add({int64_t{1}});
  rel.Add({int64_t{2}});
  rel.SortBy(0);
  EXPECT_EQ(std::get<int64_t>(rel.rows()[0][0]), 1);
  EXPECT_EQ(std::get<int64_t>(rel.rows()[2][0]), 3);
}

}  // namespace
}  // namespace mmdb
