#include "storage/page.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace mmdb {
namespace {

TEST(PageTest, CapacityFormula) {
  EXPECT_EQ(Page::Capacity(4096, 100), (4096 - 8) / 100);
  EXPECT_EQ(Page::Capacity(4096, 4088), 1);
}

TEST(PageTest, AppendAndRead) {
  std::vector<char> buf(256);
  Page page(buf.data(), 256, 16);
  page.Init();
  EXPECT_EQ(page.record_count(), 0);
  char rec[16];
  for (int i = 0; i < 5; ++i) {
    std::memset(rec, 'a' + i, sizeof(rec));
    ASSERT_TRUE(page.Append(rec).ok());
  }
  EXPECT_EQ(page.record_count(), 5);
  EXPECT_EQ(page.Record(3)[0], 'd');
}

TEST(PageTest, FullPageRejectsAppend) {
  std::vector<char> buf(40);  // header 8 + 2 records of 16
  Page page(buf.data(), 40, 16);
  page.Init();
  char rec[16] = {};
  ASSERT_TRUE(page.Append(rec).ok());
  ASSERT_TRUE(page.Append(rec).ok());
  EXPECT_TRUE(page.Full());
  EXPECT_EQ(page.Append(rec).code(), StatusCode::kResourceExhausted);
}

TEST(PageTest, SurvivesRawCopy) {
  // Pages are plain bytes: copying the buffer copies the page.
  std::vector<char> buf(64);
  Page page(buf.data(), 64, 8);
  page.Init();
  char rec[8] = {42};
  ASSERT_TRUE(page.Append(rec).ok());
  std::vector<char> copy = buf;
  Page view(copy.data(), 64, 8);
  EXPECT_EQ(view.record_count(), 1);
  EXPECT_EQ(view.Record(0)[0], 42);
}

}  // namespace
}  // namespace mmdb
