#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>

#include "exec/join.h"
#include "storage/relation.h"
#include "storage/row.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace mmdb {
namespace {

Schema TestSchema() {
  return Schema({Column::Int64("id"), Column::Char("name", 12),
                 Column::Double("salary")});
}

TEST(ValueTest, TypeOfMatchesAlternative) {
  EXPECT_EQ(TypeOf(Value{int64_t{1}}), ValueType::kInt64);
  EXPECT_EQ(TypeOf(Value{2.5}), ValueType::kDouble);
  EXPECT_EQ(TypeOf(Value{std::string("x")}), ValueType::kString);
}

TEST(ValueTest, CompareOrdersWithinType) {
  EXPECT_LT(CompareValues(Value{int64_t{1}}, Value{int64_t{2}}), 0);
  EXPECT_GT(CompareValues(Value{int64_t{5}}, Value{int64_t{-5}}), 0);
  EXPECT_EQ(CompareValues(Value{2.5}, Value{2.5}), 0);
  EXPECT_LT(CompareValues(Value{std::string("abc")},
                          Value{std::string("abd")}),
            0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(HashValue(Value{int64_t{42}}), HashValue(Value{int64_t{42}}));
  EXPECT_NE(HashValue(Value{int64_t{42}}), HashValue(Value{int64_t{43}}));
  EXPECT_EQ(HashValue(Value{std::string("k")}),
            HashValue(Value{std::string("k")}));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(ValueToString(Value{int64_t{-7}}), "-7");
  EXPECT_EQ(ValueToString(Value{std::string("hi")}), "hi");
  EXPECT_EQ(ValueToString(Value{1.5}), "1.5");
}

TEST(SchemaTest, OffsetsAndRecordSize) {
  Schema s = TestSchema();
  EXPECT_EQ(s.record_size(), 8 + 12 + 8);
  EXPECT_EQ(s.offset(0), 0);
  EXPECT_EQ(s.offset(1), 8);
  EXPECT_EQ(s.offset(2), 20);
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.ColumnIndex("salary"), 2);
  EXPECT_EQ(s.ColumnIndex("nope").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ConcatRenamesCollisions) {
  Schema a({Column::Int64("id"), Column::Int64("x")});
  Schema b({Column::Int64("id"), Column::Int64("y")});
  Schema c = Schema::Concat(a, b);
  ASSERT_EQ(c.num_columns(), 4);
  EXPECT_EQ(c.column(0).name, "id");
  EXPECT_EQ(c.column(2).name, "r_id");
  EXPECT_EQ(c.record_size(), 32);
}

TEST(SchemaTest, SelectSubset) {
  Schema s = TestSchema();
  Schema sel = s.Select({2, 0});
  ASSERT_EQ(sel.num_columns(), 2);
  EXPECT_EQ(sel.column(0).name, "salary");
  EXPECT_EQ(sel.column(1).name, "id");
}

TEST(RowTest, SerializeDeserializeRoundTrip) {
  Schema s = TestSchema();
  Row row = {int64_t{42}, std::string("jones"), 12345.5};
  std::vector<char> buf(static_cast<size_t>(s.record_size()));
  ASSERT_TRUE(SerializeRow(s, row, buf.data()).ok());
  Row back = DeserializeRow(s, buf.data());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(back[0]), 42);
  EXPECT_EQ(std::get<std::string>(back[1]), "jones");
  EXPECT_DOUBLE_EQ(std::get<double>(back[2]), 12345.5);
}

TEST(RowTest, StringPaddedAndWidthChecked) {
  Schema s = TestSchema();
  std::vector<char> buf(static_cast<size_t>(s.record_size()));
  Row exact = {int64_t{1}, std::string(12, 'a'), 0.0};
  EXPECT_TRUE(SerializeRow(s, exact, buf.data()).ok());
  Row too_wide = {int64_t{1}, std::string(13, 'a'), 0.0};
  EXPECT_EQ(SerializeRow(s, too_wide, buf.data()).code(),
            StatusCode::kInvalidArgument);
}

TEST(RowTest, ArityAndTypeMismatchRejected) {
  Schema s = TestSchema();
  std::vector<char> buf(static_cast<size_t>(s.record_size()));
  EXPECT_EQ(SerializeRow(s, {int64_t{1}}, buf.data()).code(),
            StatusCode::kInvalidArgument);
  Row bad_type = {std::string("x"), std::string("y"), 0.0};
  EXPECT_EQ(SerializeRow(s, bad_type, buf.data()).code(),
            StatusCode::kInvalidArgument);
}

TEST(RowTest, EmbeddedNulInStringTruncatesAtDeserialize) {
  // Fixed-width CHAR uses zero padding, so embedded '\0' acts as a
  // terminator on read-back — documents the CHAR(n) contract.
  Schema s({Column::Char("c", 8)});
  std::vector<char> buf(8);
  ASSERT_TRUE(SerializeRow(s, {std::string("ab")}, buf.data()).ok());
  Row back = DeserializeRow(s, buf.data());
  EXPECT_EQ(std::get<std::string>(back[0]), "ab");
}

TEST(RowTest, ConcatAndCompare) {
  // Joins concatenate records; fields compare in place as their Values do.
  Relation a(Schema({Column::Int64("x"), Column::Int64("y")}));
  Relation b(Schema({Column::Int64("z")}));
  a.Add({int64_t{1}, int64_t{2}});
  b.Add({int64_t{3}});
  Relation c(Schema::Concat(a.schema(), b.schema()));
  exec_internal::EmitJoined(a.record(0), a.schema().record_size(),
                            b.record(0), &c);
  ASSERT_EQ(c.num_tuples(), 1);
  EXPECT_EQ(RowToString(c.RowAt(0)), "1|2|3");
  EXPECT_LT(CompareFields(Field::Of(a.schema(), 0), a.record(0),
                          Field::Of(b.schema(), 0), b.record(0)),
            0);
}

/// The bit pattern of a double: NaN payloads and the sign of zero survive.
uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(RelationTest, AddRowsRoundTripIsBitExact) {
  const double nan = std::bit_cast<double>(uint64_t{0x7FF800000000BEEFull});
  Relation rel(Schema({Column::Int64("i"), Column::Double("d"),
                       Column::Char("s", 6)}));
  const std::vector<Row> rows = {
      {int64_t{std::numeric_limits<int64_t>::min()}, 0.0, std::string()},
      {int64_t{std::numeric_limits<int64_t>::max()}, -0.0,
       std::string("abcdef")},
      {int64_t{0}, nan, std::string("x")},
  };
  for (const Row& row : rows) rel.Add(row);
  const std::vector<Row> back = rel.rows();
  ASSERT_EQ(back.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(std::get<int64_t>(back[r][0]), std::get<int64_t>(rows[r][0]));
    EXPECT_EQ(Bits(std::get<double>(back[r][1])),
              Bits(std::get<double>(rows[r][1])));
    EXPECT_EQ(std::get<std::string>(back[r][2]),
              std::get<std::string>(rows[r][2]));
  }
  // Fields hash and compare in place exactly as their Values do.
  for (int c = 0; c < 3; ++c) {
    const Field f = Field::Of(rel.schema(), c);
    for (int64_t r = 0; r < rel.num_tuples(); ++r) {
      EXPECT_EQ(f.Hash(rel.record(r)), HashValue(back[size_t(r)][size_t(c)]));
      for (int64_t q = 0; q < rel.num_tuples(); ++q) {
        EXPECT_EQ(CompareFields(f, rel.record(r), f, rel.record(q)),
                  CompareValues(back[size_t(r)][size_t(c)],
                                back[size_t(q)][size_t(c)]));
      }
    }
  }
}

TEST(RelationTest, RecordsStayPutAcrossBlocks) {
  Relation rel(Schema({Column::Int64("i"), Column::Char("s", 3)}));
  const int64_t n = 3 * Relation::kBlockRecords + 5;
  std::vector<const char*> addresses;
  for (int64_t i = 0; i < n; ++i) {
    rel.Add({i, std::to_string(i % 1000)});
    addresses.push_back(rel.record(i));
  }
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(rel.record(i), addresses[size_t(i)]) << i;
    EXPECT_EQ(Field::Of(rel.schema(), 0).Int(rel.record(i)), i);
  }
  // Moving the relation moves no block.
  const Relation moved = std::move(rel);
  EXPECT_EQ(moved.record(n - 1), addresses.back());
}

TEST(RelationTest, ReserveSizesASmallRelationAndGrowsPastIt) {
  const Schema schema({Column::Int64("i"), Column::Char("s", 3)});
  const Field id = Field::Of(schema, 0);
  Relation rel(schema);
  rel.Reserve(3);
  for (int64_t i = 0; i < 3; ++i) rel.Add({i, std::to_string(i)});
  EXPECT_EQ(rel.allocated_bytes(),
            int64_t(sizeof(Relation)) + 3 * schema.record_size());
  EXPECT_EQ(rel.allocated_bytes(), Relation::ReservedBytes(schema, 3));
  // Past its reservation the short block becomes a full one; every record
  // keeps its bytes.
  const int64_t n = Relation::kBlockRecords + 2;
  for (int64_t i = 3; i < n; ++i) rel.Add({i, std::to_string(i % 1000)});
  EXPECT_EQ(rel.allocated_bytes(), Relation::ReservedBytes(schema, n));
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(id.Int(rel.record(i)), i);
  // A copy holds only the records it needs.
  Relation one(schema);
  one.Add({int64_t{7}, std::string("abc")});
  const Relation copy = one;
  EXPECT_EQ(copy.allocated_bytes(), Relation::ReservedBytes(schema, 1));
  EXPECT_EQ(copy.RowAt(0), one.RowAt(0));
  // A moved-from relation holds nothing.
  const Relation moved = std::move(rel);
  EXPECT_EQ(moved.num_tuples(), n);
  EXPECT_EQ(rel.num_tuples(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(rel.allocated_bytes(), int64_t(sizeof(Relation)));
}

TEST(RelationTest, SortByIsStable) {
  Relation rel(Schema({Column::Int64("k"), Column::Int64("seq")}));
  for (int64_t i = 0; i < 2000; ++i) rel.Add({(i * 7919) % 13, i});
  rel.SortBy(0);
  ASSERT_EQ(rel.num_tuples(), 2000);
  for (int64_t i = 1; i < rel.num_tuples(); ++i) {
    const Row prev = rel.RowAt(i - 1);
    const Row cur = rel.RowAt(i);
    ASSERT_LE(std::get<int64_t>(prev[0]), std::get<int64_t>(cur[0]));
    if (std::get<int64_t>(prev[0]) == std::get<int64_t>(cur[0])) {
      EXPECT_LT(std::get<int64_t>(prev[1]), std::get<int64_t>(cur[1]));
    }
  }
}

}  // namespace
}  // namespace mmdb
