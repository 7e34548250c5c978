#include <gtest/gtest.h>

#include "types/batch.h"
#include "types/schema.h"
#include "types/value.h"

namespace cloudviews {
namespace {

// --- DataType ----------------------------------------------------------------

TEST(DataTypeTest, StringRoundTrip) {
  DataType t;
  EXPECT_TRUE(DataTypeFromString("int", &t));
  EXPECT_EQ(t, DataType::kInt64);
  EXPECT_TRUE(DataTypeFromString("string", &t));
  EXPECT_EQ(t, DataType::kString);
  EXPECT_TRUE(DataTypeFromString("date", &t));
  EXPECT_EQ(t, DataType::kDate);
  EXPECT_FALSE(DataTypeFromString("blob", &t));
}

// --- Value ---------------------------------------------------------------------

TEST(ValueTest, BasicAccessors) {
  EXPECT_EQ(Value::Int64(5).int64_value(), 5);
  EXPECT_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("hi").string_value(), "hi");
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_TRUE(Value::Null(DataType::kInt64).is_null());
}

TEST(ValueTest, DateParseFormatRoundTrip) {
  int64_t days = 0;
  ASSERT_TRUE(ParseDate("2018-06-15", &days));
  EXPECT_EQ(FormatDate(days), "2018-06-15");
  ASSERT_TRUE(ParseDate("1970-01-01", &days));
  EXPECT_EQ(days, 0);
  ASSERT_TRUE(ParseDate("1969-12-31", &days));
  EXPECT_EQ(days, -1);
}

TEST(ValueTest, DateFromStringInvalid) {
  EXPECT_TRUE(Value::DateFromString("garbage").is_null());
  EXPECT_TRUE(Value::DateFromString("2018-13-05").is_null());
}

TEST(ValueTest, CompareSameType) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)), 0);
  EXPECT_EQ(Value::Int64(2).Compare(Value::Int64(2)), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
  EXPECT_LT(Value::Double(1.5).Compare(Value::Double(2.0)), 0);
}

TEST(ValueTest, CompareMixedNumeric) {
  EXPECT_EQ(Value::Int64(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int64(1).Compare(Value::Double(1.5)), 0);
}

TEST(ValueTest, NullsSortFirst) {
  Value null = Value::Null(DataType::kInt64);
  EXPECT_LT(null.Compare(Value::Int64(-100)), 0);
  EXPECT_EQ(null.Compare(Value::Null(DataType::kString)), 0);
}

TEST(ValueTest, HashEqualForEqualValues) {
  HashBuilder a, b;
  Value::Int64(7).HashInto(&a);
  Value::Int64(7).HashInto(&b);
  EXPECT_EQ(a.Finish(), b.Finish());
}

TEST(ValueTest, HashDistinguishesNull) {
  HashBuilder a, b;
  Value::Int64(0).HashInto(&a);
  Value::Null(DataType::kInt64).HashInto(&b);
  EXPECT_NE(a.Finish(), b.Finish());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Int64(3).ToString(), "3");
  EXPECT_EQ(Value::String("x").ToString(), "\"x\"");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Null(DataType::kDouble).ToString(), "NULL");
  EXPECT_EQ(Value::DateFromString("2018-01-02").ToString(), "2018-01-02");
}

// --- Schema --------------------------------------------------------------------

TEST(SchemaTest, FieldLookup) {
  Schema s;
  s.AddField("a", DataType::kInt64);
  s.AddField("b", DataType::kString);
  EXPECT_EQ(s.FieldIndex("a"), 0);
  EXPECT_EQ(s.FieldIndex("b"), 1);
  EXPECT_EQ(s.FieldIndex("c"), -1);
  EXPECT_TRUE(s.HasField("b"));
}

TEST(SchemaTest, EqualityAndToString) {
  Schema a({{"x", DataType::kInt64}});
  Schema b({{"x", DataType::kInt64}});
  Schema c({{"x", DataType::kDouble}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.ToString(), "x:int64");
}

TEST(SchemaTest, HashDiffersOnFieldName) {
  Schema a({{"x", DataType::kInt64}});
  Schema b({{"y", DataType::kInt64}});
  HashBuilder ha, hb;
  a.HashInto(&ha);
  b.HashInto(&hb);
  EXPECT_NE(ha.Finish(), hb.Finish());
}

// --- Column / Batch --------------------------------------------------------------

TEST(ColumnTest, AppendAndGet) {
  Column c(DataType::kInt64);
  c.AppendInt64(1);
  c.AppendInt64(2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetValue(1).int64_value(), 2);
  EXPECT_FALSE(c.HasNulls());
}

TEST(ColumnTest, NullTracking) {
  Column c(DataType::kString);
  c.AppendString("a");
  c.AppendNull();
  c.AppendString("b");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_TRUE(c.GetValue(1).is_null());
  EXPECT_TRUE(c.HasNulls());
}

TEST(ColumnTest, AppendValueTypeBridgesIntAndDate) {
  Column c(DataType::kDate);
  c.AppendValue(Value::Date(10));
  c.AppendValue(Value::Int64(20));  // shares int64 payload
  EXPECT_EQ(c.GetValue(0).date_value(), 10);
  EXPECT_EQ(c.GetValue(1).date_value(), 20);
}

TEST(ColumnTest, AppendFromPreservesNulls) {
  Column src(DataType::kDouble);
  src.AppendDouble(1.5);
  src.AppendNull();
  Column dst(DataType::kDouble);
  dst.AppendFrom(src, 0);
  dst.AppendFrom(src, 1);
  EXPECT_DOUBLE_EQ(dst.GetValue(0).double_value(), 1.5);
  EXPECT_TRUE(dst.IsNull(1));
}

TEST(BatchTest, AppendRowAndRead) {
  Schema schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
  Batch b(schema);
  ASSERT_TRUE(b.AppendRow({Value::Int64(1), Value::String("one")}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(2), Value::String("two")}).ok());
  EXPECT_EQ(b.num_rows(), 2u);
  auto row = b.GetRow(1);
  EXPECT_EQ(row[0].int64_value(), 2);
  EXPECT_EQ(row[1].string_value(), "two");
}

TEST(BatchTest, AppendRowArityMismatch) {
  Schema schema({{"id", DataType::kInt64}});
  Batch b(schema);
  EXPECT_TRUE(b.AppendRow({Value::Int64(1), Value::Int64(2)})
                  .IsInvalidArgument());
}

TEST(BatchTest, AppendRowFromOtherBatch) {
  Schema schema({{"v", DataType::kInt64}});
  Batch a(schema), b(schema);
  ASSERT_TRUE(a.AppendRow({Value::Int64(9)}).ok());
  b.AppendRowFrom(a, 0);
  EXPECT_EQ(b.GetRow(0)[0].int64_value(), 9);
}

TEST(BatchTest, ByteSizeCountsStrings) {
  Schema schema({{"s", DataType::kString}});
  Batch b(schema);
  ASSERT_TRUE(b.AppendRow({Value::String("0123456789")}).ok());
  EXPECT_GE(b.ByteSize(), 10);
}

// ByteSize keeps a running string-length total; this walks the payload the
// way ByteSize did before that total existed. A validity vector exists
// exactly when some row is NULL, one byte per row.
int64_t ReferenceByteSize(const Column& c) {
  int64_t bytes = c.HasNulls() ? static_cast<int64_t>(c.size()) : 0;
  switch (c.type()) {
    case DataType::kBool:
      return bytes + static_cast<int64_t>(c.size());
    case DataType::kInt64:
    case DataType::kDate:
    case DataType::kDouble:
      return bytes + static_cast<int64_t>(c.size()) * 8;
    case DataType::kString:
      for (const auto& s : c.string_data()) {
        bytes += static_cast<int64_t>(s.size()) + 8;
      }
      return bytes;
  }
  return bytes;
}

TEST(ColumnTest, ByteSizeMatchesReferenceWalkOnEveryAppendPath) {
  Column src(DataType::kString);
  src.AppendString("alpha");
  src.AppendNull();
  src.AppendString("");
  src.AppendString("a much longer string payload");
  src.AppendValue(Value::String("via-value"));
  src.AppendValue(Value::Null(DataType::kString));
  ASSERT_EQ(src.ByteSize(), ReferenceByteSize(src));

  Column dst(DataType::kString);
  auto check = [&](const char* step) {
    EXPECT_EQ(dst.ByteSize(), ReferenceByteSize(dst)) << step;
  };
  dst.AppendFrom(src, 0);
  check("AppendFrom");
  dst.AppendFrom(src, 1);
  check("AppendFrom NULL");
  dst.AppendRangeFrom(src, 2, 5);
  check("AppendRangeFrom without NULL");
  dst.AppendRangeFrom(src, 0, 6);
  check("AppendRangeFrom with NULL");
  const uint32_t valid_rows[] = {3, 0, 3};
  dst.AppendGather(src, valid_rows, 3);
  check("AppendGather without NULL");
  const uint32_t mixed_rows[] = {5, 3, 1, 4};
  dst.AppendGather(src, mixed_rows, 4);
  check("AppendGather with NULL");
  Column copy = dst;
  EXPECT_EQ(copy.ByteSize(), ReferenceByteSize(copy));
  Column moved = std::move(copy);
  EXPECT_EQ(moved.ByteSize(), ReferenceByteSize(moved));

  // The fixed-width types, with and without NULLs.
  Column ints(DataType::kInt64);
  ints.AppendInt64(7);
  EXPECT_EQ(ints.ByteSize(), ReferenceByteSize(ints));
  ints.AppendNull();
  EXPECT_EQ(ints.ByteSize(), ReferenceByteSize(ints));
  Column flags(DataType::kBool);
  flags.AppendBool(true);
  Column more_flags(DataType::kBool);
  more_flags.AppendBool(false);
  more_flags.AppendNull();
  flags.AppendRangeFrom(more_flags, 0, 2);
  EXPECT_EQ(flags.ByteSize(), ReferenceByteSize(flags));

  // Batch-level appends route through the same column paths.
  Schema schema({{"s", DataType::kString}, {"d", DataType::kDouble}});
  Batch a(schema);
  ASSERT_TRUE(a.AppendRow({Value::String("xyz"), Value::Double(1.5)}).ok());
  ASSERT_TRUE(a.AppendRow({Value::Null(DataType::kString),
                           Value::Double(2.5)})
                  .ok());
  Batch b(schema);
  b.AppendRowFrom(a, 0);
  b.AppendRowsFrom(a, 0, 2);
  const uint32_t rows[] = {1, 0};
  b.AppendGather(a, rows, 2);
  EXPECT_EQ(b.ByteSize(), ReferenceByteSize(b.column(0)) +
                              ReferenceByteSize(b.column(1)));
}

TEST(BatchTest, ToStringTruncates) {
  Schema schema({{"v", DataType::kInt64}});
  Batch b(schema);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(b.AppendRow({Value::Int64(i)}).ok());
  }
  std::string s = b.ToString(5);
  EXPECT_NE(s.find("15 more rows"), std::string::npos);
}

}  // namespace
}  // namespace cloudviews
