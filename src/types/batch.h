#ifndef CLOUDVIEWS_TYPES_BATCH_H_
#define CLOUDVIEWS_TYPES_BATCH_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "types/schema.h"
#include "types/value.h"

namespace cloudviews {

/// \brief A single column of values (struct-of-arrays storage).
///
/// Bool and date payloads share storage with uint8/int64 respectively; the
/// type tag disambiguates. Nulls are tracked in an optional validity vector
/// (empty means all-valid), matching the common columnar-engine layout.
class Column {
 public:
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const;

  void Reserve(size_t n);
  void AppendBool(bool v);
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendNull();
  /// Appends any value; the value type must match (nulls always allowed).
  void AppendValue(const Value& v);
  /// Appends row i of other (same type) to this column.
  void AppendFrom(const Column& other, size_t i);
  /// Appends rows [begin, end) of other (same type) in bulk — the fast path
  /// morsel splitting and merging rely on.
  void AppendRangeFrom(const Column& other, size_t begin, size_t end);
  /// Typed gather: appends rows[0..n) of other (same type), in order. A
  /// NULL row appends NULL with a default payload, as AppendNull does; the
  /// validity vector is created only when a gathered row is NULL. Does not
  /// reserve: callers that gather into one output in several calls Reserve
  /// the total once.
  void AppendGather(const Column& other, const uint32_t* rows, size_t n);

  bool IsNull(size_t i) const {
    return !validity_.empty() && validity_[i] == 0;
  }
  bool HasNulls() const;

  /// Materializes element i as a Value (slow path; operators use the typed
  /// vectors below on hot paths).
  Value GetValue(size_t i) const;

  // Typed accessors; valid only when type() matches.
  const std::vector<uint8_t>& bool_data() const {
    return std::get<std::vector<uint8_t>>(data_);
  }
  const std::vector<int64_t>& int64_data() const {
    return std::get<std::vector<int64_t>>(data_);
  }
  const std::vector<double>& double_data() const {
    return std::get<std::vector<double>>(data_);
  }
  const std::vector<std::string>& string_data() const {
    return std::get<std::vector<std::string>>(data_);
  }

  /// Actual byte footprint of the payload (strings measured exactly):
  /// one byte per validity entry, plus 1 per bool, 8 per int64/date/double
  /// and 8 + length per string. O(1): string lengths are summed as they
  /// are appended.
  int64_t ByteSize() const;

 private:
  void MarkValid();

  DataType type_;
  std::variant<std::vector<uint8_t>, std::vector<int64_t>,
               std::vector<double>, std::vector<std::string>>
      data_;
  std::vector<uint8_t> validity_;  // empty => all valid
  /// Sum of the lengths of the string payloads; every append path keeps it.
  int64_t string_bytes_ = 0;
};

/// \brief A horizontal chunk of rows sharing a Schema.
class Batch {
 public:
  Batch() = default;
  explicit Batch(const Schema& schema);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const;
  bool empty() const { return num_rows() == 0; }

  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Appends a full row of values; count/types must match the schema.
  Status AppendRow(const std::vector<Value>& row);

  /// Appends row i of `other` (same schema) to this batch.
  void AppendRowFrom(const Batch& other, size_t i);

  /// Appends rows [begin, end) of `other` (same schema) in bulk.
  void AppendRowsFrom(const Batch& other, size_t begin, size_t end);

  /// Appends rows[0..n) of `other` (same schema), column by column.
  void AppendGather(const Batch& other, const uint32_t* rows, size_t n);

  /// Reserves room for n rows in every column.
  void Reserve(size_t n);

  /// Materializes row i (debug / test convenience).
  std::vector<Value> GetRow(size_t i) const;

  int64_t ByteSize() const;

  /// Multi-line "col=val, ..." rendering of up to limit rows.
  std::string ToString(size_t limit = 10) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_TYPES_BATCH_H_
