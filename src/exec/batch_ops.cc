#include "exec/batch_ops.h"

#include <algorithm>
#include <numeric>
#include <string_view>

namespace cloudviews {

Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names) {
  std::vector<int> idx;
  idx.reserve(names.size());
  for (const auto& n : names) {
    int i = schema.FieldIndex(n);
    if (i < 0) {
      return Status::Internal("executor: column '" + n + "' not found");
    }
    idx.push_back(i);
  }
  return idx;
}

namespace {

// Feeds every row's cell of one column into its builder, as
// Value::HashInto would.
template <typename T, typename AddFn>
void HashColumn(const Column& col, const std::vector<T>& data,
                std::vector<HashBuilder>* hbs, AddFn add) {
  const size_t n = data.size();
  if (!col.HasNulls()) {
    for (size_t r = 0; r < n; ++r) add(&(*hbs)[r], data[r]);
    return;
  }
  for (size_t r = 0; r < n; ++r) {
    if (col.IsNull(r)) {
      (*hbs)[r].Add(uint64_t{0xdeadULL});
    } else {
      add(&(*hbs)[r], data[r]);
    }
  }
}

// Value::Compare of two non-null cells of one storage type.
template <typename T>
int CompareValues(const T& a, const T& b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

int CompareCells(const Column& a, size_t ra, const Column& b, size_t rb) {
  bool an = a.IsNull(ra);
  bool bn = b.IsNull(rb);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  switch (a.type()) {
    case DataType::kBool:
      return CompareValues(a.bool_data()[ra], b.bool_data()[rb]);
    case DataType::kInt64:
    case DataType::kDate:
      return CompareValues(a.int64_data()[ra], b.int64_data()[rb]);
    case DataType::kDouble:
      return CompareValues(a.double_data()[ra], b.double_data()[rb]);
    case DataType::kString: {
      int cmp = a.string_data()[ra].compare(b.string_data()[rb]);
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
  }
  return 0;
}

}  // namespace

void HashRowKeys(const Batch& batch, const std::vector<int>& cols,
                 std::vector<Hash128>* out) {
  const size_t n = batch.num_rows();
  std::vector<HashBuilder> hbs(n);
  for (int c : cols) {
    const Column& col = batch.column(static_cast<size_t>(c));
    switch (col.type()) {
      case DataType::kBool:
        HashColumn(col, col.bool_data(), &hbs,
                   [](HashBuilder* hb, uint8_t v) { hb->Add(v != 0); });
        break;
      case DataType::kInt64:
      case DataType::kDate:
        HashColumn(col, col.int64_data(), &hbs,
                   [](HashBuilder* hb, int64_t v) { hb->Add(v); });
        break;
      case DataType::kDouble:
        HashColumn(col, col.double_data(), &hbs,
                   [](HashBuilder* hb, double v) { hb->Add(v); });
        break;
      case DataType::kString:
        HashColumn(col, col.string_data(), &hbs,
                   [](HashBuilder* hb, const std::string& v) {
                     hb->Add(std::string_view(v));
                   });
        break;
    }
  }
  out->resize(n);
  for (size_t r = 0; r < n; ++r) (*out)[r] = hbs[r].Finish();
}

int CompareRowsOnColumns(const Batch& a, size_t ra, const std::vector<int>& ca,
                         const Batch& b, size_t rb,
                         const std::vector<int>& cb) {
  for (size_t k = 0; k < ca.size(); ++k) {
    int cmp = CompareCells(a.column(static_cast<size_t>(ca[k])), ra,
                           b.column(static_cast<size_t>(cb[k])), rb);
    if (cmp != 0) return cmp;
  }
  return 0;
}

ResolvedSortKeys ResolveSortKeys(const Schema& schema,
                                 const std::vector<SortKey>& keys) {
  ResolvedSortKeys resolved;
  for (const auto& k : keys) {
    int i = schema.FieldIndex(k.column);
    if (i < 0) continue;  // unknown keys are skipped (validated at bind)
    resolved.cols.push_back(i);
    resolved.ascending.push_back(k.ascending);
  }
  return resolved;
}

int CompareRowsSorted(const Batch& a, size_t ra, const Batch& b, size_t rb,
                      const ResolvedSortKeys& keys) {
  for (size_t k = 0; k < keys.cols.size(); ++k) {
    size_t c = static_cast<size_t>(keys.cols[k]);
    int cmp = CompareCells(a.column(c), ra, b.column(c), rb);
    if (cmp != 0) return keys.ascending[k] ? cmp : -cmp;
  }
  return 0;
}

std::vector<uint32_t> StableSortOrder(const Batch& data,
                                      const ResolvedSortKeys& keys) {
  std::vector<uint32_t> order(data.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CompareRowsSorted(data, a, data, b, keys) < 0;
  });
  return order;
}

void BucketRows(const Batch& batch, const std::vector<int>& hash_cols,
                std::vector<std::vector<uint32_t>>* buckets) {
  std::vector<Hash128> keys;
  HashRowKeys(batch, hash_cols, &keys);
  const size_t count = buckets->size();
  for (size_t r = 0; r < keys.size(); ++r) {
    (*buckets)[keys[r].lo % count].push_back(static_cast<uint32_t>(r));
  }
}

}  // namespace cloudviews
