#ifndef CLOUDVIEWS_EXEC_BATCH_OPS_H_
#define CLOUDVIEWS_EXEC_BATCH_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "plan/physical_properties.h"
#include "types/batch.h"

namespace cloudviews {

/// Maps column names to indices in `schema`; Internal error on a miss.
Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names);

/// 128-bit key of the given columns of every row of `batch` (hash join,
/// hash aggregate and hash partitioning), hashed a whole column at a time.
/// Row r's key is bit-identical to feeding each key cell's
/// Value::HashInto into one HashBuilder, in column order: NULL feeds
/// 0xdead, bool 0/1, int64 and date the integer, double its bits (-0.0
/// folded to 0.0), string its bytes.
void HashRowKeys(const Batch& batch, const std::vector<int>& cols,
                 std::vector<Hash128>* out);

/// Lexicographic comparison of row `ra` of `a` against row `rb` of `b` on
/// the given key columns, in Value::Compare's order (NULL first) without
/// boxing. Paired columns must share a storage type (int64 and date do);
/// JoinNode rejects other mixes at bind.
int CompareRowsOnColumns(const Batch& a, size_t ra, const std::vector<int>& ca,
                         const Batch& b, size_t rb,
                         const std::vector<int>& cb);

/// Sort keys resolved against a schema; unknown keys are skipped (they are
/// validated at bind time), matching SortBatch.
struct ResolvedSortKeys {
  std::vector<int> cols;
  std::vector<bool> ascending;
  bool empty() const { return cols.empty(); }
};
ResolvedSortKeys ResolveSortKeys(const Schema& schema,
                                 const std::vector<SortKey>& keys);

/// -1/0/1 ordering of two rows under the resolved sort keys.
int CompareRowsSorted(const Batch& a, size_t ra, const Batch& b, size_t rb,
                      const ResolvedSortKeys& keys);

/// Row permutation that stable-sorts `data` under the resolved keys.
std::vector<uint32_t> StableSortOrder(const Batch& data,
                                      const ResolvedSortKeys& keys);

/// The one hash partition assignment (Exchange and PartitionBatch): appends
/// the index of every row of `batch` to buckets[p] of its partition
/// p = HashRowKeys(hash_cols).lo % count, in row order. `buckets` must hold
/// count lists.
void BucketRows(const Batch& batch, const std::vector<int>& hash_cols,
                std::vector<std::vector<uint32_t>>* buckets);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_BATCH_OPS_H_
