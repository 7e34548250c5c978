#ifndef CLOUDVIEWS_PERFBENCH_FOLD_H_
#define CLOUDVIEWS_PERFBENCH_FOLD_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"

namespace cloudviews {
namespace perfbench {

/// Per-span-name time of one or more folded span trees, in seconds.
struct FoldResult {
  /// Self time: the span's interval minus the parts its children cover.
  std::map<std::string, double> self;
  /// The span's interval after clipping (inclusive of its children).
  std::map<std::string, double> total;
  /// Sum of the root intervals folded so far.
  double root_seconds = 0;
};

/// Adds one job to `out`: a benchmark-owned interval [start, end] named
/// `name`, with the program's span trees `children` under it (read in
/// place, not copied). Each child is first clipped to its parent's
/// interval; where siblings overlap, the overlap is credited to the sibling
/// that starts first (ties: the earlier child). The self times of one job
/// therefore partition its interval exactly: they sum to end - start, so
/// nothing is counted twice or dropped.
void FoldSelfTimes(const std::string& name, double start, double end,
                   std::vector<const obs::SpanRecord*> children,
                   FoldResult* out);

/// Parses the span-tree JSON that obs::SpanToJson writes (the profile a
/// wire client gets from Client::FetchProfile) back into a SpanRecord.
Result<std::unique_ptr<obs::SpanRecord>> ParseSpanJson(std::string_view json);

}  // namespace perfbench
}  // namespace cloudviews

#endif  // CLOUDVIEWS_PERFBENCH_FOLD_H_
