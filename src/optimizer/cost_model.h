#ifndef CLOUDVIEWS_OPTIMIZER_COST_MODEL_H_
#define CLOUDVIEWS_OPTIMIZER_COST_MODEL_H_

#include "optimizer/view_interfaces.h"
#include "plan/plan_node.h"
#include "storage/storage_manager.h"

namespace cloudviews {

/// Weights of the abstract cost model.
///
/// Shuffles and sorts dominate, mirroring SCOPE where repartitioning and
/// sorting "are often the slowest steps in the job execution" (Sec 5.3).
namespace cost_weights {
inline constexpr double kScan = 1.0;        // per input row scanned
inline constexpr double kFilter = 0.2;      // per input row
inline constexpr double kProject = 0.3;     // per input row
inline constexpr double kHashJoin = 1.5;    // per input row (both sides)
inline constexpr double kMergeJoin = 0.8;   // per input row (both sides)
inline constexpr double kHashAgg = 1.5;     // per input row
inline constexpr double kStreamAgg = 0.6;   // per input row
inline constexpr double kSort = 0.4;        // per row * log2(rows)
inline constexpr double kShuffle = 4.0;     // per row through an exchange
inline constexpr double kProcess = 2.0;     // per input row (opaque user code)
inline constexpr double kViewRead = 0.6;    // per view row scanned
inline constexpr double kSpool = 1.2;       // per row written to the view
inline constexpr double kOutput = 0.8;      // per row written
inline constexpr double kTop = 0.05;        // per output row
inline constexpr double kBytes = 2e-5;      // per byte moved at scans/shuffles
}  // namespace cost_weights

/// Degree of parallelism assumed for partitioned stages: local work is
/// divided by min(dop, partition count).
inline constexpr int kDefaultDop = 16;

/// \brief Cardinality / size / cost estimation over a plan tree.
///
/// Selectivity heuristics are intentionally crude (the paper's point is
/// that optimizer estimates "are often way off", Sec 5.1); when a
/// StatsProviderInterface is supplied, per-subgraph observed statistics
/// override the estimates — that is the CloudViews feedback loop.
class CostModel {
 public:
  /// Annotates every node's NodeEstimates (rows, bytes, cumulative cost),
  /// bottom-up. `feedback` and `storage` may be null; storage supplies
  /// compile-time input-stream statistics for Extract nodes.
  void Annotate(PlanNode* root, const StatsProviderInterface* feedback,
                const StorageManager* storage) const;

  /// Estimated selectivity of a predicate (heuristic).
  static double PredicateSelectivity(const Expr& predicate);

  /// Cost of scanning a materialized view with the given size, as used by
  /// the reuse decision.
  double ViewReadCost(double rows, double bytes) const;

  /// Cost of this operator alone given total child output rows/bytes
  /// (children estimates must already be annotated).
  double LocalCost(const PlanNode& node, double input_rows,
                   double input_bytes) const;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_COST_MODEL_H_
