#ifndef CLOUDVIEWS_EXEC_EXECUTOR_H_
#define CLOUDVIEWS_EXEC_EXECUTOR_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "exec/exec_options.h"
#include "exec/morsel.h"
#include "exec/operator_stats.h"
#include "fault/backoff.h"
#include "plan/plan_node.h"
#include "storage/storage_manager.h"

namespace cloudviews {

namespace fault {
class FaultInjector;
}  // namespace fault

class MonotonicClock;
class ThreadPool;
namespace obs {
class MetricsRegistry;
}  // namespace obs

/// \brief Per-job execution environment.
struct ExecContext {
  StorageManager* storage = nullptr;
  uint64_t job_id = 0;

  /// Optional registry for executor counters (morsels, rows, bytes); null
  /// disables instrumentation entirely.
  obs::MetricsRegistry* metrics = nullptr;

  /// Wall-time source for latency attribution; null uses the real
  /// monotonic clock. Injectable so span/latency tests are deterministic.
  MonotonicClock* clock = nullptr;

  /// Shared worker pool (owned by the job service, not by the job); null or
  /// worker_threads <= 1 runs the plan single-threaded on the submitting
  /// thread.
  ThreadPool* pool = nullptr;
  ExecOptions options;

  /// Invoked when a SpoolNode finishes writing its view — *before* the rest
  /// of the job completes. This is the early-materialization hook
  /// (Sec 6.4): the job manager publishes the view to the metadata service
  /// from here so concurrent jobs can already reuse it.
  std::function<void(const SpoolNode&, const StreamData&)>
      on_view_materialized;

  /// Expiry assigned to views materialized by this job (0 = never); set
  /// from the analyzer's lineage-based estimate (Sec 5.4).
  LogicalTime view_expiry = 0;

  /// Invoked when a SpoolNode's view write failed and the partial output
  /// was discarded ("do no harm": the job continues on the spool's input).
  /// The job manager releases the build lock from here.
  std::function<void(const SpoolNode&, const Status&)> on_view_abandoned;

  /// Fault-injection seam for exec.morsel (and, via storage, the
  /// storage.* points). Null disables injection.
  fault::FaultInjector* fault = nullptr;
  /// Backoff schedule for transient view-read retries.
  fault::RetryPolicy retry;
  /// Sleeps between retries; null means the real sleeper. Tests inject a
  /// RecordingSleeper so retries are instantaneous and assertable.
  fault::Sleeper* sleeper = nullptr;
};

/// \brief Morsel-driven executor over the storage manager.
///
/// Each plan node is run by a PhysicalOperator (open / process-morsel /
/// close); operators still fully materialize their outputs — as ordered
/// morsel sets — which keeps per-operator latency/cardinality/size
/// attribution exact, precisely the statistics the CloudViews feedback
/// loop consumes. Independent plan subtrees and intra-operator morsel work
/// are scheduled onto the shared thread pool; per-operator cpu_seconds are
/// the sum of thread-CPU deltas across every worker that touched the
/// operator. Results are byte-identical for every worker count and morsel
/// size. Plans must be bound and have node ids assigned.
///
/// Plans are trees whose partitionings are hash or singleton (or
/// unspecified). Every path that runs a plan (Optimizer::Optimize, a
/// plan-cache replay through FinishCachedPlan, the offline view build)
/// runs a Clone(), and PlanNode::Clone copies each child separately, so no
/// node is reached through two parents. The planner only requires hash or
/// singleton partitioning, and mined view designs are what it delivered.
///
/// One node kind may be skipped: a hash Exchange whose parent is a hash
/// join or hash aggregate on exactly its keys. The parent reproduces the
/// exchanged row order from the key hashes it computes anyway, and the
/// skipped Exchange keeps a stats row with its input's rows and bytes and
/// no time of its own (see DESIGN.md, "Absorbed Exchanges").
class Executor {
 public:
  explicit Executor(ExecContext ctx) : ctx_(std::move(ctx)) {}

  /// Runs the plan; job outputs (Output nodes) and views (Spool nodes) are
  /// written to storage. Returns aggregate + per-operator statistics.
  Result<JobRunStats> Execute(const PlanNodePtr& root);

 private:
  struct ExecState;

  /// Runs `node`'s subtree: its children (concurrently when a pool is
  /// available), then its operator.
  Result<MorselSet> ExecuteNode(PlanNode* node, ExecState* state);
  /// Runs child i of `node`; when `absorbed` > 0 that child is a hash
  /// Exchange the node reproduces itself, so only the Exchange's input
  /// runs and the Exchange gets a zero-work stats row.
  Result<MorselSet> ExecuteChild(PlanNode* node, size_t i, size_t absorbed,
                                 ExecState* state);
  /// Adds one operator's stats row and executor counters.
  static void RecordOperator(ExecState* state,
                             const OperatorRuntimeStats& op_stats,
                             uint64_t morsels);

  ExecContext ctx_;
};

/// Concatenates batches into one (helper shared with storage/view code).
Batch CombineBatches(const Schema& schema, const std::vector<Batch>& batches);

/// Sorts `data` rows by the given keys (ascending/descending per key).
/// Used by the Sort operator and by view physical design enforcement.
Batch SortBatch(const Batch& data, const std::vector<SortKey>& keys);

/// Splits rows by hash of the partitioning columns; returns one batch per
/// partition (empty partitions included). Other schemes return the input
/// as partition 0.
Result<std::vector<Batch>> PartitionBatch(const Batch& data,
                                          const Partitioning& partitioning);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_EXECUTOR_H_
