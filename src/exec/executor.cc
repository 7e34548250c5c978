#include "exec/executor.h"

#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "exec/batch_ops.h"
#include "exec/physical_operator.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"

namespace cloudviews {

Batch CombineBatches(const Schema& schema,
                     const std::vector<Batch>& batches) {
  Batch out(schema);
  for (const auto& b : batches) {
    out.AppendRowsFrom(b, 0, b.num_rows());
  }
  return out;
}

Batch SortBatch(const Batch& data, const std::vector<SortKey>& keys) {
  std::vector<uint32_t> order =
      StableSortOrder(data, ResolveSortKeys(data.schema(), keys));
  Batch out(data.schema());
  out.AppendGather(data, order.data(), order.size());
  return out;
}

Result<std::vector<Batch>> PartitionBatch(const Batch& data,
                                          const Partitioning& partitioning) {
  size_t count = partitioning.partition_count > 0
                     ? static_cast<size_t>(partitioning.partition_count)
                     : 1;
  std::vector<Batch> parts(count, Batch(data.schema()));
  if (partitioning.scheme != PartitionScheme::kHash) {
    parts[0] = data;
    return parts;
  }
  CV_ASSIGN_OR_RETURN(std::vector<int> cols,
                      ResolveColumns(data.schema(), partitioning.columns));
  std::vector<std::vector<uint32_t>> buckets(count);
  BucketRows(data, cols, &buckets);
  for (size_t p = 0; p < count; ++p) {
    parts[p].AppendGather(data, buckets[p].data(), buckets[p].size());
  }
  return parts;
}

/// Per-Execute driver state, used by every task of the call.
struct Executor::ExecState {
  /// Null runs everything inline on the submitting thread.
  ThreadPool* pool = nullptr;
  size_t morsel_rows = 4096;
  MonotonicClock* clock = nullptr;
  /// Executor-wide counters (null when uninstrumented).
  obs::Counter* morsels = nullptr;
  obs::Counter* rows = nullptr;
  obs::Counter* bytes = nullptr;
  Mutex mu;
  /// Aggregate stats for the whole Execute call; concurrently-finishing
  /// operators insert their per-operator rows under mu.
  JobRunStats* stats PT_GUARDED_BY(mu) = nullptr;
};

namespace {

/// Partition count N of the hash Exchange under child i of `node` when
/// `node` reproduces that Exchange itself, else 0.
///
/// In this single-process engine a hash Exchange only reorders rows: row r
/// goes to partition HashRowKeys(r).lo % N, each partition keeps global row
/// order, and the partitions are concatenated. A hash join or hash
/// aggregate hashes every input row on its keys anyway; when the Exchange
/// partitions on exactly those keys, in the same order, the consumer reads
/// each row's partition off that hash (see OperatorContext::
/// absorbed_partitions), and the Exchange's copy of every column of every
/// row is skipped. The operator-kind tests mirror how JoinOperator and
/// AggregateOperator pick their algorithm.
size_t AbsorbedPartitions(const PlanNode& node, size_t i) {
  const PlanNode& child = *node.children()[i];
  if (child.kind() != OpKind::kExchange) return 0;
  const Partitioning& p =
      static_cast<const ExchangeNode&>(child).partitioning();
  if (p.scheme != PartitionScheme::kHash) return 0;
  std::vector<std::string> keys;
  if (node.kind() == OpKind::kJoin) {
    const auto& join = static_cast<const JoinNode&>(node);
    if (join.algorithm() == JoinAlgorithm::kMerge) return 0;
    keys = i == 0 ? join.LeftKeys() : join.RightKeys();
  } else if (node.kind() == OpKind::kAggregate) {
    const auto& agg = static_cast<const AggregateNode&>(node);
    if (agg.algorithm() == AggAlgorithm::kStream) return 0;
    keys = agg.group_keys();
  } else {
    return 0;
  }
  if (keys.empty() || p.columns != keys) return 0;
  return p.partition_count > 0 ? static_cast<size_t>(p.partition_count) : 1;
}

}  // namespace

Result<JobRunStats> Executor::Execute(const PlanNodePtr& root) {
  if (!root->bound()) {
    return Status::InvalidArgument("plan must be bound before execution");
  }
  JobRunStats stats;
  ExecState state;
  state.pool =
      ctx_.options.worker_threads > 1 ? ctx_.pool : nullptr;
  state.morsel_rows =
      ctx_.options.morsel_rows > 0
          ? static_cast<size_t>(ctx_.options.morsel_rows)
          : size_t{1};
  state.clock = ctx_.clock != nullptr ? ctx_.clock : MonotonicClock::Real();
  if (ctx_.metrics != nullptr) {
    state.morsels = ctx_.metrics->GetCounter(
        "cv_exec_morsels_total", {}, "Morsels processed by all operators");
    state.rows = ctx_.metrics->GetCounter(
        "cv_exec_rows_total", {}, "Rows produced by all operators");
    state.bytes = ctx_.metrics->GetCounter(
        "cv_exec_bytes_total", {}, "Bytes produced by all operators");
  }
  state.stats = &stats;

  double start = state.clock->NowSeconds();

  CV_ASSIGN_OR_RETURN(MorselSet result, ExecuteNode(root.get(), &state));
  stats.latency_seconds = state.clock->NowSeconds() - start;
  for (const auto& [id, op] : stats.operators) {
    stats.cpu_seconds += op.cpu_seconds;
  }
  stats.output_rows = static_cast<double>(MorselRowCount(result));
  stats.output_bytes = static_cast<double>(MorselByteSize(result));
  return stats;
}

void Executor::RecordOperator(ExecState* state,
                              const OperatorRuntimeStats& op_stats,
                              uint64_t morsels) {
  if (state->morsels != nullptr) {
    state->morsels->Increment(morsels);
    state->rows->Increment(static_cast<uint64_t>(op_stats.rows));
    state->bytes->Increment(static_cast<uint64_t>(op_stats.bytes));
  }
  MutexLock lock(state->mu);
  state->stats->operators[op_stats.node_id] = op_stats;
}

Result<MorselSet> Executor::ExecuteChild(PlanNode* node, size_t i,
                                         size_t absorbed,
                                         ExecState* state) {
  PlanNode* child = node->children()[i].get();
  if (absorbed == 0) return ExecuteNode(child, state);
  // The skipped Exchange runs its input and keeps its stats row: rows and
  // bytes are what it would have emitted (it only reorders rows), its own
  // time and CPU are 0, and its subtree time is its input's.
  double start = state->clock->NowSeconds();
  CV_ASSIGN_OR_RETURN(MorselSet in,
                      ExecuteNode(child->children()[0].get(), state));
  OperatorRuntimeStats op_stats;
  op_stats.node_id = child->id();
  op_stats.kind = child->kind();
  op_stats.rows = static_cast<double>(MorselRowCount(in));
  op_stats.bytes = static_cast<double>(MorselByteSize(in));
  op_stats.inclusive_seconds = state->clock->NowSeconds() - start;
  RecordOperator(state, op_stats, /*morsels=*/0);
  return in;
}

Result<MorselSet> Executor::ExecuteNode(PlanNode* node, ExecState* state) {
  double subtree_start = state->clock->NowSeconds();

  // A hash Exchange on this node's keys is absorbed: the node is handed
  // the Exchange's input and reproduces its order.
  size_t num_children = node->children().size();
  std::vector<size_t> absorbed(num_children, 0);
  for (size_t i = 0; i < num_children; ++i) {
    absorbed[i] = AbsorbedPartitions(*node, i);
  }

  // Execute children — independent subtrees — concurrently when a pool is
  // available. Error reporting is deterministic: the lowest-index failing
  // child wins regardless of completion order.
  std::vector<MorselSet> inputs(num_children);
  std::vector<Status> child_status(num_children, Status::OK());
  auto run_child = [&](size_t i) {
    auto r = ExecuteChild(node, i, absorbed[i], state);
    if (r.ok()) {
      inputs[i] = std::move(r).ValueOrDie();
    } else {
      child_status[i] = r.status();
    }
  };
  if (state->pool != nullptr && num_children > 1) {
    TaskGroup group(state->pool);
    for (size_t i = 0; i < num_children; ++i) {
      group.Spawn([&run_child, i] { run_child(i); });
    }
    group.Wait();
  } else {
    for (size_t i = 0; i < num_children; ++i) run_child(i);
  }
  for (auto& s : child_status) CV_RETURN_NOT_OK(s);

  // The operator's own work: open, phased morsel processing, close. Every
  // callback is wrapped in a thread-CPU timer; cpu_seconds is the sum of
  // the deltas across all workers that touched this operator.
  CpuAccumulator cpu;
  OperatorContext octx;
  octx.exec = &ctx_;
  octx.pool = state->pool;
  octx.morsel_rows = state->morsel_rows;
  octx.cpu = &cpu;
  octx.absorbed_partitions = std::move(absorbed);

  double own_start = state->clock->NowSeconds();
  CV_ASSIGN_OR_RETURN(std::unique_ptr<PhysicalOperator> op,
                      MakePhysicalOperator(node));
  {
    ScopedThreadCpuTimer timer(&cpu);
    CV_RETURN_NOT_OK(op->Open(octx, std::move(inputs)));
  }
  uint64_t total_morsels = 0;
  for (size_t phase = 0; phase < op->num_phases(); ++phase) {
    {
      ScopedThreadCpuTimer timer(&cpu);
      CV_RETURN_NOT_OK(op->PreparePhase(octx, phase));
    }
    size_t n = op->NumMorsels(phase);
    total_morsels += n;
    std::vector<Status> morsel_status(n, Status::OK());
    ParallelFor(state->pool, n, [&](size_t m) {
      ScopedThreadCpuTimer timer(&cpu);
      if (ctx_.fault != nullptr) {
        Status injected = ctx_.fault->MaybeInject(
            fault::points::kExecMorsel,
            std::to_string(ctx_.job_id) + ":" +
                std::to_string(node->id()) + ":" + std::to_string(phase) +
                ":" + std::to_string(m));
        if (!injected.ok()) {
          morsel_status[m] = std::move(injected);
          return;
        }
      }
      morsel_status[m] = op->ProcessMorsel(octx, phase, m);
    });
    // Deterministic error selection: lowest morsel index wins.
    for (auto& s : morsel_status) CV_RETURN_NOT_OK(s);
  }
  MorselSet out;
  {
    ScopedThreadCpuTimer timer(&cpu);
    CV_ASSIGN_OR_RETURN(out, op->Close(octx));
  }

  double end = state->clock->NowSeconds();
  OperatorRuntimeStats op_stats;
  op_stats.node_id = node->id();
  op_stats.kind = node->kind();
  op_stats.rows = static_cast<double>(MorselRowCount(out));
  op_stats.bytes = static_cast<double>(MorselByteSize(out));
  op_stats.exclusive_seconds = end - own_start;
  // Wall span of the whole subtree. With parallel children this is the
  // real elapsed time (not the sum of child times), so the invariant
  // job latency >= root inclusive >= any exclusive still holds.
  op_stats.inclusive_seconds = end - subtree_start;
  op_stats.cpu_seconds = cpu.seconds();
  RecordOperator(state, op_stats, total_morsels);
  return out;
}

}  // namespace cloudviews
