#ifndef CLOUDVIEWS_RUNTIME_JOB_SERVICE_H_
#define CLOUDVIEWS_RUNTIME_JOB_SERVICE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/exec_options.h"
#include "exec/executor.h"
#include "metadata/metadata_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "runtime/plan_cache.h"
#include "runtime/workload_repository.h"

namespace cloudviews {

/// \brief One job submission: a parameter-bound logical plan plus the
/// metadata the service keeps about it.
struct JobDefinition {
  std::string template_id;
  std::string cluster;
  std::string business_unit;
  std::string vc;
  std::string user;
  int recurring_instance = 0;
  LogicalTime recurrence_period = kSecondsPerDay;
  PlanNodePtr logical_plan;
  /// Tags for the metadata-service inverted index; defaulted from
  /// template/vc/user when empty.
  std::vector<std::string> tags;
};

/// Outcome of one job run.
struct JobResult {
  uint64_t job_id = 0;
  PlanNodePtr executed_plan;
  JobRunStats run_stats;
  double compile_seconds = 0;           // optimizer wall time
  double metadata_lookup_seconds = 0;   // simulated service latency
  int views_reused = 0;
  int views_materialized = 0;
  int reuse_rejected_by_cost = 0;
  int materialize_lock_denied = 0;
  /// Containment-match funnel (docs/job_profile_schema.md): all zeros for
  /// exact-only compiles and for plans served from the plan cache (the
  /// matching work done for a cached submission is zero).
  int candidates_filtered = 0;
  int containment_verified = 0;
  int containment_rejected = 0;
  /// Subset of views_reused served through containment + compensation.
  /// Unlike the funnel above, this and compensation_nodes_added describe
  /// the executed plan, so a full plan-cache hit reports them too.
  int views_reused_subsumed = 0;
  int compensation_nodes_added = 0;
  /// View reads abandoned mid-run: the rewritten plan's views were
  /// unavailable, so the job transparently re-ran its original plan
  /// (ReStore-style fallback). The job still succeeded; views_reused is
  /// reset to 0 for the plan that actually executed.
  int views_fallback = 0;
  /// The metadata lookup failed persistently and the job ran without any
  /// reuse information instead of failing.
  bool lookup_degraded = false;
  /// The plan came from the plan cache — the recurring-job fast path. The
  /// metadata lookup and the whole optimizer were skipped; parsing the
  /// job script is the caller's and still ran.
  bool plan_cache_hit = false;
  /// Metadata-service catalog epoch observed at submit (0 when the plan
  /// cache was disabled for this submission).
  uint64_t catalog_epoch = 0;
  double estimated_cost = 0;
  /// The job's finished lifecycle trace (root span "job" with
  /// metadata_lookup / optimize / execute / record children); null when
  /// the service runs without a tracer.
  std::shared_ptr<const obs::SpanRecord> trace;
};

struct JobServiceOptions {
  /// The per-job opt-in flag of Sec 4: "the runtime part is triggered by
  /// providing a command line flag during job submission".
  bool enable_cloudviews = false;
  /// Record the executed plan + stats in the workload repository (feedback
  /// loop); normally on.
  bool record_in_repository = true;
  /// Use the repository's observed statistics during optimization; ablation
  /// knob for the feedback loop (Sec 5.1).
  bool use_feedback_statistics = true;
  /// Recurring-job fast path: serve repeated templates from the
  /// signature-keyed plan cache (epoch-validated; byte-identical results).
  /// Off forces a full parse + optimize on every submission.
  bool enable_plan_cache = true;
  /// When set, the "job" span is created as a child of this span instead of
  /// a new trace root, so wire submissions nest the whole compile/execute
  /// lifecycle under the server's "net.request" span. The caller owns the
  /// parent and must keep it alive for the duration of SubmitJob; with a
  /// parent set, JobResult::trace stays null (only root spans yield a
  /// finished tree — the caller finishes its own root).
  obs::Span* parent_span = nullptr;
};

/// \brief The always-online job service: compile (with metadata lookup and
/// CloudViews rewriting), execute, publish views early, record history.
///
/// Thread-safe: concurrent SubmitJob calls model concurrent jobs on the
/// cluster, which is how the build-build synchronization of Sec 6.4 is
/// exercised.
class JobService {
 public:
  /// `fault` / `retry` / `sleeper` wire the fault-tolerance machinery:
  /// injection points, the transient-retry backoff schedule, and the sleep
  /// seam between attempts (null sleeper = real sleeps). All optional.
  JobService(SimulatedClock* clock, StorageManager* storage,
             MetadataService* metadata, WorkloadRepository* repository,
             OptimizerConfig optimizer_config = {},
             ExecOptions exec_options = {},
             fault::FaultInjector* fault = nullptr,
             fault::RetryPolicy retry = {},
             fault::Sleeper* sleeper = nullptr)
      : clock_(clock),
        storage_(storage),
        metadata_(metadata),
        repository_(repository),
        optimizer_(optimizer_config),
        exec_options_(exec_options),
        fault_(fault),
        retry_(retry),
        sleeper_(sleeper) {}

  /// Publishes job/stage metrics into `metrics` and emits one lifecycle
  /// trace per submission into `tracer` (either may be null to disable).
  /// `wall_clock` drives latency histograms and span times; null uses the
  /// real monotonic clock. Call before the first submission — instruments
  /// are registered here, not on the hot path.
  void SetObservability(obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                        MonotonicClock* wall_clock = nullptr);

  Result<JobResult> SubmitJob(const JobDefinition& def,
                              const JobServiceOptions& options = {});

  /// Submits all jobs from worker threads simultaneously (concurrent
  /// recurring jobs with the same overlapping computation).
  std::vector<Result<JobResult>> SubmitConcurrent(
      const std::vector<JobDefinition>& defs,
      const JobServiceOptions& options = {});

  /// Offline materialization mode (Sec 6.2): extracts the annotated
  /// overlapping subgraphs of `def`'s plan "while excluding any remaining
  /// operation in the job" and materializes just those, before the actual
  /// workload runs. Returns the number of views built. Annotations marked
  /// offline never materialize inline; this is how they get built.
  Result<int> MaterializeOfflineViews(const JobDefinition& def);

  uint64_t NumSubmitted() const { return next_job_id_.load() - 1; }

  /// Default tags used for the metadata inverted index.
  static std::vector<std::string> DefaultTags(const JobDefinition& def);

  /// Plan-cache introspection (hit/miss/invalidation statistics).
  const PlanCache& plan_cache() const { return plan_cache_; }

 private:
  /// Per-job state threaded through the SubmitJob stages (defined in the
  /// .cc file).
  struct JobContext;

  /// The SubmitJob stages, in order: probe → compile → execute → publish
  /// → record. A Status return fails the job.
  ///
  /// Probe: the plan-cache lookup. A full hit finishes the cached plan here
  /// (`plan_cache` span) and the compile stage only accounts for it.
  void ProbePlanCache(JobContext* job);
  /// Compile: unless the probe served the plan, metadata lookup and a cold
  /// optimize.
  Status Compile(JobContext* job);
  /// The compile stage's metadata lookup, with retries; a persistent
  /// failure degrades the job to a reuse-blind compile.
  void LookupMetadata(JobContext* job);
  /// Execute with early view publication, including the view-unavailable
  /// fallback to the original plan.
  Status Execute(JobContext* job);
  /// Publish: insert a cold-compiled plan into the plan cache.
  void PublishToPlanCache(JobContext* job);
  /// Record the executed plan in the workload repository.
  void Record(JobContext* job);

  /// The execution context for one run of `job_id`: storage, worker pool,
  /// fault seams, and the callbacks that register finished views and hand
  /// back the build locks of abandoned ones. `materialized`, when
  /// non-null, is set once a view of this run finishes writing.
  ExecContext MakeExecContext(uint64_t job_id, bool* materialized = nullptr);

  /// Returns the shared worker pool, sized from the service's ExecOptions
  /// and created on first use; null when jobs run single-threaded. The pool
  /// is shared by every concurrently running job, mirroring the shared
  /// execution slots of the cluster.
  ThreadPool* ExecutionPool() EXCLUDES(pool_mu_);

  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* succeeded = nullptr;
    obs::Counter* failed = nullptr;
    obs::Gauge* active = nullptr;
    obs::Histogram* latency = nullptr;
    obs::Histogram* stage_lookup = nullptr;
    obs::Histogram* stage_optimize = nullptr;
    obs::Histogram* stage_execute = nullptr;
    obs::Histogram* stage_record = nullptr;
    obs::Counter* views_reused = nullptr;
    obs::Counter* views_materialized = nullptr;
    obs::Counter* reuse_rejected = nullptr;
    obs::Counter* candidates_filtered = nullptr;
    obs::Counter* containment_verified = nullptr;
    obs::Counter* containment_rejected = nullptr;
    obs::Counter* views_subsumed = nullptr;
    obs::Counter* compensation_nodes = nullptr;
    obs::Counter* lock_denied = nullptr;
    obs::Counter* mat_skipped = nullptr;
    obs::Counter* views_fallback = nullptr;
    obs::Counter* fallback_jobs = nullptr;
    obs::Counter* lookup_degraded = nullptr;
    obs::Counter* views_abandoned = nullptr;
    obs::Counter* stale_registrations = nullptr;
  };

  /// Releases the build locks held by every Spool node under `root` that
  /// `job_id` still owns (idempotent per lock). Called whenever a plan
  /// carrying locks is discarded: execution failure, view-read fallback.
  void AbandonSpoolLocks(const PlanNodePtr& root, uint64_t job_id);

  /// Registers a finished view with the metadata service; on rejection
  /// (stale lease, lost registration race) deletes the written file — the
  /// metadata decision is authoritative.
  void RegisterMaterializedView(const SpoolNode& spool,
                                const StreamData& view, uint64_t job_id);

  /// True when every ViewRead under `root` still resolves to the same live
  /// view in the metadata service. Guards serving a cached rewritten plan:
  /// clock-driven view expiry bumps no catalog epoch, so the epoch check
  /// alone cannot rule out a stale view scan.
  bool CachedViewReadsLive(const PlanNodePtr& root);

  SimulatedClock* clock_;
  StorageManager* storage_;
  MetadataService* metadata_;  // may be null (CloudViews unavailable)
  WorkloadRepository* repository_;
  Optimizer optimizer_;
  ExecOptions exec_options_;
  fault::FaultInjector* fault_ = nullptr;
  fault::RetryPolicy retry_;
  fault::Sleeper* sleeper_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  MonotonicClock* wall_clock_ = MonotonicClock::Real();
  Instruments obs_;
  /// Recurring-job fast path (thread-safe; see PlanCache).
  PlanCache plan_cache_;
  std::atomic<uint64_t> next_job_id_{1};
  Mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_ GUARDED_BY(pool_mu_);  // lazily created
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_RUNTIME_JOB_SERVICE_H_
