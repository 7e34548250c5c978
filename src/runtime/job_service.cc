#include "runtime/job_service.h"

#include <set>
#include <thread>

#include "fault/fault_injector.h"
#include "signature/signature.h"

namespace cloudviews {

ThreadPool* JobService::ExecutionPool() {
  if (exec_options_.worker_threads <= 1) return nullptr;
  MutexLock lock(pool_mu_);
  if (pool_ == nullptr) {
    // The submitting thread helps while it waits (TaskGroup::Wait), so
    // worker_threads - 1 pool workers give worker_threads total threads.
    pool_ = std::make_unique<ThreadPool>(exec_options_.worker_threads - 1,
                                         metrics_, "exec", wall_clock_);
  }
  return pool_.get();
}

void JobService::SetObservability(obs::MetricsRegistry* metrics,
                                  obs::Tracer* tracer,
                                  MonotonicClock* wall_clock) {
  metrics_ = metrics;
  tracer_ = tracer;
  wall_clock_ = wall_clock != nullptr ? wall_clock : MonotonicClock::Real();
  if (metrics == nullptr) return;
  obs_.submitted = metrics->GetCounter("cv_jobs_submitted_total", {},
                                       "Jobs accepted for execution");
  obs_.succeeded = metrics->GetCounter("cv_jobs_succeeded_total", {},
                                       "Jobs that ran to completion");
  obs_.failed = metrics->GetCounter("cv_jobs_failed_total", {},
                                    "Jobs that returned an error");
  obs_.active = metrics->GetGauge("cv_jobs_active", {},
                                  "Jobs currently inside SubmitJob");
  obs_.latency = metrics->GetHistogram("cv_job_latency_seconds", {}, {},
                                       "Submit-to-finish wall time");
  obs_.stage_lookup = metrics->GetHistogram(
      "cv_job_stage_seconds", {{"stage", "metadata_lookup"}}, {},
      "Per-stage wall time of the job pipeline");
  obs_.stage_optimize = metrics->GetHistogram(
      "cv_job_stage_seconds", {{"stage", "optimize"}}, {},
      "Per-stage wall time of the job pipeline");
  obs_.stage_execute = metrics->GetHistogram(
      "cv_job_stage_seconds", {{"stage", "execute"}}, {},
      "Per-stage wall time of the job pipeline");
  obs_.stage_record = metrics->GetHistogram(
      "cv_job_stage_seconds", {{"stage", "record"}}, {},
      "Per-stage wall time of the job pipeline");
  obs_.views_reused =
      metrics->GetCounter("cv_rewrite_views_reused_total", {},
                          "Subgraphs replaced by materialized-view scans");
  obs_.views_materialized =
      metrics->GetCounter("cv_rewrite_views_materialized_total", {},
                          "Online view materializations injected");
  obs_.reuse_rejected = metrics->GetCounter(
      "cv_rewrite_reuse_rejected_by_cost_total", {},
      "Reuse opportunities rejected by the cost model (Sec 6.3)");
  obs_.candidates_filtered = metrics->GetCounter(
      "cv_containment_candidates_filtered_total", {},
      "Containment candidates that passed the tier-1 feature filter and "
      "entered structural verification");
  obs_.containment_verified = metrics->GetCounter(
      "cv_containment_verified_total", {},
      "Containment candidates proven (structure + a live instance whose "
      "predicate contains the query's)");
  obs_.containment_rejected = metrics->GetCounter(
      "cv_containment_rejected_total", {},
      "Tier-1 containment survivors rejected during verification (structure "
      "mismatch, no live instance, predicate, cost, or unsafe compensation)");
  obs_.views_subsumed = metrics->GetCounter(
      "cv_rewrite_views_reused_subsumed_total", {},
      "Subgraphs served from a subsuming view through a compensation plan "
      "(subset of cv_rewrite_views_reused_total)");
  obs_.compensation_nodes = metrics->GetCounter(
      "cv_containment_compensation_nodes_total", {},
      "Filter/Aggregate/Project compensation operators added around "
      "subsumed view reads");
  obs_.lock_denied = metrics->GetCounter(
      "cv_rewrite_materialize_lock_denied_total", {},
      "Materializations skipped because another job holds the build lock");
  obs_.mat_skipped = metrics->GetCounter(
      "cv_rewrite_materialize_skipped_by_cost_total", {},
      "Materializations skipped by the write-cost gate");
  obs_.views_fallback = metrics->GetCounter(
      "cv_jobs_views_fallback_total", {},
      "View reads abandoned because the view was unavailable; the job "
      "re-ran its original plan (do-no-harm fallback)");
  obs_.fallback_jobs =
      metrics->GetCounter("cv_jobs_fallback_total", {},
                          "Jobs that fell back to their original plan "
                          "after a view-read failure");
  obs_.lookup_degraded =
      metrics->GetCounter("cv_jobs_lookup_degraded_total", {},
                          "Jobs that ran without reuse information after "
                          "persistent metadata-lookup failures");
  obs_.views_abandoned =
      metrics->GetCounter("cv_views_abandoned_total", {},
                          "Partially materialized views discarded after a "
                          "failed view write (build lock released)");
  obs_.stale_registrations =
      metrics->GetCounter("cv_views_stale_registration_dropped_total", {},
                          "View files deleted because the metadata service "
                          "rejected their registration");
  plan_cache_.SetMetrics(metrics);
}

std::vector<std::string> JobService::DefaultTags(const JobDefinition& def) {
  std::vector<std::string> tags;
  tags.push_back("template:" + def.template_id);
  tags.push_back("vc:" + def.vc);
  tags.push_back("user:" + def.user);
  return tags;
}

void JobService::AbandonSpoolLocks(const PlanNodePtr& root, uint64_t job_id) {
  if (metadata_ == nullptr || root == nullptr) return;
  std::vector<PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kSpool) {
      metadata_->AbandonLock(static_cast<SpoolNode*>(n)->precise_signature(),
                             job_id);
    }
  }
}

bool JobService::CachedViewReadsLive(const PlanNodePtr& root) {
  if (root == nullptr) return false;
  std::vector<PlanNode*> nodes;
  CollectNodes(root, &nodes);
  for (PlanNode* n : nodes) {
    if (n->kind() != OpKind::kViewRead) continue;
    if (metadata_ == nullptr) return false;
    auto* vr = static_cast<ViewReadNode*>(n);
    auto info = metadata_->FindMaterialized(vr->normalized_signature(),
                                            vr->precise_signature());
    if (!info.has_value() || info->path != vr->view_path()) return false;
  }
  return true;
}

void JobService::RegisterMaterializedView(const SpoolNode& spool,
                                          const StreamData& view,
                                          uint64_t job_id) {
  MaterializedViewInfo info;
  info.path = spool.view_path();
  info.normalized_signature = spool.normalized_signature();
  info.precise_signature = spool.precise_signature();
  info.producer_job_id = job_id;
  info.design = spool.design();
  info.rows = static_cast<double>(view.total_rows);
  info.bytes = static_cast<double>(view.total_bytes);
  // Instance-level containment features from the spooled subtree: concrete
  // predicate bounds, conjunct hashes, and the core precise signature the
  // matcher resolves per-instance containment against.
  if (!spool.children().empty() && spool.children()[0] != nullptr) {
    info.reuse_features = std::make_shared<ViewFeatures>(
        ComputeViewFeatures(*spool.children()[0]));
  }
  Status registered = metadata_->ReportMaterialized(info, view.expires_at);
  if (!registered.ok()) {
    // Fenced out (our lease expired) or another producer won: the
    // registered copy is authoritative, so drop the bytes we wrote.
    // Intentional drop: the file may already have been cleaned up by the
    // lease takeover.
    (void)storage_->DeleteStream(info.path);
    if (obs_.stale_registrations != nullptr) {
      obs_.stale_registrations->Increment();
    }
  }
}

ExecContext JobService::MakeExecContext(uint64_t job_id,
                                        bool* materialized) {
  ExecContext ctx;
  ctx.storage = storage_;
  ctx.job_id = job_id;
  ctx.metrics = metrics_;
  ctx.clock = wall_clock_;
  ctx.options = exec_options_;
  ctx.pool = ExecutionPool();
  ctx.fault = fault_;
  ctx.retry = retry_;
  ctx.sleeper = sleeper_;
  if (metadata_ == nullptr) return ctx;
  ctx.on_view_materialized = [this, job_id, materialized](
                                 const SpoolNode& spool,
                                 const StreamData& view) {
    if (materialized != nullptr) *materialized = true;
    RegisterMaterializedView(spool, view, job_id);
  };
  ctx.on_view_abandoned = [this, job_id](const SpoolNode& spool,
                                         const Status&) {
    // Do-no-harm path: the view write failed, the partial is gone, the job
    // keeps running — hand the build lock back so another instance can
    // retry the materialization.
    metadata_->AbandonLock(spool.precise_signature(), job_id);
    if (obs_.views_abandoned != nullptr) obs_.views_abandoned->Increment();
  };
  return ctx;
}

/// Per-job state of one SubmitJob, threaded through its stages.
struct JobService::JobContext {
  JobContext(const JobDefinition& d, const JobServiceOptions& o)
      : def(d), options(o) {}

  const JobDefinition& def;
  const JobServiceOptions& options;
  JobResult result;
  double submit_start = 0;
  /// The "job" span; inactive unless a tracer or parent span is attached.
  obs::Span span;
  bool cloudviews_on = false;
  OptimizeContext optimize;
  /// Set by the probe stage when the plan cache is on.
  PlanCache::Key cache_key;
  Hash128 precise;
  /// The plan to execute; result.plan_cache_hit tells whether the probe
  /// stage served it from the cache.
  OptimizedPlan optimized;
  double optimize_start = 0;
};

Result<JobResult> JobService::SubmitJob(const JobDefinition& def,
                                        const JobServiceOptions& options) {
  if (def.logical_plan == nullptr) {
    return Status::InvalidArgument("job has no plan");
  }
  JobContext job(def, options);
  job.submit_start = wall_clock_->NowSeconds();
  if (obs_.submitted != nullptr) obs_.submitted->Increment();
  obs::ScopedGaugeIncrement active(obs_.active);
  job.result.job_id = next_job_id_.fetch_add(1);
  if (options.parent_span != nullptr) {
    job.span = options.parent_span->StartChild("job");
  } else if (tracer_ != nullptr) {
    job.span = tracer_->StartTrace("job");
  }
  if (job.span.active()) {
    job.span.SetAttribute("job_id", job.result.job_id);
    job.span.SetAttribute("template_id", def.template_id);
    job.span.SetAttribute("recurring_instance",
                          static_cast<int64_t>(def.recurring_instance));
  }
  job.cloudviews_on = options.enable_cloudviews && metadata_ != nullptr;
  job.optimize.storage = storage_;
  job.optimize.job_id = job.result.job_id;
  job.optimize.clock = wall_clock_;
  if (options.use_feedback_statistics && repository_ != nullptr) {
    job.optimize.feedback = repository_;
  }

  ProbePlanCache(&job);
  Status status = Compile(&job);
  if (status.ok()) status = Execute(&job);
  if (!status.ok()) {
    // Failed jobs still stamp counters and latency and end their trace, so
    // they stay diagnosable.
    if (obs_.failed != nullptr) {
      obs_.failed->Increment();
      obs_.latency->Observe(wall_clock_->NowSeconds() - job.submit_start);
    }
    job.span.SetAttribute("error", status.ToString());
    job.span.End();
    return status;
  }
  PublishToPlanCache(&job);
  Record(&job);

  if (obs_.succeeded != nullptr) {
    obs_.succeeded->Increment();
    obs_.latency->Observe(wall_clock_->NowSeconds() - job.submit_start);
  }
  job.result.trace = job.span.Finish();
  return std::move(job.result);
}

void JobService::ProbePlanCache(JobContext* job) {
  if (!job->options.enable_plan_cache) return;
  SubgraphSignatures sigs = ComputeSignatures(*job->def.logical_plan);
  job->precise = sigs.precise;
  // The epoch is read BEFORE the probe and the metadata lookup: a
  // concurrent catalog change then tags this compilation with the older
  // epoch and conservatively invalidates it later — never the reverse.
  job->result.catalog_epoch =
      metadata_ != nullptr ? metadata_->CatalogEpoch() : 1;
  job->cache_key = PlanCache::Key{sigs.normalized, job->cloudviews_on};
  std::shared_ptr<const PlanCache::Entry> entry = plan_cache_.Lookup(
      job->cache_key, job->result.catalog_epoch, job->precise);
  job->optimize_start = wall_clock_->NowSeconds();
  if (entry == nullptr) return;

  // Same template, same data, unchanged catalog epoch. Still validate
  // every view read against the live catalog (clock-driven expiry bumps no
  // epoch) before skipping the whole compile pipeline.
  if (!CachedViewReadsLive(entry->rewritten)) {
    plan_cache_.OnNotServed(/*demoted=*/true);
    return;
  }
  obs::Span span = job->span.StartChild("plan_cache");
  auto finished =
      optimizer_.FinishCachedPlan(entry->rewritten->Clone(), job->optimize);
  if (!finished.ok()) {  // the compile stage plans it afresh
    plan_cache_.OnNotServed(/*demoted=*/false);
    return;
  }
  job->optimized = std::move(finished).ValueOrDie();
  // FinishCachedPlan recounts view reads from the plan shape; which of
  // them are compensated containment reads only the entry knows.
  job->optimized.views_reused_subsumed = entry->views_reused_subsumed;
  job->optimized.compensation_nodes_added = entry->compensation_nodes_added;
  job->result.plan_cache_hit = true;
  plan_cache_.OnServed();
  span.SetAttribute("tier", "full");
  span.SetAttribute("estimated_cost", job->optimized.estimated_cost);
}

void JobService::LookupMetadata(JobContext* job) {
  OptimizeContext& ctx = job->optimize;
  JobResult& result = job->result;
  ctx.view_catalog = metadata_;
  std::vector<std::string> tags =
      job->def.tags.empty() ? DefaultTags(job->def) : job->def.tags;
  double start = wall_clock_->NowSeconds();
  obs::Span span = job->span.StartChild("metadata_lookup");
  Status lookup = fault::RetryWithBackoff(
      retry_,
      [&]() -> Status {
        auto r = metadata_->TryGetRelevantViews(
            tags, &result.metadata_lookup_seconds);
        if (!r.ok()) return r.status();
        ctx.annotations = std::move(r).ValueOrDie();
        return Status::OK();
      },
      sleeper_);
  if (!lookup.ok()) {
    // The lookup failed persistently. Reuse is an optimization: degrade to
    // a plain (no-reuse, no-materialize) job rather than failing it.
    ctx.annotations.clear();
    ctx.view_catalog = nullptr;
    result.lookup_degraded = true;
    if (obs_.lookup_degraded != nullptr) obs_.lookup_degraded->Increment();
    span.SetAttribute("degraded", true);
    span.SetAttribute("error", lookup.ToString());
  } else if (optimizer_.config().enable_containment_matching) {
    // Containment tier 1 pre-fetch: annotations over the same table sets
    // as this job's subgraphs, keyed by the table-set index so candidate
    // enumeration never scans the full catalog. Tag-matched annotations
    // already fetched above are not duplicated.
    std::set<Hash128> have;
    for (const auto& a : ctx.annotations) have.insert(a.normalized_signature);
    for (auto& extra : metadata_->GetContainmentCandidates(
             CollectTableSetKeys(job->def.logical_plan))) {
      if (have.insert(extra.normalized_signature).second) {
        ctx.annotations.push_back(std::move(extra));
      }
    }
  }
  span.SetAttribute("annotations",
                    static_cast<uint64_t>(ctx.annotations.size()));
  span.SetAttribute("simulated_latency_seconds",
                    result.metadata_lookup_seconds);
  if (obs_.stage_lookup != nullptr) {
    obs_.stage_lookup->Observe(wall_clock_->NowSeconds() - start);
  }
}

Status JobService::Compile(JobContext* job) {
  OptimizeContext& ctx = job->optimize;
  if (!job->result.plan_cache_hit) {
    if (job->cloudviews_on) LookupMetadata(job);
    job->optimize_start = wall_clock_->NowSeconds();
    obs::Span span = job->span.StartChild("optimize");
    ctx.span = span.active() ? &span : nullptr;
    auto optimized = optimizer_.Optimize(job->def.logical_plan, ctx);
    ctx.span = nullptr;
    if (!optimized.ok()) return optimized.status();
    job->optimized = std::move(optimized).ValueOrDie();
    span.SetAttribute("estimated_cost", job->optimized.estimated_cost);
  }

  const OptimizedPlan& optimized = job->optimized;
  if (obs_.stage_optimize != nullptr) {
    obs_.stage_optimize->Observe(wall_clock_->NowSeconds() -
                                 job->optimize_start);
    obs_.views_reused->Increment(
        static_cast<uint64_t>(optimized.views_reused));
    obs_.views_materialized->Increment(
        static_cast<uint64_t>(optimized.views_materialized));
    obs_.reuse_rejected->Increment(
        static_cast<uint64_t>(optimized.reuse_rejected_by_cost));
    obs_.lock_denied->Increment(
        static_cast<uint64_t>(optimized.materialize_lock_denied));
    obs_.mat_skipped->Increment(
        static_cast<uint64_t>(optimized.materialize_skipped_by_cost));
    obs_.candidates_filtered->Increment(
        static_cast<uint64_t>(optimized.candidates_filtered));
    obs_.containment_verified->Increment(
        static_cast<uint64_t>(optimized.containment_verified));
    obs_.containment_rejected->Increment(
        static_cast<uint64_t>(optimized.containment_rejected));
    obs_.views_subsumed->Increment(
        static_cast<uint64_t>(optimized.views_reused_subsumed));
    obs_.compensation_nodes->Increment(
        static_cast<uint64_t>(optimized.compensation_nodes_added));
  }
  JobResult& result = job->result;
  result.compile_seconds = optimized.optimize_seconds;
  result.views_reused = optimized.views_reused;
  result.views_materialized = optimized.views_materialized;
  result.reuse_rejected_by_cost = optimized.reuse_rejected_by_cost;
  result.materialize_lock_denied = optimized.materialize_lock_denied;
  result.candidates_filtered = optimized.candidates_filtered;
  result.containment_verified = optimized.containment_verified;
  result.containment_rejected = optimized.containment_rejected;
  result.views_reused_subsumed = optimized.views_reused_subsumed;
  result.compensation_nodes_added = optimized.compensation_nodes_added;
  result.estimated_cost = optimized.estimated_cost;
  return Status::OK();
}

Status JobService::Execute(JobContext* job) {
  JobResult& result = job->result;
  double start = wall_clock_->NowSeconds();
  obs::Span span = job->span.StartChild("execute");
  ExecContext exec_ctx = MakeExecContext(result.job_id);
  Executor executor(exec_ctx);
  auto run = executor.Execute(job->optimized.root);
  if (!run.ok() && run.status().IsViewUnavailable() && metadata_ != nullptr) {
    // Fallback-to-original-plan (the ReStore principle): a view this plan
    // was rewritten to read is unavailable, and stored results are an
    // optimization — never a correctness dependency. Discard the rewritten
    // plan (releasing the build locks it carried), re-optimize without the
    // view catalog, and run the job's original shape.
    AbandonSpoolLocks(job->optimized.root, result.job_id);
    result.views_fallback = result.views_reused;
    span.SetAttribute("views_fallback",
                      static_cast<int64_t>(result.views_fallback));
    span.SetAttribute("fallback_cause", run.status().ToString());
    if (obs_.views_fallback != nullptr) {
      obs_.views_fallback->Increment(
          static_cast<uint64_t>(result.views_fallback));
      obs_.fallback_jobs->Increment();
    }
    // The cached entry (if any) led to or coexists with a plan reading a
    // dead view — drop it so the next occurrence replans from scratch.
    if (job->options.enable_plan_cache) {
      plan_cache_.Invalidate(job->cache_key);
    }
    OptimizeContext plain_ctx = job->optimize;
    plain_ctx.view_catalog = nullptr;
    plain_ctx.annotations.clear();
    auto replanned = optimizer_.Optimize(job->def.logical_plan, plain_ctx);
    if (!replanned.ok()) return replanned.status();
    job->optimized = std::move(replanned).ValueOrDie();
    result.views_reused = 0;
    result.views_materialized = 0;
    // The executed plan carries no compensated view reads either.
    result.views_reused_subsumed = 0;
    result.compensation_nodes_added = 0;
    result.estimated_cost = job->optimized.estimated_cost;
    Executor fallback_executor(exec_ctx);
    run = fallback_executor.Execute(job->optimized.root);
  }
  if (!run.ok()) {
    // Release build locks this job won but can no longer honor; they would
    // otherwise block others until lock expiry. Exception: an injected
    // crash models the whole job process dying — a dead process runs no
    // cleanup, so the lock must be reclaimed by lease expiry instead.
    if (!fault::IsInjectedCrash(run.status())) {
      AbandonSpoolLocks(job->optimized.root, result.job_id);
    }
    return run.status();
  }
  result.run_stats = *run;
  result.executed_plan = job->optimized.root;
  span.SetAttribute("output_rows", result.run_stats.output_rows);
  span.SetAttribute("output_bytes", result.run_stats.output_bytes);
  span.SetAttribute("cpu_seconds", result.run_stats.cpu_seconds);
  span.SetAttribute("operators",
                    static_cast<uint64_t>(result.run_stats.operators.size()));
  span.End();
  if (obs_.stage_execute != nullptr) {
    obs_.stage_execute->Observe(wall_clock_->NowSeconds() - start);
  }
  return Status::OK();
}

void JobService::PublishToPlanCache(JobContext* job) {
  const JobResult& result = job->result;
  job->span.SetAttribute("plan_cache_hit", result.plan_cache_hit);
  job->span.SetAttribute("catalog_epoch", result.catalog_epoch);
  // Never from degraded compilations: a lookup-degraded plan is
  // reuse-blind and a fallback already invalidated the entry. A hit needs
  // no re-insert (Lookup refreshed the LRU). Plans that materialized views
  // carry Spool side effects (build locks, view writes) and must not
  // replay. A lock-denied plan is also excluded: it lacks the Spool a
  // fresh optimize would add once the lock frees up, and lock expiry bumps
  // no catalog epoch — a hit would silently stop trying to build the view.
  if (!job->options.enable_plan_cache || result.plan_cache_hit ||
      result.lookup_degraded || result.views_fallback > 0 ||
      result.views_materialized > 0 || result.materialize_lock_denied > 0) {
    return;
  }
  PlanCache::Entry entry;
  entry.catalog_epoch = result.catalog_epoch;
  entry.precise = job->precise;
  entry.rewritten = job->optimized.root->Clone();
  entry.views_reused_subsumed = result.views_reused_subsumed;
  entry.compensation_nodes_added = result.compensation_nodes_added;
  plan_cache_.Insert(job->cache_key, std::move(entry));
}

void JobService::Record(JobContext* job) {
  if (!job->options.record_in_repository || repository_ == nullptr) return;
  const JobDefinition& def = job->def;
  double start = wall_clock_->NowSeconds();
  obs::Span span = job->span.StartChild("record");
  JobRecord record;
  record.job_id = job->result.job_id;
  record.cluster = def.cluster;
  record.business_unit = def.business_unit;
  record.vc = def.vc;
  record.user = def.user;
  record.template_id = def.template_id;
  record.recurring_instance = def.recurring_instance;
  record.recurrence_period = def.recurrence_period;
  record.submit_time = clock_->Now();
  record.tags = def.tags.empty() ? DefaultTags(def) : def.tags;
  record.plan = job->optimized.root;
  record.run_stats = job->result.run_stats;
  repository_->AddJob(std::move(record));
  span.End();
  if (obs_.stage_record != nullptr) {
    obs_.stage_record->Observe(wall_clock_->NowSeconds() - start);
  }
}

Result<int> JobService::MaterializeOfflineViews(const JobDefinition& def) {
  if (def.logical_plan == nullptr) {
    return Status::InvalidArgument("job has no plan");
  }
  if (metadata_ == nullptr) {
    return Status::InvalidArgument("offline mode needs a metadata service");
  }
  uint64_t job_id = next_job_id_.fetch_add(1);

  OptimizeContext ctx;
  ctx.storage = storage_;
  ctx.job_id = job_id;
  if (repository_ != nullptr) ctx.feedback = repository_;
  ctx.view_catalog = metadata_;
  std::vector<std::string> tags =
      def.tags.empty() ? DefaultTags(def) : def.tags;
  ctx.annotations = metadata_->GetRelevantViews(tags);
  // Build every annotated subgraph of this job, regardless of the online
  // per-job cap, and treat offline annotations as materializable.
  for (auto& ann : ctx.annotations) ann.offline = false;
  OptimizerConfig config = optimizer_.config();
  config.max_materialized_views_per_job = 1 << 20;
  Optimizer offline_optimizer(config);
  CV_ASSIGN_OR_RETURN(OptimizedPlan optimized,
                      offline_optimizer.Optimize(def.logical_plan, ctx));

  // Extract each Spool subtree and run it standalone: the pre-job builds
  // only the views, nothing else. The single Optimize above took a build
  // lock for EVERY spool, so any early exit must release the locks of the
  // failing spool and of every spool that never got to run — not just the
  // failing one (that was a lock-leak bug).
  std::vector<PlanNode*> nodes;
  CollectNodes(optimized.root, &nodes);
  std::vector<SpoolNode*> spools;
  for (PlanNode* n : nodes) {
    if (n->kind() == OpKind::kSpool) {
      spools.push_back(static_cast<SpoolNode*>(n));
    }
  }
  auto abandon_from = [this, &spools, job_id](size_t first) {
    for (size_t j = first; j < spools.size(); ++j) {
      metadata_->AbandonLock(spools[j]->precise_signature(), job_id);
    }
  };
  int built = 0;
  for (size_t i = 0; i < spools.size(); ++i) {
    SpoolNode* spool = spools[i];
    PlanNodePtr standalone = spool->Clone();
    Status bound = standalone->Bind();
    if (!bound.ok()) {
      abandon_from(i);
      return bound;
    }
    AssignNodeIds(standalone.get());
    bool materialized = false;
    Executor executor(MakeExecContext(job_id, &materialized));
    auto run = executor.Execute(standalone);
    if (!run.ok()) {
      if (!fault::IsInjectedCrash(run.status())) {
        abandon_from(i);
      }
      return run.status();
    }
    // A do-no-harm write failure leaves run OK but builds nothing (the
    // spool's lock was already released through on_view_abandoned).
    if (materialized) ++built;
  }
  return built;
}

std::vector<Result<JobResult>> JobService::SubmitConcurrent(
    const std::vector<JobDefinition>& defs,
    const JobServiceOptions& options) {
  std::vector<Result<JobResult>> results(
      defs.size(), Result<JobResult>(Status::Internal("not run")));
  std::vector<std::thread> threads;
  threads.reserve(defs.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    threads.emplace_back([this, &defs, &options, &results, i] {
      results[i] = SubmitJob(defs[i], options);
    });
  }
  for (auto& t : threads) t.join();
  return results;
}

}  // namespace cloudviews
