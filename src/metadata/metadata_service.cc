#include "metadata/metadata_service.h"

#include <algorithm>
#include <utility>

#include "obs/timed_lock.h"

namespace cloudviews {

void MetadataService::SetMetrics(obs::MetricsRegistry* metrics,
                                 MonotonicClock* wall_clock) {
  if (metrics == nullptr) return;
  // Keep a constructor-injected lease clock unless explicitly overridden.
  if (wall_clock != nullptr) wall_clock_ = wall_clock;
  obs_.lookups = metrics->GetCounter("cv_metadata_lookups_total", {},
                                     "Tag-inverted-index lookups (one per "
                                     "submitted job, Fig 9 step 1)");
  obs_.hits = metrics->GetCounter(
      "cv_metadata_view_hits_total", {},
      "FindMaterialized calls that returned a live view");
  obs_.misses = metrics->GetCounter(
      "cv_metadata_view_misses_total", {},
      "FindMaterialized calls that found no usable view");
  obs_.locks_granted =
      metrics->GetCounter("cv_metadata_build_locks_granted_total", {},
                          "Exclusive build locks granted (Sec 6.1)");
  obs_.locks_denied = metrics->GetCounter(
      "cv_metadata_build_locks_denied_total", {},
      "Build-lock proposals denied (already built or being built)");
  obs_.locks_abandoned =
      metrics->GetCounter("cv_metadata_build_locks_abandoned_total", {},
                          "Build locks released without registering a view "
                          "(failed or discarded materializing jobs)");
  obs_.leases_reclaimed = metrics->GetCounter(
      "cv_metadata_lock_leases_reclaimed_total", {},
      "Expired build-lock leases taken over from presumed-dead builders");
  obs_.stale_registrations = metrics->GetCounter(
      "cv_metadata_stale_registrations_total", {},
      "ReportMaterialized calls rejected by lease fencing or because "
      "another producer already registered the view");
  obs_.views_registered =
      metrics->GetCounter("cv_metadata_views_registered_total", {},
                          "Materialized views registered");
  obs_.views_purged = metrics->GetCounter(
      "cv_metadata_views_purged_total", {}, "Expired views purged");
  obs_.registered_views =
      metrics->GetGauge("cv_metadata_registered_views", {},
                        "Currently registered materialized views");
  obs_.lock_wait = metrics->GetHistogram(
      "cv_metadata_lock_wait_seconds", {}, {},
      "Wall time waiting for the metadata-service catalog mutex (views, "
      "build locks, containment index and analysis-snapshot pointer)");
}

void MetadataService::LoadAnalysis(
    const std::vector<AnnotatedComputation>& computations) {
  auto snapshot = std::make_shared<AnalysisSnapshot>();
  snapshot->computations = computations;
  for (size_t i = 0; i < snapshot->computations.size(); ++i) {
    for (const auto& tag : snapshot->computations[i].tags) {
      snapshot->tag_index[tag].insert(i);
    }
    const auto& features = snapshot->computations[i].annotation.features;
    if (features != nullptr) {
      snapshot->table_set_index[features->table_set_key].push_back(i);
    }
  }
  std::shared_ptr<const AnalysisSnapshot> previous;
  {
    MutexLock lock(mu_);
    previous = std::exchange(analysis_, std::move(snapshot));
  }
  // `previous` is freed here, outside mu_. New annotations change which rewrites the optimizer would pick.
  BumpEpoch();
}

std::shared_ptr<const MetadataService::AnalysisSnapshot>
MetadataService::AnalysisView() const {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  return analysis_;
}

void MetadataService::UpdateViewsGauge() {
  if (obs_.registered_views != nullptr) {
    obs_.registered_views->Set(static_cast<double>(views_.size()));
  }
}

double MetadataService::SimulatedLookupLatency() const {
  // Calibrated to the paper's measurement: ~19ms with one service thread,
  // ~14.3ms with five (Sec 7.3) — a fixed fraction of the work
  // parallelizes across service threads.
  double parallel_fraction = 0.3;
  return config_.base_lookup_latency_seconds *
         (1.0 - parallel_fraction +
          parallel_fraction / std::max(1, config_.service_threads));
}

std::vector<ViewAnnotation> MetadataService::GetRelevantViews(
    const std::vector<std::string>& tags, double* latency_seconds) const {
  if (obs_.lookups != nullptr) obs_.lookups->Increment();
  if (latency_seconds != nullptr) {
    *latency_seconds = SimulatedLookupLatency();
  }
  // Read-mostly path: one pointer copy under mu_, then the immutable
  // snapshot is scanned without any lock held.
  std::shared_ptr<const AnalysisSnapshot> snapshot;
  {
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    ++counters_.lookups;
    snapshot = analysis_;
  }
  std::vector<ViewAnnotation> out;
  if (snapshot == nullptr) return out;
  std::set<size_t> hits;
  for (const auto& tag : tags) {
    auto it = snapshot->tag_index.find(tag);
    if (it == snapshot->tag_index.end()) continue;
    hits.insert(it->second.begin(), it->second.end());
  }
  out.reserve(hits.size());
  for (size_t i : hits) out.push_back(snapshot->computations[i].annotation);
  return out;
}

Result<std::vector<ViewAnnotation>> MetadataService::TryGetRelevantViews(
    const std::vector<std::string>& tags, double* latency_seconds) const {
  if (fault_ != nullptr) {
    std::string key;
    for (const auto& tag : tags) {
      if (!key.empty()) key += '|';
      key += tag;
    }
    CV_RETURN_NOT_OK(fault_->MaybeInject(fault::points::kMetadataLookup, key));
  }
  return GetRelevantViews(tags, latency_seconds);
}

std::optional<ViewAnnotation> MetadataService::FindAnnotation(
    const Hash128& normalized) const {
  std::shared_ptr<const AnalysisSnapshot> snapshot = AnalysisView();
  if (snapshot == nullptr) return std::nullopt;
  for (const auto& comp : snapshot->computations) {
    if (comp.annotation.normalized_signature == normalized) {
      return comp.annotation;
    }
  }
  return std::nullopt;
}

std::vector<ViewAnnotation> MetadataService::GetContainmentCandidates(
    const std::vector<Hash128>& table_set_keys) const {
  std::vector<ViewAnnotation> out;
  std::shared_ptr<const AnalysisSnapshot> snapshot = AnalysisView();
  if (snapshot == nullptr) return out;
  std::set<size_t> hits;
  for (const auto& key : table_set_keys) {
    auto it = snapshot->table_set_index.find(key);
    if (it == snapshot->table_set_index.end()) continue;
    hits.insert(it->second.begin(), it->second.end());
  }
  out.reserve(hits.size());
  for (size_t i : hits) out.push_back(snapshot->computations[i].annotation);
  return out;
}

std::vector<MaterializedViewInfo> MetadataService::FindSubsumableInstances(
    const Hash128& normalized) {
  // std::set keeps the precise signatures ordered, which is the matcher's
  // determinism contract for instance iteration. Liveness is checked here,
  // without touching the exact-lookup hit/miss counters.
  std::vector<MaterializedViewInfo> out;
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  auto it = instances_by_normalized_.find(normalized);
  if (it == instances_by_normalized_.end()) return out;
  LogicalTime now = clock_->Now();
  for (const auto& precise : it->second) {
    auto vit = views_.find(precise);
    if (vit != views_.end() && !ViewExpired(vit->second, now)) {
      out.push_back(vit->second.info);
    }
  }
  return out;
}

std::optional<MaterializedViewInfo> MetadataService::FindMaterialized(
    const Hash128& normalized, const Hash128& precise) {
  obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
  auto it = views_.find(precise);
  if (it == views_.end() ||
      !(it->second.info.normalized_signature == normalized) ||
      ViewExpired(it->second, clock_->Now())) {
    if (obs_.misses != nullptr) obs_.misses->Increment();
    return std::nullopt;
  }
  if (obs_.hits != nullptr) obs_.hits->Increment();
  return it->second.info;
}

bool MetadataService::ProposeMaterialize(const Hash128& normalized,
                                         const Hash128& precise,
                                         uint64_t job_id,
                                         double expected_build_seconds) {
  // Attempts count every call (a retry is a new attempt); `proposals`
  // counts only decisions the service actually made, so one logical
  // proposal retried across injected faults never double-counts (see
  // docs/job_profile_schema.md).
  Status injected = Status::OK();
  if (fault_ != nullptr) {
    injected =
        fault_->MaybeInject(fault::points::kMetadataPropose, precise.ToHex());
  }
  // Orphaned files of a reclaimed lease are deleted after mu_ is released
  // (same metadata-first ordering as PurgeExpired, Sec 5.4).
  std::string orphan_prefix;
  {
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    ++counters_.propose_attempts;
    if (!injected.ok()) {
      // A proposal the service never answered is indistinguishable from a
      // denial to the job: it simply runs without materializing this view.
      // It is NOT a service-side decision, so neither `proposals` nor
      // `locks_denied` moves; the gap propose_attempts - proposals is the
      // injected-denial count.
      return false;
    }
    ++counters_.proposals;
    LogicalTime now = clock_->Now();
    double wall_now = wall_clock_->NowSeconds();
    auto it = locks_.find(precise);
    // Denied when the view is already materialized, or a concurrent job is
    // building it under a live lock.
    if (views_.count(precise) > 0 ||
        (it != locks_.end() && !LockExpired(it->second, now, wall_now))) {
      ++counters_.locks_denied;
      if (obs_.locks_denied != nullptr) obs_.locks_denied->Increment();
      return false;
    }
    if (it != locks_.end()) {
      // Lease takeover: the previous build attempt is presumed dead.
      // Whatever it wrote under this signature was never registered —
      // collect it for deletion so the new build starts clean. This also
      // applies when the expired lock belonged to THIS job (a torn write
      // plus retry after the job's own lease lapsed): its earlier partial
      // files are just as orphaned and leaked forever if skipped.
      orphan_prefix =
          "/views/" + normalized.ToHex() + "/" + precise.ToHex() + "_";
      if (it->second.job_id != job_id) {
        ++counters_.leases_reclaimed;
        if (obs_.leases_reclaimed != nullptr) {
          obs_.leases_reclaimed->Increment();
        }
      }
    }
    double expiry_seconds =
        std::max(kMinLockSeconds,
                 kLockExpiryMultiplier * expected_build_seconds);
    locks_[precise] =
        BuildLock{job_id, now + static_cast<LogicalTime>(expiry_seconds),
                  wall_now + expiry_seconds};
    ++counters_.locks_granted;
    if (obs_.locks_granted != nullptr) obs_.locks_granted->Increment();
  }
  // A granted lock is catalog state a cached plan depends on (a cached
  // plan holding a Spool for this signature would double-build).
  BumpEpoch();
  if (!orphan_prefix.empty()) {
    uint64_t cleaned = 0;
    for (const auto& name : storage_->ListStreams(orphan_prefix)) {
      // Intentional drop: racing deletions of an unregistered orphan are
      // harmless — someone removed it, which is all we need.
      (void)storage_->DeleteStream(name);
      ++cleaned;
    }
    MutexLock lock(mu_);
    counters_.orphans_cleaned += cleaned;
  }
  return true;
}

Status MetadataService::ReportMaterialized(const MaterializedViewInfo& info,
                                          LogicalTime expires_at) {
  {
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    Status rejected = Status::OK();
    auto vit = views_.find(info.precise_signature);
    auto lit = locks_.find(info.precise_signature);
    if (vit != views_.end()) {
      if (vit->second.info.producer_job_id == info.producer_job_id) {
        return Status::OK();  // idempotent re-report by the same producer
      }
      rejected = Status::AlreadyExists(
          "view " + info.precise_signature.ToHex() +
          " already registered by job " +
          std::to_string(vit->second.info.producer_job_id));
    } else if (lit != locks_.end() &&
               lit->second.job_id != info.producer_job_id) {
      // Lease fencing: this builder's lock expired and another job took the
      // lease. Its registration is stale — the new builder owns the view.
      rejected = Status::Expired(
          "build lock for view " + info.precise_signature.ToHex() +
          " is now held by job " + std::to_string(lit->second.job_id) +
          "; stale registration by job " +
          std::to_string(info.producer_job_id) + " rejected");
    }
    if (!rejected.ok()) {
      ++counters_.stale_registrations_rejected;
      if (obs_.stale_registrations != nullptr) {
        obs_.stale_registrations->Increment();
      }
      return rejected;
    }
    if (lit != locks_.end()) locks_.erase(lit);
    views_[info.precise_signature] = RegisteredView{info, expires_at};
    instances_by_normalized_[info.normalized_signature].insert(
        info.precise_signature);
    ++counters_.views_registered;
    if (obs_.views_registered != nullptr) obs_.views_registered->Increment();
    UpdateViewsGauge();
  }
  // A newly registered view invalidates cached plans that could have
  // reused it — never serve a stale rewrite.
  BumpEpoch();
  return Status::OK();
}

void MetadataService::AbandonLock(const Hash128& precise, uint64_t job_id) {
  {
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    auto it = locks_.find(precise);
    if (it == locks_.end() || it->second.job_id != job_id) return;
    locks_.erase(it);
    ++counters_.locks_abandoned;
    if (obs_.locks_abandoned != nullptr) obs_.locks_abandoned->Increment();
  }
  // The freed lock re-opens the materialization opportunity; cached plans
  // compiled while it was held would silently skip the build.
  BumpEpoch();
}

void MetadataService::EraseViewLocked(
    std::map<Hash128, RegisteredView>::iterator it) {
  const MaterializedViewInfo& info = it->second.info;
  auto iit = instances_by_normalized_.find(info.normalized_signature);
  if (iit != instances_by_normalized_.end()) {
    iit->second.erase(info.precise_signature);
    if (iit->second.empty()) instances_by_normalized_.erase(iit);
  }
  views_.erase(it);
}

size_t MetadataService::PurgeExpired() {
  LogicalTime now = clock_->Now();
  std::vector<std::string> paths_to_delete;
  {
    // Clean the metadata first, in one critical section, so no job can be
    // handed an expired view; then delete the physical files (Sec 5.4).
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    for (auto it = views_.begin(); it != views_.end();) {
      if (!ViewExpired(it->second, now)) {
        ++it;
        continue;
      }
      paths_to_delete.push_back(it->second.info.path);
      EraseViewLocked(it++);
      ++counters_.views_purged;
      if (obs_.views_purged != nullptr) obs_.views_purged->Increment();
    }
    UpdateViewsGauge();
  }
  if (!paths_to_delete.empty()) BumpEpoch();
  for (const auto& path : paths_to_delete) {
    // Intentional drop: the file may already be gone (purged by the
    // storage manager's own expiry sweep), and the metadata entry is
    // authoritative either way.
    (void)storage_->DeleteStream(path);
  }
  return paths_to_delete.size();
}

Status MetadataService::DropView(const Hash128& precise) {
  std::string path;
  {
    obs::TimedMutexLock lock(mu_, obs_.lock_wait, wall_clock_);
    auto it = views_.find(precise);
    if (it == views_.end()) return Status::NotFound("view not registered");
    path = it->second.info.path;
    EraseViewLocked(it);
    UpdateViewsGauge();
  }
  BumpEpoch();
  return storage_->DeleteStream(path);
}

MetadataService::Counters MetadataService::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

size_t MetadataService::NumRegisteredViews() const {
  MutexLock lock(mu_);
  return views_.size();
}

size_t MetadataService::NumAnnotations() const {
  std::shared_ptr<const AnalysisSnapshot> snapshot = AnalysisView();
  return snapshot == nullptr ? 0 : snapshot->computations.size();
}

size_t MetadataService::NumActiveLocks() const {
  MutexLock lock(mu_);
  return locks_.size();
}

std::vector<std::pair<Hash128, uint64_t>> MetadataService::HeldLocks() const {
  std::vector<std::pair<Hash128, uint64_t>> out;
  MutexLock lock(mu_);
  for (const auto& [precise, held] : locks_) {
    out.emplace_back(precise, held.job_id);
  }
  return out;
}

std::vector<MaterializedViewInfo> MetadataService::ListViews() const {
  std::vector<MaterializedViewInfo> out;
  MutexLock lock(mu_);
  for (const auto& [precise, view] : views_) out.push_back(view.info);
  return out;
}

}  // namespace cloudviews
