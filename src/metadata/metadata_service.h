#ifndef CLOUDVIEWS_METADATA_METADATA_SERVICE_H_
#define CLOUDVIEWS_METADATA_METADATA_SERVICE_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "optimizer/view_interfaces.h"
#include "storage/storage_manager.h"

namespace cloudviews {

/// Build-lock expiry = max(kMinLockSeconds, kLockExpiryMultiplier * mined
/// average runtime of the view subgraph): once expired, another job may
/// retry the materialization — the fault-tolerance story of Sec 6.1.
inline constexpr double kLockExpiryMultiplier = 2.0;
inline constexpr double kMinLockSeconds = 60;

struct MetadataServiceConfig {
  /// Simulated service-side lookup latency: the paper measured 19ms with a
  /// single service thread and 14.3ms with 5 threads (Sec 7.3).
  double base_lookup_latency_seconds = 0.019;
  int service_threads = 1;
};

/// One analyzer output row: the annotation plus the job-metadata tags used
/// to build the inverted index (Sec 6.1: "extract tags from its
/// corresponding job metadata ... create an inverted index on the tags").
struct AnnotatedComputation {
  ViewAnnotation annotation;
  std::vector<std::string> tags;
};

/// \brief The CloudViews metadata service (Fig 9), backed by AzureSQL in
/// production; here an in-memory, thread-safe store on the simulated
/// cluster.
///
/// Concurrency layout (see DESIGN.md "One catalog mutex"): one mutex `mu_`
/// guards the registered views, the build locks, the containment instance
/// index and the analysis-snapshot pointer. The analyzer output + tag
/// inverted index — written rarely, read on every lookup — is an immutable
/// snapshot: a lookup copies the pointer under `mu_` and scans it without
/// any lock held.
class MetadataService : public ViewCatalogInterface {
 public:
  /// `wall_clock` drives build-lock *leases* (and instrument timing): a
  /// lock is also considered expired once its expiry (in seconds) has
  /// elapsed on this clock, so a crashed builder's lock is reclaimed even if
  /// nobody advances the simulated clock. Null means the real clock; tests
  /// inject a FakeMonotonicClock to exercise lease expiry deterministically.
  MetadataService(SimulatedClock* clock, StorageManager* storage,
                  MetadataServiceConfig config = {},
                  MonotonicClock* wall_clock = nullptr)
      : clock_(clock),
        storage_(storage),
        config_(config),
        wall_clock_(wall_clock != nullptr ? wall_clock
                                          : MonotonicClock::Real()) {}

  /// Publishes lookup/hit-miss/lock counters and the `mu_` wait histogram
  /// `cv_metadata_lock_wait_seconds` into `metrics`. `wall_clock` times the
  /// mutex waits; null keeps the constructor-supplied (or real) clock. Call
  /// before concurrent use.
  void SetMetrics(obs::MetricsRegistry* metrics,
                  MonotonicClock* wall_clock = nullptr);

  /// Routes lookups/proposals through `fault` (metadata.lookup and
  /// metadata.propose points). Call before concurrent use; null disables.
  void SetFaultInjector(fault::FaultInjector* fault) { fault_ = fault; }

  /// Monotone counter bumped on every catalog state change a cached plan
  /// could depend on: analysis reload, view registration / purge / drop,
  /// build-lock grant / release. A plan compiled at epoch E is valid only
  /// while CatalogEpoch() == E (the plan cache's invalidation signal).
  uint64_t CatalogEpoch() const {
    return catalog_epoch_.load(std::memory_order_acquire);
  }

  /// Installs a new analysis (replacing the previous one), rebuilding the
  /// tag inverted index. Called when the analyzer output is refreshed.
  void LoadAnalysis(const std::vector<AnnotatedComputation>& computations)
      EXCLUDES(mu_);

  /// Step 1/2 of Fig 9: one request per job returning every annotation
  /// relevant to any of the job's tags (may contain false positives — the
  /// optimizer re-matches signatures). Returns the simulated service
  /// latency through `latency_seconds` when non-null.
  std::vector<ViewAnnotation> GetRelevantViews(
      const std::vector<std::string>& tags,
      double* latency_seconds = nullptr) const EXCLUDES(mu_);

  /// Fallible variant of GetRelevantViews: the metadata.lookup injection
  /// point (keyed by the joined tags) models a lookup timeout. Callers
  /// must degrade to running without reuse, never fail the job.
  Result<std::vector<ViewAnnotation>> TryGetRelevantViews(
      const std::vector<std::string>& tags,
      double* latency_seconds = nullptr) const EXCLUDES(mu_);

  /// Looks up the loaded annotation for one computation template (admin
  /// drill-down and eviction use this).
  std::optional<ViewAnnotation> FindAnnotation(const Hash128& normalized) const
      EXCLUDES(mu_);

  /// Containment tier 1: every annotation whose feature table-set key
  /// matches one of `table_set_keys` (the keys of the job's subgraphs).
  /// Lets candidate enumeration touch only same-table-set annotations
  /// instead of scanning the full catalog. Snapshot scan outside `mu_`,
  /// like GetRelevantViews.
  std::vector<ViewAnnotation> GetContainmentCandidates(
      const std::vector<Hash128>& table_set_keys) const EXCLUDES(mu_);

  // --- ViewCatalogInterface (optimizer-facing) -----------------------------

  std::optional<MaterializedViewInfo> FindMaterialized(
      const Hash128& normalized, const Hash128& precise) override
      EXCLUDES(mu_);

  bool ProposeMaterialize(const Hash128& normalized, const Hash128& precise,
                          uint64_t job_id,
                          double expected_build_seconds) override
      EXCLUDES(mu_);

  /// Containment tier 2.5: the live materialized instances of one template,
  /// sorted by precise signature (the matcher's determinism contract).
  std::vector<MaterializedViewInfo> FindSubsumableInstances(
      const Hash128& normalized) override EXCLUDES(mu_);

  // --- Job-manager-facing ---------------------------------------------------

  /// Step 5/6 of Fig 9: registers the materialized view and releases the
  /// build lock. Invoked on early materialization, i.e. possibly before
  /// the producing job finishes (Sec 6.4).
  ///
  /// Registration is fenced: once a builder's lease expired and another
  /// job reclaimed the lock, the stale builder's registration is rejected
  /// (kExpired); a view already registered by a different producer is
  /// rejected with kAlreadyExists (re-reporting by the same producer is
  /// idempotent OK). Callers must drop their written view file on
  /// rejection — the metadata decision is authoritative.
  Status ReportMaterialized(const MaterializedViewInfo& info,
                            LogicalTime expires_at) EXCLUDES(mu_);

  /// Releases a build lock without registering (job failed after
  /// proposing). Idempotent; only the owning job's lock is released. The
  /// lock also auto-expires (logical expiry or wall lease).
  void AbandonLock(const Hash128& precise, uint64_t job_id) override
      EXCLUDES(mu_);

  /// Removes expired views from the metadata *first*, then deletes their
  /// files (Sec 5.4 ordering). Returns the number of views purged.
  size_t PurgeExpired() EXCLUDES(mu_);

  /// Drops a view outright (admin reclamation, Sec 5.4).
  Status DropView(const Hash128& precise) EXCLUDES(mu_);

  // --- Introspection ----------------------------------------------------------

  struct Counters {
    uint64_t lookups = 0;
    /// Every ProposeMaterialize call, including calls answered by an
    /// injected fault before reaching the service (the client-visible
    /// attempt count; a retry is a new attempt).
    uint64_t propose_attempts = 0;
    /// Proposals that actually reached the service and were decided by it
    /// (the logical proposal count: granted + denied on the real path).
    uint64_t proposals = 0;
    uint64_t locks_granted = 0;
    uint64_t locks_denied = 0;
    uint64_t locks_abandoned = 0;
    uint64_t leases_reclaimed = 0;
    uint64_t stale_registrations_rejected = 0;
    uint64_t orphans_cleaned = 0;
    uint64_t views_registered = 0;
    uint64_t views_purged = 0;
  };
  Counters counters() const EXCLUDES(mu_);

  size_t NumRegisteredViews() const EXCLUDES(mu_);
  size_t NumAnnotations() const EXCLUDES(mu_);
  /// Every registered view, sorted by precise signature.
  std::vector<MaterializedViewInfo> ListViews() const EXCLUDES(mu_);

  /// Build locks currently held (expired-but-unreclaimed included). The
  /// leak-freedom invariant tested after every workload: this must be
  /// empty once all jobs have finished.
  size_t NumActiveLocks() const EXCLUDES(mu_);
  /// (precise signature, owning job) of every held lock, sorted by precise
  /// signature, for diagnostics.
  std::vector<std::pair<Hash128, uint64_t>> HeldLocks() const EXCLUDES(mu_);

  /// Simulated per-request latency under the configured thread count.
  double SimulatedLookupLatency() const;

 private:
  struct BuildLock {
    uint64_t job_id;
    LogicalTime expires_at;
    /// Wall-clock lease deadline (wall_clock_->NowSeconds() scale). A lock
    /// is expired when EITHER timeline passes: simulation-driven tests
    /// advance the logical clock, while a genuinely crashed builder is
    /// fenced out by the wall lease even if logical time stands still.
    double lease_deadline_wall = 0;
  };
  struct RegisteredView {
    MaterializedViewInfo info;
    LogicalTime expires_at;
  };

  /// Immutable analyzer output + tag inverted index. Replaced wholesale by
  /// LoadAnalysis; lookups grab the shared_ptr under mu_ (a pointer copy)
  /// and read without any lock — the read-mostly snapshot path of the
  /// metadata hot path.
  struct AnalysisSnapshot {
    std::vector<AnnotatedComputation> computations;
    // shard-stripe: immutable after construction — this map is only ever
    // read through a shared_ptr<const AnalysisSnapshot>, never mutated
    // under a service-wide mutex.
    std::unordered_map<std::string, std::set<size_t>> tag_index;
    // shard-stripe: immutable after construction, read lock-free through
    // the snapshot pointer like tag_index. Maps a feature table-set key to
    // the computations over exactly that table set, so containment
    // candidate enumeration never scans the full catalog.
    std::unordered_map<Hash128, std::vector<size_t>, Hash128Hasher>
        table_set_index;
  };

  /// Instrument handles; all null when uninstrumented.
  struct Instruments {
    obs::Counter* lookups = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* locks_granted = nullptr;
    obs::Counter* locks_denied = nullptr;
    obs::Counter* locks_abandoned = nullptr;
    obs::Counter* leases_reclaimed = nullptr;
    obs::Counter* stale_registrations = nullptr;
    obs::Counter* views_registered = nullptr;
    obs::Counter* views_purged = nullptr;
    obs::Gauge* registered_views = nullptr;
    obs::Histogram* lock_wait = nullptr;
  };

  /// True when `lock` is expired on either timeline; see BuildLock.
  static bool LockExpired(const BuildLock& lock, LogicalTime now,
                          double wall_now) {
    return lock.expires_at <= now || lock.lease_deadline_wall <= wall_now;
  }

  /// True when `view` has a logical expiry that `now` reached (expired but
  /// not yet purged).
  static bool ViewExpired(const RegisteredView& view, LogicalTime now) {
    return view.expires_at != 0 && view.expires_at <= now;
  }

  /// Removes one registered view and its containment-index entry.
  void EraseViewLocked(std::map<Hash128, RegisteredView>::iterator it)
      REQUIRES(mu_);

  /// Catalog changed in a way a cached plan could observe; invalidate.
  void BumpEpoch() { catalog_epoch_.fetch_add(1, std::memory_order_acq_rel); }

  /// Grabs the current analysis snapshot (may be null before the first
  /// LoadAnalysis).
  std::shared_ptr<const AnalysisSnapshot> AnalysisView() const
      EXCLUDES(mu_);

  /// Refreshes the registered-view gauge from views_.size().
  void UpdateViewsGauge() REQUIRES(mu_);

  SimulatedClock* clock_;
  StorageManager* storage_;
  MetadataServiceConfig config_;
  MonotonicClock* wall_clock_;
  /// Set once before concurrent use, read-only afterwards.
  fault::FaultInjector* fault_ = nullptr;
  Instruments obs_;

  mutable Mutex mu_;
  // shard-stripe: one catalog mutex, not stripes. The store is in memory,
  // and at seed 1 the whole wait on mu_ measures 0.0005 ms per job on
  // recurring_wire and 0.0004 ms on recurring_days (metadata.lock_wait_ms);
  // 8 signature-keyed stripes measured the same, within noise.
  std::map<Hash128, RegisteredView> views_ GUARDED_BY(mu_);
  // shard-stripe: same catalog mutex and measurement as views_ above; a
  // signature's view and build lock must flip atomically together.
  std::map<Hash128, BuildLock> locks_ GUARDED_BY(mu_);
  // shard-stripe: same catalog mutex and measurement as views_ above. Which
  // precise instances of each computation template are registered (the
  // containment tier 2.5 index), updated in the same critical section as
  // views_ so the two never disagree.
  std::unordered_map<Hash128, std::set<Hash128>, Hash128Hasher>
      instances_by_normalized_ GUARDED_BY(mu_);
  /// Null before the first LoadAnalysis.
  std::shared_ptr<const AnalysisSnapshot> analysis_ GUARDED_BY(mu_);
  mutable Counters counters_ GUARDED_BY(mu_);

  /// Starts at 1 so 0 can mean "no epoch observed" in callers.
  std::atomic<uint64_t> catalog_epoch_{1};
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_METADATA_METADATA_SERVICE_H_
