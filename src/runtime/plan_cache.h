#ifndef CLOUDVIEWS_RUNTIME_PLAN_CACHE_H_
#define CLOUDVIEWS_RUNTIME_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "plan/plan_node.h"

namespace cloudviews {

/// \brief Bounded, thread-safe LRU of compiled plans for recurring job
/// templates — the recurring-job fast path (see DESIGN.md).
///
/// Keyed by the *normalized* signature of the submitted logical plan (the
/// script-template identity, Sec 3) plus the CloudViews opt-in flag. Each
/// entry holds the fully optimized physical plan of one instance, tagged
/// with the metadata service's catalog epoch and the instance's precise
/// signature. It is served only when the epoch still matches (no view was
/// registered, purged, or lock-flipped since — never serve a stale
/// rewrite) and the precise signature matches (same template over the same
/// data). Every other probe compiles cold.
class PlanCache {
 public:
  struct Key {
    Hash128 normalized;
    /// Plans compiled with and without the view passes differ; a template
    /// submitted under both settings gets two independent entries.
    bool cloudviews = false;

    bool operator==(const Key& other) const {
      return normalized == other.normalized && cloudviews == other.cloudviews;
    }
  };

  struct Entry {
    /// Catalog epoch `rewritten` was compiled against.
    uint64_t catalog_epoch = 0;
    /// Precise signature of the instance that produced `rewritten`.
    Hash128 precise;
    /// Fully optimized physical plan. Only plans without side effects are
    /// cached (no Spool build locks). Immutable once inserted — serve by
    /// Clone.
    PlanNodePtr rewritten;
    /// Containment reuse inside `rewritten`, restored on a hit: a
    /// compensated view read cannot be told from the plan shape alone.
    int views_reused_subsumed = 0;
    int compensation_nodes_added = 0;
  };

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  static constexpr size_t kDefaultCapacity = 256;

  /// Publishes hit/miss/invalidation counters and the entry-count gauge.
  /// Call before concurrent use.
  void SetMetrics(obs::MetricsRegistry* metrics);

  /// Probes for `key` at the caller-observed catalog `epoch` (read BEFORE
  /// the probe, so a concurrent catalog change can only make the check
  /// conservatively stale, never unsafe) and instance signature `precise`.
  /// Returns the entry only when both match; the entry is shared and
  /// immutable, so callers must Clone() its plan before binding it. A null
  /// return counts as a miss; a non-null one is counted by OnServed or
  /// OnNotServed once the caller has validated it.
  std::shared_ptr<const Entry> Lookup(const Key& key, uint64_t epoch,
                                      const Hash128& precise) EXCLUDES(mu_);

  /// Inserts or replaces the entry for `key`, evicting the least recently
  /// used entry when full. Trees in `entry` must be private clones.
  void Insert(const Key& key, Entry entry) EXCLUDES(mu_);

  /// Drops the entry for `key` (e.g. after a views_fallback proved its
  /// rewritten plan unservable). No-op when absent.
  void Invalidate(const Key& key) EXCLUDES(mu_);

  /// Outcome accounting for an entry Lookup returned.
  void OnServed();
  /// The entry was not served, so the probe counts as a miss. `demoted`
  /// when a view it reads was no longer live (clock-driven expiry bumps no
  /// epoch); otherwise finishing the cached plan failed.
  void OnNotServed(bool demoted);

  struct Stats {
    uint64_t hits_full = 0;
    /// Every probe not served the cached plan; epoch_invalidations and
    /// demotions count two of its reasons.
    uint64_t misses = 0;
    uint64_t epoch_invalidations = 0;
    uint64_t demotions = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t explicit_invalidations = 0;
    size_t entries = 0;
  };
  Stats stats() const EXCLUDES(mu_);

 private:
  struct KeyHasher {
    size_t operator()(const Key& key) const {
      return Hash128Hasher()(key.normalized) ^
             (key.cloudviews ? 0x9e3779b97f4a7c15ULL : 0);
    }
  };
  struct Node {
    Key key;
    std::shared_ptr<const Entry> entry;
  };
  struct Instruments {
    obs::Counter* hits_full = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* epoch_invalidations = nullptr;
    obs::Counter* demotions = nullptr;
    obs::Counter* insertions = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* entries = nullptr;
  };

  size_t capacity_;
  /// Set once before concurrent use, read-only afterwards.
  Instruments obs_;

  mutable Mutex mu_;
  /// Most recently used at the front.
  std::list<Node> lru_ GUARDED_BY(mu_);
  std::unordered_map<Key, std::list<Node>::iterator, KeyHasher> index_
      GUARDED_BY(mu_);
  mutable Stats stats_ GUARDED_BY(mu_);
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_RUNTIME_PLAN_CACHE_H_
