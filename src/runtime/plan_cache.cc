#include "runtime/plan_cache.h"

namespace cloudviews {

void PlanCache::SetMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  obs_.hits_full = metrics->GetCounter(
      "cv_plan_cache_hits_full_total", {},
      "Plan-cache probes served the fully optimized physical plan (metadata "
      "lookup and the whole optimizer skipped)");
  obs_.misses = metrics->GetCounter(
      "cv_plan_cache_misses_total", {},
      "Plan-cache probes not served the cached plan (no entry, stale epoch, "
      "new data, demotion, or a failed finish); the job compiled cold");
  obs_.epoch_invalidations = metrics->GetCounter(
      "cv_plan_cache_epoch_invalidations_total", {},
      "Cached plans not served because the catalog epoch moved (a view was "
      "registered, purged, or lock-flipped since compile)");
  obs_.demotions = metrics->GetCounter(
      "cv_plan_cache_demotions_total", {},
      "Cached plans not served because a view they read was no longer "
      "live");
  obs_.insertions = metrics->GetCounter("cv_plan_cache_insertions_total", {},
                                        "Plan-cache entries inserted or "
                                        "replaced");
  obs_.evictions = metrics->GetCounter("cv_plan_cache_evictions_total", {},
                                       "Plan-cache entries evicted by the "
                                       "LRU capacity bound");
  obs_.entries = metrics->GetGauge("cv_plan_cache_entries", {},
                                   "Plan-cache entries currently resident");
}

std::shared_ptr<const PlanCache::Entry> PlanCache::Lookup(
    const Key& key, uint64_t epoch, const Hash128& precise) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    const Entry& entry = *it->second->entry;
    if (entry.catalog_epoch == epoch && entry.precise == precise) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->entry;
    }
    if (entry.catalog_epoch != epoch) {
      ++stats_.epoch_invalidations;
      if (obs_.epoch_invalidations != nullptr) {
        obs_.epoch_invalidations->Increment();
      }
    }
  }
  ++stats_.misses;
  if (obs_.misses != nullptr) obs_.misses->Increment();
  return nullptr;
}

void PlanCache::Insert(const Key& key, Entry entry) {
  auto shared = std::make_shared<const Entry>(std::move(entry));
  MutexLock lock(mu_);
  ++stats_.insertions;
  if (obs_.insertions != nullptr) obs_.insertions->Increment();
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->entry = std::move(shared);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Node{key, std::move(shared)});
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++stats_.evictions;
      if (obs_.evictions != nullptr) obs_.evictions->Increment();
    }
  }
  stats_.entries = lru_.size();
  if (obs_.entries != nullptr) {
    obs_.entries->Set(static_cast<double>(lru_.size()));
  }
}

void PlanCache::Invalidate(const Key& key) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return;
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.explicit_invalidations;
  stats_.entries = lru_.size();
  if (obs_.entries != nullptr) {
    obs_.entries->Set(static_cast<double>(lru_.size()));
  }
}

void PlanCache::OnServed() {
  MutexLock lock(mu_);
  ++stats_.hits_full;
  if (obs_.hits_full != nullptr) obs_.hits_full->Increment();
}

void PlanCache::OnNotServed(bool demoted) {
  MutexLock lock(mu_);
  ++stats_.misses;
  if (obs_.misses != nullptr) obs_.misses->Increment();
  if (!demoted) return;
  ++stats_.demotions;
  if (obs_.demotions != nullptr) obs_.demotions->Increment();
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace cloudviews
