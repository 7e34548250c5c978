#ifndef CLOUDVIEWS_STORAGE_STORAGE_MANAGER_H_
#define CLOUDVIEWS_STORAGE_STORAGE_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "common/result.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "plan/physical_properties.h"
#include "types/batch.h"

namespace cloudviews {

/// \brief An immutable stored stream (job input, job output, or
/// materialized view).
///
/// The GUID identifies the data version: recurring instances write new
/// GUIDs under new names, and any in-place rewrite (e.g. a GDPR scrub)
/// installs a fresh GUID, which changes downstream precise signatures.
struct StreamData {
  std::string name;
  std::string guid;
  Schema schema;
  std::vector<Batch> batches;
  /// How the stream is physically laid out (views record their mined
  /// design here; plain outputs usually leave it unspecified).
  PhysicalProperties props;
  LogicalTime created_at = 0;
  /// 0 means never expires; the storage manager purges past this time.
  LogicalTime expires_at = 0;
  int64_t total_rows = 0;
  int64_t total_bytes = 0;
  /// False for a torn write: the writer failed partway, so some batches
  /// are missing. OpenStream refuses incomplete streams — a torn partial
  /// must never be read (or registered) as if it were the full view.
  bool complete = true;
};

using StreamHandle = std::shared_ptr<const StreamData>;

/// Builds the physical path of a materialized view. The path encodes the
/// precise signature and producing job id, exactly as the paper stores
/// them "into the physical path of the materialized files" (Sec 5, 6.2).
std::string EncodeViewPath(const Hash128& normalized,
                           const Hash128& precise, uint64_t producer_job_id);

/// Recovers signature components from a view path; returns false when the
/// path is not a view path.
[[nodiscard]] bool ParseViewPath(const std::string& path, Hash128* normalized,
                   Hash128* precise, uint64_t* producer_job_id);

/// \brief Thread-safe in-memory store of all streams in the simulated
/// cluster; stands in for the SCOPE distributed store.
class StorageManager {
 public:
  explicit StorageManager(SimulatedClock* clock) : clock_(clock) {}

  /// Publishes stream/byte gauges (total and materialized-view slices) and
  /// a written-bytes counter into `metrics`. Call before concurrent use.
  void SetMetrics(obs::MetricsRegistry* metrics) EXCLUDES(mu_);

  /// Routes reads/writes through `fault` (storage.read / storage.write /
  /// storage.view_* points, keyed by stream name). Call before concurrent
  /// use; null disables injection.
  void SetFaultInjector(fault::FaultInjector* fault) { fault_ = fault; }

  /// Writes (or replaces) a stream. Expiry of 0 = never.
  Status WriteStream(StreamData data) EXCLUDES(mu_);

  Result<StreamHandle> OpenStream(const std::string& name) const
      EXCLUDES(mu_);
  [[nodiscard]] bool StreamExists(const std::string& name) const
      EXCLUDES(mu_);
  Status DeleteStream(const std::string& name) EXCLUDES(mu_);

  /// Deletes streams whose expiry passed; returns the number purged
  /// (Sec 5.4: "our Storage Manager takes care of purging the file once
  /// it expires").
  size_t PurgeExpired() EXCLUDES(mu_);

  std::vector<std::string> ListStreams(const std::string& prefix = "") const
      EXCLUDES(mu_);

  int64_t TotalBytes() const EXCLUDES(mu_);
  size_t NumStreams() const EXCLUDES(mu_);

  SimulatedClock* clock() const { return clock_; }

 private:
  /// Moves the running byte/view totals by one mutation — subtracts the
  /// replaced or erased stream `removed`, adds the new stream `added`
  /// (either may be null) — and republishes the level gauges. Call after
  /// the stream map itself has changed.
  void Account(const StreamData* removed, const StreamData* added)
      REQUIRES(mu_);

  struct Instruments {
    obs::Counter* bytes_written = nullptr;
    obs::Gauge* streams = nullptr;
    obs::Gauge* total_bytes = nullptr;
    obs::Gauge* view_bytes = nullptr;
    obs::Gauge* view_count = nullptr;
  };

  SimulatedClock* clock_;
  /// Set once before concurrent use (test/CI wiring), read-only afterwards.
  fault::FaultInjector* fault_ = nullptr;
  Instruments obs_;
  mutable Mutex mu_;
  std::map<std::string, StreamHandle> streams_ GUARDED_BY(mu_);
  /// Running totals over streams_, kept exact by Account.
  int64_t total_bytes_ GUARDED_BY(mu_) = 0;
  int64_t view_bytes_ GUARDED_BY(mu_) = 0;
  int64_t view_count_ GUARDED_BY(mu_) = 0;
};

/// Convenience: assembles a StreamData from batches, computing row/byte
/// totals.
StreamData MakeStreamData(std::string name, std::string guid, Schema schema,
                          std::vector<Batch> batches, LogicalTime now,
                          LogicalTime expires_at = 0,
                          PhysicalProperties props = {});

}  // namespace cloudviews

#endif  // CLOUDVIEWS_STORAGE_STORAGE_MANAGER_H_
