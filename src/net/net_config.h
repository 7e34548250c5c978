#ifndef CLOUDVIEWS_NET_NET_CONFIG_H_
#define CLOUDVIEWS_NET_NET_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace cloudviews {
namespace net {

/// Listen backlog passed to ::listen.
inline constexpr int kListenBacklog = 64;
/// Completed-job records a server keeps for status/profile-fetch polling;
/// the oldest finished records are evicted past this bound so a long-lived
/// server holds bounded memory.
inline constexpr size_t kJobTableCapacity = size_t{1} << 16;

/// \brief Tuning knobs for the job-service network front door.
///
/// Header-only so CloudViewsConfig can embed it without cv_core linking
/// cv_net; the server binary and tests construct a JobServiceServer from
/// `CloudViewsConfig::net` (or a standalone copy).
struct NetServerConfig {
  /// Listen address. The default binds loopback only: the front door is an
  /// intra-host protocol until authentication exists.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (the bound port is
  /// returned by JobServiceServer::Start so tests and benches can connect).
  uint16_t port = 0;
  /// Maximum concurrently open client connections; accepts beyond the cap
  /// are closed immediately after accept (counted as sheds).
  int max_connections = 64;
  /// Per-connection cap on submissions admitted but not yet responded to.
  /// A connection exceeding it gets RETRY_AFTER(CONN_CAP).
  int per_connection_inflight_cap = 8;
  /// Bound on the submission queue between the wire and JobService. A full
  /// queue sheds with RETRY_AFTER(QUEUE_FULL) instead of queuing unboundedly.
  size_t submission_queue_capacity = 256;
  /// Worker threads draining the submission queue into JobService::SubmitJob.
  int submission_workers = 4;
  /// Hint returned in RETRY_AFTER responses; clients should back off at
  /// least this long before resubmitting.
  uint32_t retry_after_ms = 25;
};

}  // namespace net
}  // namespace cloudviews

#endif  // CLOUDVIEWS_NET_NET_CONFIG_H_
