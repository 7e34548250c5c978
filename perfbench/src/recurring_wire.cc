// recurring_wire: tiny recurring jobs over loopback. A closed loop of
// client threads (one connection each, wait=true) cycles three request
// classes against a JobServiceServer in the default configuration:
//
//   repeat   - script A over day 0 into one shared output: the same precise
//              signature every time, so the plan cache serves its full tier.
//   next_day - script B (same cooked step as A, different tail) over one of
//              the client's days: a new precise signature for one cached
//              template, so the plan cache serves its skeleton tier.
//   overlap  - script C, a global aggregate over the same cooked step with
//              an ORDER BY, over the same day as next_day: answered from
//              that day's view by containment plus compensation. Every
//              overlap reply must report views_reused_subsumed > 0; the
//              workload checks it.
//
// The kDates days are dealt out to the clients, so no two clients ever send
// the same (script, day) and one client's consecutive next_day or overlap
// requests differ in day. A full-tier plan-cache hit is then impossible for
// those two classes. That matters for overlap: a full-tier hit reports
// views_reused but never views_reused_subsumed, even for a compensated plan.
//
// Before timing the store holds kHistoryStreams earlier output streams and
// every output name the loop writes, so the stream count stays fixed while
// timing: store-size-dependent costs show at a stated size instead of
// growing with run length.
//
// The timed phase alternates one-second CloudViews-on and CloudViews-off
// slices, half of its time each; the off slices are the baseline.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "common/mutex.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/cloudviews.h"
#include "net/client.h"
#include "net/server.h"
#include "perfbench.h"
#include "types/value.h"

namespace cloudviews {
namespace perfbench {
namespace {

constexpr int kDates = 9;
constexpr size_t kRowsPerInput = 384;
constexpr int kHistoryStreams = 10000;
constexpr size_t kHistoryRows = 4;
/// CloudViews-off requests per client at set-up: two passes over the
/// dates, which records every reference fingerprint.
constexpr int kReferenceRequestsPerClient = 6 * kDates;
/// The timed phase alternates CloudViews-on and CloudViews-off slices of
/// this length, so the baseline is measured in the same stretch of time as
/// what it is compared with.
constexpr double kSliceSeconds = 1.0;
/// CloudViews-on warm-up requests per client (two passes over the dates).
constexpr int kWarmupRequestsPerClient = 6 * kDates;
/// Peak RSS is read after this many timed jobs, a fixed amount of work.
constexpr long kRssCheckpointJobs = 5000;

const char* kScriptA = R"(
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
slow   = SELECT page, COUNT(*) AS n, SUM(latency) AS total_latency
         FROM clicks WHERE latency > 50 GROUP BY page;
OUTPUT slow TO "wire_{tag}";
)";

const char* kScriptB = R"(
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
slow   = SELECT page, COUNT(*) AS n, SUM(latency) AS total_latency
         FROM clicks WHERE latency > 50 GROUP BY page;
top    = SELECT page, n, total_latency FROM slow ORDER BY n DESC TOP 3;
OUTPUT top TO "wire_{tag}";
)";

const char* kScriptC = R"(
clicks = EXTRACT user:int, page:string, latency:int, when:date
         FROM "clicks_{date}";
total  = SELECT COUNT(*) AS nrows, SUM(latency) AS lat_sum
         FROM clicks WHERE latency > 50 ORDER BY nrows DESC;
OUTPUT total TO "wire_{tag}";
)";

enum Class { kRepeat = 0, kNextDay = 1, kOverlap = 2, kClasses = 3 };
const char* kClassNames[kClasses] = {"repeat", "next_day", "overlap"};

std::string Date(int i) {
  int64_t base = 0;
  (void)ParseDate("2018-03-01", &base);
  return FormatDate(base + i);
}

struct Request {
  Class cls;
  std::string reference_key;  // script@date
  net::SubmitRequest submit;
};

net::SubmitRequest MakeSubmit(const char* script, const std::string& tmpl,
                              const std::string& date, const std::string& tag,
                              bool cloudviews) {
  net::SubmitRequest req;
  req.script = script;
  req.params.push_back({"date", net::WireParamKind::kDate, date, 0});
  req.params.push_back({"tag", net::WireParamKind::kString, tag, 0});
  req.template_id = tmpl;
  req.vc = "vc-wire";
  req.user = tmpl;
  req.enable_cloudviews = cloudviews;
  return req;
}

/// Day index of client `c`'s k-th next_day/overlap request: the client's
/// days are c, c + clients, c + 2 * clients, ... below kDates.
int ClientDay(int c, int clients, long k) {
  const int days = (kDates - c + clients - 1) / clients;
  return c + static_cast<int>(k % days) * clients;
}

/// The i-th request of client `c` of `clients`: classes rotate, next_day and
/// overlap walk the client's days.
Request MakeRequest(int c, int clients, long i, bool cloudviews) {
  Request r;
  r.cls = static_cast<Class>(i % kClasses);
  const std::string date = Date(ClientDay(c, clients, i / kClasses));
  const std::string client = "_c" + std::to_string(c);
  switch (r.cls) {
    case kRepeat:
      r.reference_key = "A@" + Date(0);
      r.submit = MakeSubmit(kScriptA, "wire-repeat", Date(0), "repeat", cloudviews);
      break;
    case kNextDay:
      r.reference_key = "B@" + date;
      r.submit = MakeSubmit(kScriptB, "wire-next-day", date, "next_day" + client,
                            cloudviews);
      break;
    default:
      r.reference_key = "C@" + date;
      r.submit = MakeSubmit(kScriptC, "wire-overlap", date, "overlap" + client,
                            cloudviews);
      break;
  }
  return r;
}

void WriteClicks(StorageManager* storage, const std::string& date, uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(date.size()) +
          Fnv1a64(date.data(), date.size()));
  Schema schema({{"user", DataType::kInt64},
                 {"page", DataType::kString},
                 {"latency", DataType::kInt64},
                 {"when", DataType::kDate}});
  Batch b(schema);
  int64_t day = 0;
  (void)ParseDate(date, &day);
  static const char* kPages[] = {"/home", "/search", "/cart", "/about", "/help"};
  for (size_t i = 0; i < kRowsPerInput; ++i) {
    (void)b.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(100))),
                       Value::String(kPages[rng.Uniform(5)]),
                       Value::Int64(static_cast<int64_t>(rng.Uniform(500))),
                       Value::Date(day)});
  }
  (void)storage->WriteStream(MakeStreamData("clicks_" + date, "guid-clicks_" + date,
                                            schema, {b}, storage->clock()->Now()));
}

/// Per-client tallies of one phase.
struct ClientTally {
  std::vector<double> latency_s;
  std::vector<double> class_latency_s[kClasses];
  std::vector<double> client_overhead_s;
  std::vector<double> queue_wait_s;
  long retries = 0;
  long attempted = 0;
  long plan_cache_hits[kClasses] = {0, 0, 0};
  long views_reused[kClasses] = {0, 0, 0};
  long views_reused_subsumed[kClasses] = {0, 0, 0};
  long views_built = 0;
  long fallbacks = 0;
  long jobs_reusing = 0;
  std::vector<std::string> failures;
  LayerTrace layers;
};

/// A service plus its server, set up and warmed.
class WireService {
 public:
  WireService(const RunOptions& opt, bool observability, Report* report)
      : opt_(opt),
        clients_(std::clamp(opt.nproc - 1, 1, 3)),
        next_request_{std::vector<long>(static_cast<size_t>(clients_), 0),
                      std::vector<long>(static_cast<size_t>(clients_), 0)} {
    const double t0 = Now();
    CloudViewsConfig config;  // the job_server configuration
    config.analyzer.selection.top_k = 1;
    config.analyzer.selection.min_frequency = 2;
    config.enable_observability = observability;
    cv_ = std::make_unique<CloudViews>(config);
    for (int d = 0; d < kDates; ++d) WriteClicks(cv_->storage(), Date(d), opt.seed);
    WriteHistory();
    server_ = std::make_unique<net::JobServiceServer>(cv_.get(), cv_->config().net);
    auto port = server_->Start();
    if (!port.ok()) {
      report->Attempt();
      report->Fail("server start: " + port.status().ToString());
      return;
    }
    port_ = *port;
    Prime(report);
    (void)RunLoop(kReferenceRequestsPerClient, 0, false, false, nullptr, report);
    (void)RunLoop(kWarmupRequestsPerClient, 0, true, false, nullptr, report);
    setup_s_ = Now() - t0;
  }

  ~WireService() {
    if (server_ != nullptr) server_->Stop();
  }

  WireService(const WireService&) = delete;
  WireService& operator=(const WireService&) = delete;

  /// Peak and current RSS, read once when the `at`-th job of the loops
  /// sharing this checkpoint finishes.
  struct RssCheckpoint {
    explicit RssCheckpoint(long at_jobs) : at(at_jobs) {}
    const long at;
    std::atomic<long> done{0};
    double peak_mib = -1;  // written by one client, read after the joins
    double rss_mib = 0;
  };

  /// Closed loop: each client runs `count` requests, or until `seconds`
  /// pass when count is 0. Returns the merged tally and its wall time.
  struct Loop {
    ClientTally tally;
    double wall_s = 0;
    double cpu_s = 0;
    long jobs = 0;
  };
  Loop RunLoop(long count, double seconds, bool cloudviews, bool traced,
               RssCheckpoint* checkpoint, Report* report) {
    std::vector<ClientTally> tallies(static_cast<size_t>(clients_));
    std::vector<std::thread> threads;
    auto on_done = [checkpoint] {
      if (checkpoint != nullptr && checkpoint->done.fetch_add(1) + 1 == checkpoint->at) {
        checkpoint->peak_mib = PeakRssMiB();
        checkpoint->rss_mib = CurrentRssMiB();
      }
    };
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();
    const double deadline = t0 + seconds;
    for (int c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] {
        ClientLoop(c, count, deadline, cloudviews, traced, on_done,
                   &tallies[static_cast<size_t>(c)]);
      });
    }
    for (auto& t : threads) t.join();
    Loop loop;
    loop.wall_s = Now() - t0;
    loop.cpu_s = ProcessCpuSeconds() - cpu0;
    for (ClientTally& t : tallies) {
      report->Attempt(t.attempted);
      for (const std::string& f : t.failures) report->Fail(f);
      Merge(t, &loop.tally);
    }
    loop.jobs = static_cast<long>(loop.tally.latency_s.size());
    return loop;
  }

  static void Merge(const Loop& from, Loop* into) {
    Merge(from.tally, &into->tally);
    into->wall_s += from.wall_s;
    into->cpu_s += from.cpu_s;
    into->jobs += from.jobs;
  }

  CloudViews* cv() { return cv_.get(); }
  net::JobServiceServer* server() { return server_.get(); }
  double setup_s() const { return setup_s_; }
  const AnalysisResult& analysis() const { return analysis_; }
  double analyze_s() const { return analyze_s_; }
  const std::vector<double>& history_write_s() const { return history_write_s_; }

 private:
  void WriteHistory() {
    Schema schema({{"key", DataType::kInt64}, {"value", DataType::kDouble}});
    Rng rng(opt_.seed + 17);
    history_write_s_.reserve(kHistoryStreams);
    for (int i = 0; i < kHistoryStreams; ++i) {
      Batch b(schema);
      for (size_t r = 0; r < kHistoryRows; ++r) {
        (void)b.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(1000))),
                           Value::Double(rng.NextDouble())});
      }
      const std::string name = StrFormat("history_out_%05d", i);
      StreamData data = MakeStreamData(name, "guid-" + name, schema, {b},
                                       cv_->clock()->Now());
      const double t0 = Now();
      (void)cv_->storage()->WriteStream(std::move(data));
      history_write_s_.push_back(Now() - t0);
    }
  }

  /// Day-0 history for A and B (the cooked step occurs twice), then the
  /// analyzer selects it.
  void Prime(Report* report) {
    auto client = net::Client::Connect("127.0.0.1", port_);
    report->Attempt(2);
    if (!client.ok()) {
      report->Fail("prime connect: " + client.status().ToString());
      return;
    }
    for (auto [script, tmpl] : {std::pair{kScriptA, "wire-repeat"},
                                std::pair{kScriptB, "wire-next-day"}}) {
      auto r = client->Submit(MakeSubmit(script, tmpl, Date(0), "prime_" + std::string(tmpl), true));
      if (!r.ok() || r->kind != net::Client::SubmitReply::Kind::kResult) {
        report->Fail(std::string("prime ") + tmpl);
      }
    }
    const double t0 = Now();
    analysis_ = cv_->RunAnalyzerAndLoad();
    analyze_s_ = Now() - t0;
  }

  template <typename OnDone>
  void ClientLoop(int c, long count, double deadline, bool cloudviews,
                  bool traced, const OnDone& on_done, ClientTally* tally) {
    auto client = net::Client::Connect("127.0.0.1", port_);
    if (!client.ok()) {
      ++tally->attempted;
      tally->failures.push_back("connect: " + client.status().ToString());
      return;
    }
    fault::RetryPolicy policy;
    policy.max_attempts = 100;
    // Each client's CloudViews-on (and, apart, CloudViews-off) request
    // sequence continues across loops. A loop therefore never opens with the
    // request its client sent last in that mode, which the plan cache's full
    // tier could still hold.
    long& i = next_request_[cloudviews ? 1 : 0][static_cast<size_t>(c)];
    for (const long end = i + count; count > 0 ? i < end : Now() < deadline; ++i) {
      Request req = MakeRequest(c, clients_, i, cloudviews);
      ++tally->attempted;
      int retries = 0;
      const double t0 = Now();
      auto reply = client->SubmitWithRetry(req.submit, policy, nullptr, &retries);
      const double t1 = Now();
      tally->retries += retries;
      if (!reply.ok() || reply->kind != net::Client::SubmitReply::Kind::kResult) {
        tally->failures.push_back(std::string(kClassNames[req.cls]) + " " +
                                  req.reference_key + ": " +
                                  (reply.ok() ? "not a result" : reply.status().ToString()));
        continue;
      }
      const net::JobOutcome& out = reply->result.outcome;
      on_done();
      tally->latency_s.push_back(t1 - t0);
      tally->class_latency_s[req.cls].push_back(t1 - t0);
      tally->queue_wait_s.push_back(reply->result.timings.queue_seconds);
      tally->plan_cache_hits[req.cls] += out.plan_cache_hit ? 1 : 0;
      tally->views_reused[req.cls] += out.views_reused;
      tally->views_reused_subsumed[req.cls] += out.views_reused_subsumed;
      tally->views_built += out.views_materialized;
      tally->fallbacks += out.views_fallback;
      tally->jobs_reusing += out.views_reused > 0 ? 1 : 0;
      const std::string wrong = CheckOutput(req, out, cloudviews, count == 0);
      if (!wrong.empty()) {
        tally->failures.push_back(std::string(kClassNames[req.cls]) + " " +
                                  req.reference_key + ": " + wrong);
      }
      if (traced) Trace(&*client, reply->result, t0, t1, tally);
    }
  }

  /// Records the CloudViews-off reference, or checks a reply against it.
  /// In a timed loop an overlap reply must also be a subsumption hit.
  /// Returns what is wrong, or an empty string.
  std::string CheckOutput(const Request& req, const net::JobOutcome& out,
                          bool cloudviews, bool timed) {
    if (out.output_rows <= 0) return "empty output";
    if (cloudviews && timed && req.cls == kOverlap &&
        out.views_reused_subsumed == 0) {
      return "not served by subsumption";
    }
    MutexLock lock(reference_mu_);
    auto [it, inserted] = reference_.emplace(req.reference_key, out.output_fingerprint);
    // A CloudViews-on reply needs a reference to compare with.
    const bool ok = inserted ? !cloudviews : it->second == out.output_fingerprint;
    return ok ? "" : "output differs from its CloudViews-off reference";
  }

  /// Folds one wire job: the benchmark span around SubmitWithRetry, with
  /// the server's net.request tree (fetched profile) under it and the
  /// server-stamped queue wait as a child of net.request, ending where the
  /// job span starts.
  void Trace(net::Client* client, const net::SubmitResultResponse& result,
             double t0, double t1, ClientTally* tally) {
    std::unique_ptr<obs::SpanRecord> request;
    auto profile = client->FetchProfile(result.ticket);
    if (profile.ok()) {
      auto parsed = ParseSpanJson(profile->profile_json);
      if (parsed.ok()) {
        request = std::move(*parsed);
        tally->client_overhead_s.push_back(
            (t1 - t0) - (request->end_seconds - request->start_seconds));
        const obs::SpanRecord* job = request->Find("job");
        if (job != nullptr && result.timings.queue_seconds > 0) {
          request->children.push_back(BenchSpan(
              "net.queue_wait", job->start_seconds - result.timings.queue_seconds,
              job->start_seconds));
        }
      }
    }
    tally->layers.AddJob("bench.submit_with_retry", t0, t1, request.get());
  }

  static void Merge(const ClientTally& from, ClientTally* into) {
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&into->latency_s, from.latency_s);
    for (int k = 0; k < kClasses; ++k) {
      append(&into->class_latency_s[k], from.class_latency_s[k]);
      into->plan_cache_hits[k] += from.plan_cache_hits[k];
      into->views_reused[k] += from.views_reused[k];
      into->views_reused_subsumed[k] += from.views_reused_subsumed[k];
    }
    append(&into->client_overhead_s, from.client_overhead_s);
    append(&into->queue_wait_s, from.queue_wait_s);
    into->retries += from.retries;
    into->attempted += from.attempted;
    into->views_built += from.views_built;
    into->fallbacks += from.fallbacks;
    into->jobs_reusing += from.jobs_reusing;
    into->layers.Merge(from.layers);
  }

  RunOptions opt_;
  int clients_;
  /// Index of each client's next request, CloudViews off [0] and on [1];
  /// each entry is written only by its client's thread.
  std::vector<long> next_request_[2];
  std::unique_ptr<CloudViews> cv_;
  std::unique_ptr<net::JobServiceServer> server_;
  uint16_t port_ = 0;
  double setup_s_ = 0;
  double analyze_s_ = 0;
  AnalysisResult analysis_;
  std::vector<double> history_write_s_;
  Mutex reference_mu_;
  std::map<std::string, Hash128> reference_ GUARDED_BY(reference_mu_);
};

/// One timed closed-loop phase with the store size at both ends.
struct Phase {
  WireService::Loop loop;           // CloudViews on
  WireService::Loop baseline_loop;  // CloudViews off (interleaved slices)
  double streams_start = 0;
  double streams_end = 0;
  double peak_rss_mib = -1;
  double retained_kib_per_job = 0;
  RegistrySample delta;
  net::ServerStatsResponse stats_before;
  net::ServerStatsResponse stats_after;
};

/// With `baseline`, alternates CloudViews-on and CloudViews-off slices
/// until `seconds` / 2 of CloudViews-on time pass, so each side gets half
/// of `seconds`; otherwise runs one CloudViews-on loop of `seconds`.
Phase RunPhase(WireService* service, double seconds, bool baseline, bool traced,
               Report* report) {
  Phase p;
  p.streams_start = static_cast<double>(service->cv()->storage()->NumStreams());
  const RegistrySample before = SampleRegistry(*service->cv()->metrics());
  p.stats_before = service->server()->Stats();
  WireService::RssCheckpoint checkpoint(kRssCheckpointJobs);
  if (!baseline) {
    p.loop = service->RunLoop(0, seconds, true, traced, &checkpoint, report);
  } else {
    for (int slice = 0; slice % 2 == 1 || p.loop.wall_s < seconds / 2; ++slice) {
      const bool on = slice % 2 == 0;
      WireService::Merge(
          service->RunLoop(0, kSliceSeconds, on, false, &checkpoint, report),
          on ? &p.loop : &p.baseline_loop);
      if (report->failed() > 0) break;
    }
  }
  p.stats_after = service->server()->Stats();
  p.delta = Delta(before, SampleRegistry(*service->cv()->metrics()));
  p.streams_end = static_cast<double>(service->cv()->storage()->NumStreams());
  p.peak_rss_mib = checkpoint.peak_mib;
  const long jobs = p.loop.jobs + p.baseline_loop.jobs;
  if (checkpoint.peak_mib >= 0 && jobs > checkpoint.at) {
    p.retained_kib_per_job = (CurrentRssMiB() - checkpoint.rss_mib) * 1024 /
                             static_cast<double>(jobs - checkpoint.at);
  }
  return p;
}

double Median(const std::vector<double>& values) {
  DistributionSummary d;
  d.AddAll(values);
  return d.Median();
}

uint64_t Sheds(const net::ServerStatsResponse& s) {
  return s.shed_queue_full + s.shed_conn_cap + s.shed_draining + s.shed_injected;
}

void NoteClasses(const ClientTally& t, Report* report) {
  for (int k = 0; k < kClasses; ++k) {
    report->Note(StrFormat(
        "class %-8s n=%zu p50=%.3fms plan_cache_hits=%ld views_reused=%ld "
        "subsumed=%ld",
        kClassNames[k], t.class_latency_s[k].size(),
        Median(t.class_latency_s[k]) * 1e3, t.plan_cache_hits[k],
        t.views_reused[k], t.views_reused_subsumed[k]));
  }
}

}  // namespace

int RunRecurringWire(const RunOptions& opt, Report* report) {
  report->Note(StrFormat(
      "recurring_wire: %d clicks inputs x %zu rows, %d retained history "
      "streams, %d closed-loop clients over loopback, default server config",
      kDates, kRowsPerInput, kHistoryStreams, std::clamp(opt.nproc - 1, 1, 3)));
  const int setups = opt.trace ? 1 : 3;
  DistributionSummary setup_times;
  std::unique_ptr<WireService> service;
  for (int i = 0; i < setups; ++i) {
    service.reset();  // one server at a time
    service = std::make_unique<WireService>(opt, true, report);
    if (report->failed() > 0) return 0;
    setup_times.Add(service->setup_s());
  }

  const double phase_seconds = opt.trace ? opt.seconds / 3 : opt.seconds;
  Phase plain = RunPhase(service.get(), phase_seconds, !opt.trace, false, report);
  NoteClasses(plain.loop.tally, report);
  const ClientTally& t = plain.loop.tally;
  // A fixed probe of kClasses * kDates requests per client: its
  // reuse counts do not depend on how many requests the timed loop made.
  const WireService::Loop probe =
      service->RunLoop(kClasses * kDates, 0, true, false, nullptr, report);
  const ClientTally& pt = probe.tally;
  const long probe_reused = pt.views_reused[0] + pt.views_reused[1] + pt.views_reused[2];
  const long probe_subsumed = pt.views_reused_subsumed[0] +
                              pt.views_reused_subsumed[1] +
                              pt.views_reused_subsumed[2];
  const AnalysisResult& analysis = service->analysis();
  const int drift = CheckRepeat(
      opt, AnalyzerRecord(analysis),
      StrFormat("probe: reuse.views_built=%ld reuse.views_reused=%ld "
                "reuse.views_reused_subsumed=%ld reuse.fallbacks=%ld",
                pt.views_built, probe_reused, probe_subsumed, pt.fallbacks),
      report);
  const int store_drift = CheckSteadyStore(plain.streams_start, plain.streams_end, 0, report);

  if (!opt.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_times.Median();
    e2e.jobs = plain.loop.jobs;
    e2e.phase_seconds = plain.loop.wall_s;
    e2e.latency_s.AddAll(t.latency_s);
    e2e.cpu_seconds = plain.loop.cpu_s;
    e2e.baseline_jobs = plain.baseline_loop.jobs;
    e2e.baseline_phase_seconds = plain.baseline_loop.wall_s;
    e2e.baseline_latency_s.AddAll(plain.baseline_loop.tally.latency_s);
    e2e.stored_bytes = static_cast<double>(service->cv()->storage()->TotalBytes());
    e2e.input_bytes = StreamBytes(*service->cv()->storage(), "clicks_");
    e2e.peak_rss_mib = plain.peak_rss_mib;
    if (e2e.peak_rss_mib < 0) {
      report->Flag("phase ended before the peak RSS checkpoint");
    }
    e2e.Emit(report);
    return 0;
  }

  Phase traced = RunPhase(service.get(), phase_seconds, false, true, report);
  traced.loop.tally.layers.Emit(traced.delta, report);
  WorkloadLayers w;
  const ClientTally& tt = traced.loop.tally;
  w.client_overhead_s.AddAll(tt.client_overhead_s);
  w.queue_wait_s.AddAll(tt.queue_wait_s);
  w.retries = static_cast<double>(tt.retries);
  w.sheds = static_cast<double>(Sheds(traced.stats_after) - Sheds(traced.stats_before));
  w.admissions = static_cast<double>(traced.stats_after.accepted - traced.stats_before.accepted);
  w.streams_start = traced.streams_start;
  w.streams_end = traced.streams_end;
  w.write_stream_s.AddAll(service->history_write_s());
  w.retained_kib_per_job = traced.retained_kib_per_job;
  w.analyze_s = service->analyze_s();
  w.subgraphs_mined = static_cast<double>(analysis.subgraphs_mined);
  w.views_selected = static_cast<double>(analysis.annotations.size());
  w.views_built = static_cast<double>(pt.views_built);
  w.views_reused = static_cast<double>(probe_reused);
  w.views_reused_subsumed = static_cast<double>(probe_subsumed);
  w.fallbacks = static_cast<double>(pt.fallbacks);
  w.jobs_reusing_frac =
      static_cast<double>(tt.jobs_reusing) /
      static_cast<double>(std::max<size_t>(tt.latency_s.size(), 1));
  w.plain_p50_s = Median(t.latency_s);
  w.traced_p50_s = Median(tt.latency_s);
  service.reset();
  WireService off(opt, false, report);
  Phase off_phase = RunPhase(&off, phase_seconds, false, false, report);
  w.obs_off_p50_s = Median(off_phase.loop.tally.latency_s);
  DistributionSummary history_off;
  history_off.AddAll(off.history_write_s());
  report->Note(StrFormat(
      "history WriteStream mean: %.4f ms with observability, %.4f ms without",
      w.write_stream_s.Mean() * 1e3, history_off.Mean() * 1e3));
  w.counts_drift = drift;
  w.store_drift = store_drift;
  w.Emit(report);
  return 0;
}

}  // namespace perfbench
}  // namespace cloudviews
