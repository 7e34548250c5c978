// recurring_days: the Sec 7.1 production workload replayed day after day.
// Each day writes that day's inputs, expires the inputs and outputs that
// fell out of retention, advances the simulated clock one day, submits the
// 32 jobs in arrival order from a pool of load threads (so jobs of one
// group overlap and contend for the build lock), then purges expired views.
// Dates repeat on a weekly calendar, so the set of (template, date)
// outputs is finite: set-up runs every one of them with CloudViews off,
// which is both the correctness reference and the analyzer's history. The
// timed phase alternates CloudViews-on and CloudViews-off days, so the
// baseline is measured in the same stretch of time as what it is compared
// with.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "common/string_util.h"
#include "core/cloudviews.h"
#include "net/outcome.h"
#include "perfbench.h"
#include "types/value.h"
#include "workload/production_workload.h"

namespace cloudviews {
namespace perfbench {
namespace {

constexpr int kCalendarDays = 7;
/// A day's inputs and outputs are deleted this many days after it.
constexpr int kRetentionDays = 2;
constexpr size_t kRowsPerInput = 4000;
/// Load threads, never more than the host has.
int LoadThreads(const RunOptions& opt) { return std::clamp(opt.nproc, 1, 4); }

std::string CalendarDate(int day) {
  int64_t base = 0;
  (void)ParseDate("2018-01-01", &base);
  return FormatDate(base + day % kCalendarDays);
}

std::string OutputName(const JobDefinition& def, const std::string& date) {
  return def.template_id + "_" + date;
}

/// One service with its own calendar position.
class DaysService {
 public:
  DaysService(const RunOptions& opt, bool observability)
      : workload_(Options(opt)), threads_(LoadThreads(opt)) {
    CloudViewsConfig config;
    // Sec 7.1 selection: frequency >= 3, cost >= 20% of the job, at most one
    // overlapping computation per job, top-3 by total utility.
    config.analyzer.selection.top_k = 3;
    config.analyzer.selection.min_frequency = 3;
    config.analyzer.selection.min_cost_fraction_of_job = 0.2;
    config.analyzer.selection.max_per_job = 1;
    config.enable_observability = observability;
    cv_ = std::make_unique<CloudViews>(config);
  }

  /// What one day did.
  struct Day {
    std::string date;
    double wall_s = 0;   // ingest + jobs + purge
    double cpu_s = 0;
    double ingest_s = 0;
    double purge_s = 0;
    std::vector<double> latency_s;
    long views_built = 0;
    long views_reused = 0;
    long views_reused_subsumed = 0;
    long fallbacks = 0;
    long jobs_reusing = 0;
    // The store after the day's purge.
    double streams = 0;
    double stored_bytes = 0;
    double input_bytes = 0;
  };

  /// Runs the next calendar day. The first CloudViews-off run of a
  /// (template, date) records its reference fingerprint; every later run,
  /// on or off, is checked against it.
  Day RunDay(bool cloudviews, LayerTrace* layers, Report* report) {
    Day day;
    const std::string date = CalendarDate(day_);
    day.date = date;
    const std::vector<JobDefinition> jobs = workload_.Instance(date);
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();

    cv_->clock()->AdvanceSeconds(kSecondsPerDay);
    workload_.WriteInputs(cv_->storage(), date);
    if (day_ >= kRetentionDays) {
      const std::string old = CalendarDate(day_ - kRetentionDays);
      for (const char* input : {"impressions_", "clicks_"}) {
        (void)cv_->storage()->DeleteStream(input + old);
      }
      for (const JobDefinition& def : workload_.Instance(old)) {
        (void)cv_->storage()->DeleteStream(OutputName(def, old));
      }
    }
    const double t_ingest = Now();
    day.ingest_s = t_ingest - t0;

    // Arrival order: each load thread takes the next job.
    std::vector<Result<JobResult>> results(jobs.size(), Status::Internal("not run"));
    std::vector<double> start(jobs.size(), 0);
    std::vector<double> end(jobs.size(), 0);
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads_; ++t) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1)) {
          start[i] = Now();
          results[i] = cv_->Submit(jobs[i], cloudviews);
          end[i] = Now();
        }
      });
    }
    for (auto& t : pool) t.join();

    const double t_purge = Now();
    cv_->PurgeExpired();
    const double t1 = Now();
    day.purge_s = t1 - t_purge;
    day.wall_s = t1 - t0;
    day.cpu_s = ProcessCpuSeconds() - cpu0;
    day.streams = static_cast<double>(cv_->storage()->NumStreams());
    day.stored_bytes = static_cast<double>(cv_->storage()->TotalBytes());
    day.input_bytes = StreamBytes(*cv_->storage(), "impressions_") +
                      StreamBytes(*cv_->storage(), "clicks_");

    // Outside the timed day: account and check every output.
    for (size_t i = 0; i < jobs.size(); ++i) {
      report->Attempt();
      if (!results[i].ok()) {
        report->Fail(jobs[i].template_id + " " + date + ": " +
                     results[i].status().ToString());
        continue;
      }
      const JobResult& r = *results[i];
      day.latency_s.push_back(end[i] - start[i]);
      day.views_built += r.views_materialized;
      day.views_reused += r.views_reused;
      day.views_reused_subsumed += r.views_reused_subsumed;
      day.fallbacks += r.views_fallback;
      day.jobs_reusing += r.views_reused > 0 ? 1 : 0;
      if (layers != nullptr) {
        layers->AddJob("bench.submit", start[i], end[i], r.trace.get());
        layers->AddOperators(r.run_stats.operators);
      }
      auto handle = cv_->storage()->OpenStream(OutputName(jobs[i], date));
      const Hash128 fp = handle.ok() ? net::FingerprintStream(**handle) : Hash128{};
      const std::string key = jobs[i].template_id + "@" + date;
      auto [it, inserted] = reference_.emplace(key, fp);
      if (inserted ? cloudviews : !(it->second == fp)) {
        report->Fail(key + " output differs from its CloudViews-off reference");
      }
    }
    ++day_;
    return day;
  }

  CloudViews* cv() { return cv_.get(); }

 private:
  static ProductionWorkload::Options Options(const RunOptions& opt) {
    ProductionWorkload::Options o;
    o.rows_per_input = kRowsPerInput;
    o.seed = opt.seed;
    return o;
  }

  ProductionWorkload workload_;
  int threads_;
  std::unique_ptr<CloudViews> cv_;
  int day_ = 0;
  std::map<std::string, Hash128> reference_;
};

struct Setup {
  std::unique_ptr<DaysService> service;
  double setup_s = 0;
  AnalysisResult analysis;
  double analyze_s = 0;
};

/// History week with CloudViews off, analyzer, then one CloudViews-on
/// warm-up day so the timed phase starts with views built, the plan cache
/// filled and the store at its steady size.
Setup SetUp(const RunOptions& opt, bool observability, Report* report) {
  Setup s;
  const double t0 = Now();
  s.service = std::make_unique<DaysService>(opt, observability);
  for (int d = 0; d < kCalendarDays; ++d) {
    (void)s.service->RunDay(false, nullptr, report);
  }
  const double ta = Now();
  s.analysis = s.service->cv()->RunAnalyzerAndLoad();
  s.analyze_s = Now() - ta;
  (void)s.service->RunDay(true, nullptr, report);
  s.setup_s = Now() - t0;
  return s;
}

/// Peak RSS is read after this many timed days, a fixed amount of work.
constexpr int kRssCheckpointDays = 60;

struct Phase {
  std::vector<DaysService::Day> days;           // CloudViews on
  std::vector<DaysService::Day> baseline_days;  // CloudViews off
  double streams_start = 0;
  double streams_end = 0;
  double peak_rss_mib = -1;
  double retained_kib_per_job = 0;
  RegistrySample delta;

  static DistributionSummary Latencies(const std::vector<DaysService::Day>& days) {
    DistributionSummary all;
    for (const auto& d : days) all.AddAll(d.latency_s);
    return all;
  }
};

/// Runs days until `seconds` of day wall time pass. With `baseline`, every
/// other day runs with CloudViews off, so both sides of the comparison are
/// measured in the same stretch of time on the same store.
Phase RunPhase(DaysService* service, double seconds, bool baseline,
               LayerTrace* layers, Report* report) {
  Phase p;
  p.streams_start = static_cast<double>(service->cv()->storage()->NumStreams());
  const RegistrySample before = layers != nullptr
                                    ? SampleRegistry(*service->cv()->metrics())
                                    : RegistrySample{};
  double elapsed = 0;
  double rss_at_checkpoint = 0;
  long jobs_at_checkpoint = 0;
  long jobs = 0;
  for (int k = 0; p.days.empty() || elapsed < seconds; ++k) {
    const bool cloudviews = !baseline || k % 2 == 0;
    auto& days = cloudviews ? p.days : p.baseline_days;
    days.push_back(service->RunDay(cloudviews, cloudviews ? layers : nullptr, report));
    elapsed += days.back().wall_s;
    jobs += static_cast<long>(days.back().latency_s.size());
    if (k + 1 == kRssCheckpointDays) {
      p.peak_rss_mib = PeakRssMiB();
      rss_at_checkpoint = CurrentRssMiB();
      jobs_at_checkpoint = jobs;
    }
    if (report->failed() > 0) break;
  }
  if (layers != nullptr) p.delta = Delta(before, SampleRegistry(*service->cv()->metrics()));
  p.streams_end = p.days.back().streams;
  if (jobs > jobs_at_checkpoint && jobs_at_checkpoint > 0) {
    p.retained_kib_per_job = (CurrentRssMiB() - rss_at_checkpoint) * 1024 /
                             static_cast<double>(jobs - jobs_at_checkpoint);
  }
  if (p.peak_rss_mib < 0) report->Flag("phase ended before the peak RSS checkpoint");
  return p;
}

}  // namespace

int RunRecurringDays(const RunOptions& opt, Report* report) {
  report->Note(StrFormat(
      "recurring_days: 32 jobs/day (groups 16/12/4), %zu rows per impressions "
      "input, %d-date calendar, %d-day retention, %d load threads, Sec 7.1 "
      "selection",
      kRowsPerInput, kCalendarDays, kRetentionDays, LoadThreads(opt)));
  // Set-up is repeated so setup_s is a median; the last one is measured.
  const int setups = opt.trace ? 1 : 3;
  DistributionSummary setup_times;
  Setup s;
  for (int i = 0; i < setups; ++i) {
    s = SetUp(opt, true, report);
    setup_times.Add(s.setup_s);
  }
  if (report->failed() > 0) return 0;

  const double phase_seconds = opt.trace ? opt.seconds / 3 : opt.seconds;
  Phase plain = RunPhase(s.service.get(), phase_seconds, !opt.trace, nullptr, report);
  const DaysService::Day& first = plain.days.front();
  // The first timed day's reuse counts move with the build-lock race
  // between concurrent same-group jobs, so only the analyzer is compared.
  const int drift = CheckRepeat(
      opt, AnalyzerRecord(s.analysis),
      StrFormat("first timed day: reuse.views_built=%ld reuse.views_reused=%ld "
                "reuse.views_reused_subsumed=%ld reuse.fallbacks=%ld",
                first.views_built, first.views_reused,
                first.views_reused_subsumed, first.fallbacks),
      report);
  // Both ends are read after a CloudViews day's purge; that day's views
  // stay until the next day's purge.
  const double tolerance = static_cast<double>(s.analysis.annotations.size());
  const int store_drift =
      CheckSteadyStore(plain.streams_start, plain.streams_end, tolerance, report);
  report->Note("timed days: " + std::to_string(plain.days.size()) +
               " with CloudViews, " + std::to_string(plain.baseline_days.size()) +
               " without");

  if (!opt.trace) {
    // Every timed day counts: a day's wall time keeps everything inside
    // it (ingest, lock contention, purge), and the latencies pool all of
    // its jobs.
    EndToEnd e2e;
    e2e.setup_s = setup_times.Median();
    for (const auto* days : {&plain.days, &plain.baseline_days}) {
      const bool on = days == &plain.days;
      for (const auto& d : *days) {
        (on ? e2e.latency_s : e2e.baseline_latency_s).AddAll(d.latency_s);
        (on ? e2e.jobs : e2e.baseline_jobs) += static_cast<long>(d.latency_s.size());
        (on ? e2e.phase_seconds : e2e.baseline_phase_seconds) += d.wall_s;
        if (on) e2e.cpu_seconds += d.cpu_s;
      }
    }
    e2e.stored_bytes = plain.days.back().stored_bytes;
    e2e.input_bytes = plain.days.back().input_bytes;
    e2e.peak_rss_mib = plain.peak_rss_mib;
    e2e.Emit(report);
    return 0;
  }

  LayerTrace layers;
  Phase traced = RunPhase(s.service.get(), phase_seconds, false, &layers, report);
  layers.Emit(traced.delta, report);
  Setup off = SetUp(opt, false, report);
  Phase off_phase = RunPhase(off.service.get(), phase_seconds, false, nullptr, report);

  WorkloadLayers w;
  w.streams_start = traced.streams_start;
  w.streams_end = traced.streams_end;
  long jobs = 0, reusing = 0;
  for (const auto& d : traced.days) {
    w.ingest_s.Add(d.ingest_s);
    w.purge_s.Add(d.purge_s);
    jobs += static_cast<long>(d.latency_s.size());
    reusing += d.jobs_reusing;
  }
  w.analyze_s = s.analyze_s;
  w.subgraphs_mined = static_cast<double>(s.analysis.subgraphs_mined);
  w.views_selected = static_cast<double>(s.analysis.annotations.size());
  w.views_built = static_cast<double>(first.views_built);
  w.views_reused = static_cast<double>(first.views_reused);
  w.views_reused_subsumed = static_cast<double>(first.views_reused_subsumed);
  w.fallbacks = static_cast<double>(first.fallbacks);
  w.jobs_reusing_frac = jobs > 0 ? static_cast<double>(reusing) / static_cast<double>(jobs) : 0;
  w.retained_kib_per_job = traced.retained_kib_per_job;
  w.plain_p50_s = Phase::Latencies(plain.days).Median();
  w.traced_p50_s = Phase::Latencies(traced.days).Median();
  w.obs_off_p50_s = Phase::Latencies(off_phase.days).Median();
  w.counts_drift = drift;
  w.store_drift = store_drift;
  w.Emit(report);
  return 0;
}

}  // namespace perfbench
}  // namespace cloudviews
