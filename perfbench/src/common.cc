#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/clock.h"
#include "perfbench.h"
#include "plan/plan_node.h"

namespace cloudviews {
namespace perfbench {

// --- Report ------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Flag(name + " was not finite; reported as 0");
    value = 0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& text) { notes_.push_back(text); }

void Report::Flag(const std::string& text) { notes_.push_back("FLAG " + text); }

void Report::Fail(const std::string& why) {
  ++failed_;
  if (failed_ <= 5) Flag("failed: " + why);
}

void Report::Print() const {
  for (const auto& note : notes_) std::printf("# %s\n", note.c_str());
  for (const auto& m : metrics_) {
    std::printf("%-48s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false", attempted_,
              failed_);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- Process and host ---------------------------------------------------------

double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double PeakRssMiB() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CurrentRssMiB() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0;
  double resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Now() { return MonotonicNowSeconds(); }

double StreamBytes(const StorageManager& storage, const std::string& prefix) {
  double bytes = 0;
  for (const std::string& name : storage.ListStreams(prefix)) {
    auto handle = storage.OpenStream(name);
    if (handle.ok()) bytes += static_cast<double>((*handle)->total_bytes);
  }
  return bytes;
}

HostCpu ReadHostCpu() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return HostCpu{user + nice + system + irq + softirq, steal};
}

double StealShare(const HostCpu& a, const HostCpu& b) {
  const double steal = b.steal - a.steal;
  const double wanted = b.busy - a.busy + steal;
  return wanted > 0 ? steal / wanted : 0;
}

// --- Registry ------------------------------------------------------------------

RegistrySample SampleRegistry(const obs::MetricsRegistry& registry) {
  RegistrySample out;
  for (const obs::FamilySnapshot& family : registry.Snapshot()) {
    for (const obs::SeriesSnapshot& series : family.series) {
      std::string key = family.name;
      if (!series.labels.empty()) {
        key += "{";
        for (size_t i = 0; i < series.labels.size(); ++i) {
          key += (i == 0 ? "" : ",") + series.labels[i].first + "=" +
                 series.labels[i].second;
        }
        key += "}";
      }
      if (family.type == obs::MetricType::kHistogram) {
        out[key + "#count"] = static_cast<double>(series.count);
        out[key + "#sum"] = series.sum;
      } else {
        out[key] = series.value;
      }
    }
  }
  return out;
}

RegistrySample Delta(const RegistrySample& before,
                     const RegistrySample& after) {
  RegistrySample out = after;
  for (const auto& [key, value] : before) out[key] -= value;
  return out;
}

double Get(const RegistrySample& sample, const std::string& key) {
  auto it = sample.find(key);
  return it == sample.end() ? 0 : it->second;
}

namespace {

template <typename Fn>
void ForFamily(const RegistrySample& sample, const std::string& name,
               const std::string& suffix, Fn fn) {
  for (auto it = sample.lower_bound(name);
       it != sample.end() && it->first.compare(0, name.size(), name) == 0;
       ++it) {
    const std::string rest = it->first.substr(name.size());
    const bool labelled = !rest.empty() && rest[0] == '{';
    const std::string tail =
        labelled ? rest.substr(std::min(rest.size(), rest.find('}') + 1))
                 : rest;
    if (tail == suffix) fn(it->second);
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

double FamilySum(const RegistrySample& sample, const std::string& name,
                 const std::string& suffix) {
  double s = 0;
  ForFamily(sample, name, suffix, [&](double v) { s += v; });
  return s;
}

double FamilyMax(const RegistrySample& sample, const std::string& name,
                 const std::string& suffix) {
  double m = 0;
  ForFamily(sample, name, suffix, [&](double v) { m = std::max(m, v); });
  return m;
}

// --- Layers --------------------------------------------------------------------

namespace {

/// Which per-job self-time metric each span name feeds. The benchmark's own
/// root spans are listed too: around an in-process Submit the part no
/// program span covers is unattributed; around a wire submit it is the
/// client side of the round trip (encode, socket, decode).
struct SpanLayer {
  const char* span;
  const char* metric;
};
constexpr SpanLayer kSpanLayers[] = {
    {"bench.submit", "runtime.unattributed_ms_per_job"},
    {"bench.submit_with_retry", "net.client_self_ms_per_job"},
    {"net.request", "net.request_self_ms_per_job"},
    {"net.queue_wait", "net.queue_wait_ms_per_job"},
    {"parse", "parser.parse_ms_per_job"},
    {"job", "runtime.job_self_ms_per_job"},
    {"plan_cache", "runtime.plan_cache_ms_per_job"},
    {"metadata_lookup", "metadata.lookup_ms_per_job"},
    {"optimize", "optimizer.optimize_self_ms_per_job"},
    {"logical_rewrite", "optimizer.logical_rewrite_ms_per_job"},
    {"physical_plan", "optimizer.physical_plan_ms_per_job"},
    {"reuse", "optimizer.reuse_ms_per_job"},
    {"materialize", "optimizer.materialize_ms_per_job"},
    {"containment_verify", "optimizer.containment_verify_ms_per_job"},
    {"execute", "exec.execute_ms_per_job"},
    {"record", "runtime.record_ms_per_job"},
};

bool HasAttribute(const obs::SpanRecord& span, const std::string& key,
                  const std::string& value) {
  return std::any_of(span.attributes.begin(), span.attributes.end(),
                     [&](const auto& kv) {
                       return kv.first == key && kv.second == value;
                     });
}

void Visit(const obs::SpanRecord& span, long* logical_rewrites,
           long* skeleton_optimizes, double* skeleton_seconds) {
  if (span.name == "logical_rewrite") ++*logical_rewrites;
  if (span.name == "optimize" && HasAttribute(span, "plan_cache", "skeleton")) {
    ++*skeleton_optimizes;
    *skeleton_seconds += span.end_seconds - span.start_seconds;
  }
  for (const auto& child : span.children) {
    Visit(*child, logical_rewrites, skeleton_optimizes, skeleton_seconds);
  }
}

}  // namespace

std::unique_ptr<obs::SpanRecord> BenchSpan(const std::string& name,
                                           double start, double end) {
  auto span = std::make_unique<obs::SpanRecord>();
  span->name = name;
  span->start_seconds = start;
  span->end_seconds = end;
  return span;
}

void LayerTrace::AddJob(const std::string& name, double start, double end,
                        const obs::SpanRecord* trace) {
  ++jobs_;
  std::vector<const obs::SpanRecord*> children;
  if (trace != nullptr) children.push_back(trace);
  FoldSelfTimes(name, start, end, children, &fold_);
  long logical_rewrites = 0;
  if (trace != nullptr) {
    Visit(*trace, &logical_rewrites, &skeleton_optimizes_,
          &skeleton_optimize_seconds_);
  }
  if (logical_rewrites > 0) ++full_compiles_;
}

void LayerTrace::AddOperators(const PlanRuntimeStats& operators) {
  for (const auto& [id, op] : operators) {
    (void)id;
    op_exclusive_seconds_[static_cast<int>(op.kind)] += op.exclusive_seconds;
    op_rows_[static_cast<int>(op.kind)] += op.rows;
  }
}

void LayerTrace::Merge(const LayerTrace& other) {
  for (const auto& [k, v] : other.fold_.self) fold_.self[k] += v;
  for (const auto& [k, v] : other.fold_.total) fold_.total[k] += v;
  fold_.root_seconds += other.fold_.root_seconds;
  jobs_ += other.jobs_;
  full_compiles_ += other.full_compiles_;
  skeleton_optimizes_ += other.skeleton_optimizes_;
  skeleton_optimize_seconds_ += other.skeleton_optimize_seconds_;
  for (const auto& [k, v] : other.op_exclusive_seconds_) {
    op_exclusive_seconds_[k] += v;
  }
  for (const auto& [k, v] : other.op_rows_) op_rows_[k] += v;
}

void LayerTrace::Emit(const RegistrySample& delta, Report* report) const {
  const double jobs = static_cast<double>(std::max(jobs_, 1L));
  auto per_job_ms = [&](double seconds) { return seconds * 1e3 / jobs; };
  auto total = [&](const std::string& span) {
    auto it = fold_.total.find(span);
    return it == fold_.total.end() ? 0.0 : it->second;
  };

  // Self times: every folded span name lands in exactly one metric.
  std::map<std::string, double> self_ms;
  for (const SpanLayer& l : kSpanLayers) self_ms[l.metric] += 0;
  for (const auto& [span, seconds] : fold_.self) {
    auto it = std::find_if(std::begin(kSpanLayers), std::end(kSpanLayers),
                           [&](const SpanLayer& l) { return span == l.span; });
    if (it == std::end(kSpanLayers)) {
      report->Flag("span '" + span +
                   "' has no layer; its self time is counted in "
                   "runtime.unattributed_ms_per_job");
      self_ms["runtime.unattributed_ms_per_job"] += per_job_ms(seconds);
    } else {
      self_ms[it->metric] += per_job_ms(seconds);
    }
  }
  double folded_ms = 0;
  for (const auto& [metric, ms] : self_ms) {
    report->Metric(metric, ms, "ms");
    folded_ms += ms;
  }
  const double job_ms = per_job_ms(fold_.root_seconds);
  report->Metric("fold.job_ms", job_ms, "ms");
  report->Metric("fold.residual_ms", job_ms - folded_ms, "ms");
  report->Metric("fold.traced_jobs", static_cast<double>(jobs_), "count");

  // exec
  report->Metric("exec.rows_per_s",
                 Ratio(Get(delta, "cv_exec_rows_total"), total("execute")),
                 "rows/s");
  report->Metric(
      "exec.pool_wait_ms_per_job",
      per_job_ms(Get(delta, "cv_threadpool_task_wait_seconds#sum")), "ms");
  for (int k = 0; k <= static_cast<int>(OpKind::kReduce); ++k) {
    const std::string kind = OpKindToString(static_cast<OpKind>(k));
    auto excl = op_exclusive_seconds_.find(k);
    auto rows = op_rows_.find(k);
    const double excl_s = excl == op_exclusive_seconds_.end() ? 0 : excl->second;
    const double rows_n = rows == op_rows_.end() ? 0 : rows->second;
    report->Metric("exec.op." + kind + ".excl_ms", per_job_ms(excl_s), "ms");
    report->Metric("exec.op." + kind + ".rows_per_s", Ratio(rows_n, excl_s),
                   "rows/s");
  }

  // optimizer
  report->Metric("optimizer.optimize_ms_per_job", per_job_ms(total("optimize")),
                 "ms");
  report->Metric("optimizer.skeleton_hit_optimize_ms",
                 Ratio(skeleton_optimize_seconds_ * 1e3,
                       static_cast<double>(skeleton_optimizes_)),
                 "ms");
  report->Metric(
      "optimizer.match_yield",
      Ratio(Get(delta, "cv_containment_verified_total"),
            Get(delta, "cv_containment_candidates_filtered_total")),
      "ratio");
  report->Metric("optimizer.full_compiles", static_cast<double>(full_compiles_),
                 "count");

  // runtime (plan cache)
  report->Metric("runtime.plan_cache.full_hit_frac",
                 Get(delta, "cv_plan_cache_hits_full_total") / jobs,
                 "fraction");
  report->Metric("runtime.plan_cache.skeleton_hit_frac",
                 Get(delta, "cv_plan_cache_hits_skeleton_total") / jobs,
                 "fraction");

  // metadata
  const double hits = Get(delta, "cv_metadata_view_hits_total");
  const double misses = Get(delta, "cv_metadata_view_misses_total");
  report->Metric("metadata.view_hit_frac", Ratio(hits, hits + misses),
                 "fraction");
  const double granted = Get(delta, "cv_metadata_build_locks_granted_total");
  const double denied = Get(delta, "cv_metadata_build_locks_denied_total");
  report->Metric("metadata.lock_denied_frac", Ratio(denied, granted + denied),
                 "fraction");
  report->Metric("metadata.lock_wait_ms",
                 per_job_ms(Get(delta, "cv_metadata_lock_wait_seconds#sum")),
                 "ms");
  report->Metric(
      "metadata.shard_lock_wait_ms",
      per_job_ms(FamilySum(delta, "cv_metadata_shard_lock_wait_seconds", "#sum")),
      "ms");
  report->Metric(
      "metadata.hot_shard_frac",
      Ratio(FamilyMax(delta, "cv_metadata_shard_lock_wait_seconds", "#count"),
            FamilySum(delta, "cv_metadata_shard_lock_wait_seconds", "#count")),
      "fraction");

  // storage
  report->Metric("storage.bytes_written_per_job",
                 Get(delta, "cv_storage_bytes_written_total") / jobs, "bytes");
}

// --- End-to-end ----------------------------------------------------------------

void EndToEnd::Emit(Report* report) const {
  report->Metric("setup_s", setup_s, "s");
  report->Metric("jobs_per_s", Ratio(static_cast<double>(jobs), phase_seconds),
                 "jobs/s");
  report->Metric("job_p50_ms", latency_s.Percentile(50) * 1e3, "ms");
  report->Metric("job_p90_ms", latency_s.Percentile(90) * 1e3, "ms");
  if (latency_s.count() >= 1000) {
    report->Metric("job_p99_ms", latency_s.Percentile(99) * 1e3, "ms");
  }
  report->Note("job latency samples: " + std::to_string(latency_s.count()) +
               (latency_s.count() >= 1000 ? "" : " (too few for a p99)"));
  report->Metric("baseline_jobs_per_s",
                 Ratio(static_cast<double>(baseline_jobs),
                       baseline_phase_seconds),
                 "jobs/s");
  report->Metric("baseline_job_p50_ms", baseline_latency_s.Percentile(50) * 1e3,
                 "ms");
  report->Metric("baseline_job_p90_ms", baseline_latency_s.Percentile(90) * 1e3,
                 "ms");
  if (baseline_latency_s.count() >= 1000) {
    report->Metric("baseline_job_p99_ms",
                   baseline_latency_s.Percentile(99) * 1e3, "ms");
  }
  report->Note("baseline latency samples: " +
               std::to_string(baseline_latency_s.count()));
  report->Metric("cpu_ms_per_job",
                 Ratio(cpu_seconds * 1e3, static_cast<double>(jobs)), "ms");
  report->Metric("peak_rss_mb", peak_rss_mib >= 0 ? peak_rss_mib : PeakRssMiB(),
                 "MiB");
  report->Metric("stored_bytes_per_input_byte", Ratio(stored_bytes, input_bytes),
                 "ratio");
}

// --- Workload layers -------------------------------------------------------------

void WorkloadLayers::Emit(Report* report) const {
  const double admitted = std::max(admissions, 1.0);
  report->Metric("net.client_overhead_ms_p50",
                 client_overhead_s.Percentile(50) * 1e3, "ms");
  report->Metric("net.queue_wait_ms_p50", queue_wait_s.Percentile(50) * 1e3,
                 "ms");
  report->Metric("net.queue_wait_ms_p99", queue_wait_s.Percentile(99) * 1e3,
                 "ms");
  report->Metric("net.retries_per_job", retries / admitted, "count");
  report->Metric("net.shed_frac", Ratio(sheds, sheds + admissions), "fraction");
  report->Metric("storage.streams_start", streams_start, "count");
  report->Metric("storage.streams_end", streams_end, "count");
  report->Metric("storage.ingest_ms", ingest_s.Mean() * 1e3, "ms");
  report->Metric("storage.purge_ms", purge_s.Mean() * 1e3, "ms");
  report->Metric("storage.write_stream_ms", write_stream_s.Mean() * 1e3, "ms");
  report->Metric("runtime.retained_kib_per_job", retained_kib_per_job, "KiB");
  report->Metric("analyzer.analyze_ms", analyze_s * 1e3, "ms");
  report->Metric("analyzer.subgraphs_mined", subgraphs_mined, "count");
  report->Metric("analyzer.views_selected", views_selected, "count");
  report->Metric("reuse.views_built", views_built, "count");
  report->Metric("reuse.views_reused", views_reused, "count");
  report->Metric("reuse.views_reused_subsumed", views_reused_subsumed, "count");
  report->Metric("reuse.fallbacks", fallbacks, "count");
  report->Metric("reuse.jobs_reusing_frac", jobs_reusing_frac, "fraction");
  report->Metric("obs.bench_trace_overhead_frac",
                 plain_p50_s > 0 ? traced_p50_s / plain_p50_s - 1 : 0,
                 "fraction");
  report->Metric("obs.instrumentation_overhead_frac",
                 obs_off_p50_s > 0 ? plain_p50_s / obs_off_p50_s - 1 : 0,
                 "fraction");
  report->Metric("flags.counts_drift", counts_drift, "count");
  report->Metric("flags.store_drift", store_drift, "count");
}

int CheckSteadyStore(double start, double end, double tolerance,
                     Report* report) {
  const std::string span = std::to_string(static_cast<long>(start)) + " -> " +
                           std::to_string(static_cast<long>(end)) + " streams";
  if (std::abs(end - start) > tolerance) {
    report->Flag("store drifted over the timed phase: " + span);
    return 1;
  }
  report->Note("store steady over the timed phase: " + span);
  return 0;
}

// --- Exact-repeat check ------------------------------------------------------------

std::string AnalyzerRecord(const AnalysisResult& analysis) {
  // Which views were chosen, as sorted signature prefixes: independent of
  // their utility order.
  std::vector<std::string> sigs;
  for (const auto& a : analysis.annotations) {
    sigs.push_back(a.annotation.normalized_signature.ToHex().substr(0, 8));
  }
  std::sort(sigs.begin(), sigs.end());
  std::string selected;
  for (const auto& sig : sigs) selected += (selected.empty() ? "" : ",") + sig;
  return "analyzer.subgraphs_mined=" + std::to_string(analysis.subgraphs_mined) +
         " analyzer.views_selected=" + std::to_string(sigs.size()) +
         " selected=" + selected;
}

int CheckRepeat(const RunOptions& opt, const std::string& record,
                const std::string& reuse, Report* report) {
  report->Note("counts: " + record);
  report->Note("reuse (timing-dependent, not compared): " + reuse);
  if (opt.state_dir.empty()) return 0;
  std::error_code ec;
  std::filesystem::create_directories(opt.state_dir, ec);
  const std::string path = opt.state_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-" + opt.commit + ".txt";
  std::ifstream in(path);
  if (in) {
    std::string earlier;
    std::getline(in, earlier);
    if (earlier != record) {
      report->Flag("analyzer counts differ from an earlier run of seed " +
                   std::to_string(opt.seed) + " at this commit: earlier " +
                   earlier);
      return 1;
    }
    return 0;
  }
  std::ofstream(path) << record << "\n";
  return 0;
}

}  // namespace perfbench
}  // namespace cloudviews
