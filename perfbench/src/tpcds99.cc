// tpcds99: the Fig 13 protocol, repeated. Each repetition builds a fresh
// service over the seeded TPC-DS tables, runs the 99 queries with
// CloudViews off (the baseline and the analyzer's history), runs the
// analyzer with the paper's top-10 selection, then runs the 99 queries with
// CloudViews on in the analyzer's submission order. Every CloudViews-on
// output must fingerprint equal to the same query's baseline output.
#include <map>
#include <memory>

#include "common/string_util.h"
#include "core/cloudviews.h"
#include "net/outcome.h"
#include "perfbench.h"
#include "tpcds/tpcds.h"

namespace cloudviews {
namespace perfbench {
namespace {

/// How a repetition is measured. A traced run cycles through all three.
enum class Mode { kPlain, kTraced, kObservabilityOff };

struct Repetition {
  double setup_s = 0;
  double write_tables_s = 0;
  double analyze_s = 0;
  std::string analyzer_record;
  size_t subgraphs_mined = 0;
  size_t views_selected = 0;
  // Wall time of each pass and process CPU over the CloudViews pass.
  double baseline_pass_s = 0;
  double pass_s = 0;
  double cpu_seconds = 0;
  // Per query: latency with CloudViews off and on.
  std::map<int, double> baseline_by_query;
  std::map<int, double> latency_by_query;
  double stored_bytes = 0;
  double input_bytes = 0;
  double streams_start = 0;
  double streams_end = 0;
  double rss_before_mib = 0;  // around the CloudViews pass
  double rss_after_mib = 0;
  long views_built = 0;
  long views_reused = 0;
  long views_reused_subsumed = 0;
  long jobs_reusing = 0;
  long fallbacks = 0;
  LayerTrace layers;
  RegistrySample delta;
};

Repetition RunRepetition(const RunOptions& opt, Mode mode, Report* report) {
  Repetition rep;
  CloudViewsConfig config;
  config.analyzer.selection.top_k = 10;
  config.analyzer.selection.min_frequency = 3;
  config.enable_observability = mode != Mode::kObservabilityOff;
  tpcds::TpcdsOptions tables;
  tables.seed = opt.seed;

  const double setup_start = Now();
  auto cv = std::make_unique<CloudViews>(config);
  {
    const double t0 = Now();
    Status st = tpcds::TpcdsGenerator(tables).WriteTables(cv->storage());
    rep.write_tables_s = Now() - t0;
    if (!st.ok()) {
      report->Attempt();
      report->Fail("TpcdsGenerator::WriteTables: " + st.ToString());
      return rep;
    }
  }
  rep.setup_s = Now() - setup_start;
  rep.input_bytes = StreamBytes(*cv->storage(), "tpcds_");

  auto output_fingerprint = [&](int q) {
    auto handle = cv->storage()->OpenStream("tpcds_q" + std::to_string(q) + "_out");
    return handle.ok() ? net::FingerprintStream(**handle) : Hash128{};
  };

  // Baseline pass: CloudViews off, queries in order. Outputs are
  // fingerprinted after each pass, outside its wall time.
  std::map<uint64_t, int> query_of_job;
  const double baseline_start = Now();
  for (int q = 1; q <= tpcds::kNumQueries; ++q) {
    const double t0 = Now();
    auto r = cv->Submit(tpcds::MakeQueryJob(q), false);
    const double t1 = Now();
    report->Attempt();
    if (!r.ok()) {
      report->Fail("baseline q" + std::to_string(q) + ": " + r.status().ToString());
      continue;
    }
    rep.baseline_by_query[q] = t1 - t0;
    query_of_job[r->job_id] = q;
  }
  rep.baseline_pass_s = Now() - baseline_start;
  std::map<int, Hash128> reference;
  for (const auto& [q, latency] : rep.baseline_by_query) {
    reference[q] = output_fingerprint(q);
  }

  const double analyze_start = Now();
  AnalysisResult analysis = cv->RunAnalyzerAndLoad();
  rep.analyze_s = Now() - analyze_start;
  rep.setup_s += rep.analyze_s;
  rep.subgraphs_mined = analysis.subgraphs_mined;
  rep.views_selected = analysis.annotations.size();
  rep.analyzer_record = AnalyzerRecord(analysis);
  std::vector<int> order;
  for (uint64_t job_id : analysis.submission_order) {
    auto it = query_of_job.find(job_id);
    if (it != query_of_job.end()) order.push_back(it->second);
  }

  // CloudViews pass in the analyzer's submission order (Sec 6.5).
  rep.streams_start = static_cast<double>(cv->storage()->NumStreams());
  rep.rss_before_mib = CurrentRssMiB();
  const RegistrySample before =
      mode == Mode::kTraced ? SampleRegistry(*cv->metrics()) : RegistrySample{};
  const double cpu0 = ProcessCpuSeconds();
  const double pass_start = Now();
  for (int q : order) {
    JobDefinition def = tpcds::MakeQueryJob(q);
    const double t0 = Now();
    auto r = cv->Submit(def, true);
    const double t1 = Now();
    report->Attempt();
    if (!r.ok()) {
      report->Fail("cloudviews q" + std::to_string(q) + ": " + r.status().ToString());
      continue;
    }
    rep.latency_by_query[q] = t1 - t0;
    rep.views_built += r->views_materialized;
    rep.views_reused += r->views_reused;
    rep.views_reused_subsumed += r->views_reused_subsumed;
    rep.jobs_reusing += r->views_reused > 0 ? 1 : 0;
    rep.fallbacks += r->views_fallback;
    if (mode == Mode::kTraced) {
      rep.layers.AddJob("bench.submit", t0, t1, r->trace.get());
      rep.layers.AddOperators(r->run_stats.operators);
    }
  }
  rep.pass_s = Now() - pass_start;
  rep.cpu_seconds = ProcessCpuSeconds() - cpu0;
  for (const auto& [q, latency] : rep.latency_by_query) {
    if (!(output_fingerprint(q) == reference[q])) {
      report->Fail("q" + std::to_string(q) +
                   " output differs from its CloudViews-off baseline");
    }
  }
  if (mode == Mode::kTraced) rep.delta = Delta(before, SampleRegistry(*cv->metrics()));
  rep.stored_bytes = static_cast<double>(cv->storage()->TotalBytes());
  rep.streams_end = static_cast<double>(cv->storage()->NumStreams());
  rep.rss_after_mib = CurrentRssMiB();
  return rep;
}

/// Every latency of the repetitions run in `mode`, pooled.
DistributionSummary Pooled(const std::vector<Repetition>& reps,
                           const std::vector<Mode>& modes, Mode mode,
                           std::map<int, double> Repetition::*by_query) {
  DistributionSummary out;
  for (size_t i = 0; i < reps.size(); ++i) {
    if (modes[i] != mode) continue;
    for (const auto& [q, v] : reps[i].*by_query) out.Add(v);
  }
  return out;
}

}  // namespace

int RunTpcds99(const RunOptions& opt, Report* report) {
  report->Note("tpcds99: fresh service per repetition; 99 queries off, "
               "analyzer (top_k=10, min_frequency=3), 99 queries on; "
               "store_sales/web_sales/catalog_sales rows 20000/8000/10000");
  // A traced run needs one repetition of each mode. An untraced run needs
  // 11, so that its 1089 or more latencies leave ten beyond the p99.
  const Mode kCycle[] = {Mode::kPlain, Mode::kTraced, Mode::kObservabilityOff};
  const size_t min_repetitions = opt.trace ? 3 : 11;
  std::vector<Repetition> reps;
  std::vector<Mode> modes;
  const double start = Now();
  double first_peak_rss_mib = -1;
  while (reps.size() < min_repetitions || Now() - start < opt.seconds) {
    const Mode mode = opt.trace ? kCycle[reps.size() % 3] : Mode::kPlain;
    reps.push_back(RunRepetition(opt, mode, report));
    modes.push_back(mode);
    if (first_peak_rss_mib < 0) first_peak_rss_mib = PeakRssMiB();
    if (report->failed() > 0) break;
  }
  auto reuse_counts = [](const Repetition& r) {
    return StrFormat("reuse.views_built=%ld reuse.views_reused=%ld "
                     "reuse.views_reused_subsumed=%ld reuse.fallbacks=%ld",
                     r.views_built, r.views_reused, r.views_reused_subsumed,
                     r.fallbacks);
  };
  for (size_t i = 0; i < reps.size(); ++i) {
    report->Note(StrFormat("repetition %zu: baseline pass %.1f ms, "
                           "CloudViews pass %.1f ms, set-up %.1f ms, %s",
                           i, reps[i].baseline_pass_s * 1e3,
                           reps[i].pass_s * 1e3, reps[i].setup_s * 1e3,
                           reuse_counts(reps[i]).c_str()));
  }

  // The analyzer's selection must repeat across runs of one seed and
  // across the repetitions of this run. The reuse counts of the CloudViews
  // pass depend on observed times (cost-gated containment rewrites), so
  // they are printed above, not compared.
  const Repetition& first = reps.front();
  int drift = CheckRepeat(opt, first.analyzer_record, reuse_counts(first), report);
  for (size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].analyzer_record != first.analyzer_record) {
      report->Flag(StrFormat(
          "repetition %zu's analyzer differs from the first (selection ranks "
          "by observed wall time): %s",
          i, reps[i].analyzer_record.c_str()));
      drift = 1;
    }
  }

  // The CloudViews pass adds its views to the store, which the first pass
  // already filled with the 99 outputs; more than the selected views means
  // the store grows with run length.
  const Repetition& last = reps.back();
  const int store_drift = CheckSteadyStore(
      last.streams_start, last.streams_end,
      static_cast<double>(last.views_selected), report);

  if (!opt.trace) {
    // Throughput and CPU are over the wall time of the passes; the
    // latencies pool every job of every repetition.
    EndToEnd e2e;
    DistributionSummary setups;
    for (const Repetition& r : reps) {
      e2e.jobs += static_cast<long>(r.latency_by_query.size());
      e2e.phase_seconds += r.pass_s;
      e2e.cpu_seconds += r.cpu_seconds;
      e2e.baseline_jobs += static_cast<long>(r.baseline_by_query.size());
      e2e.baseline_phase_seconds += r.baseline_pass_s;
      setups.Add(r.setup_s);
    }
    e2e.latency_s =
        Pooled(reps, modes, Mode::kPlain, &Repetition::latency_by_query);
    e2e.baseline_latency_s =
        Pooled(reps, modes, Mode::kPlain, &Repetition::baseline_by_query);
    e2e.setup_s = setups.Median();
    e2e.stored_bytes = last.stored_bytes;
    e2e.input_bytes = last.input_bytes;
    e2e.peak_rss_mib = first_peak_rss_mib;
    report->Note(std::to_string(reps.size()) + " repetitions");
    e2e.Emit(report);
    return 0;
  }

  // The layers come from the first traced repetition; the overhead ratios
  // compare the pooled latencies of the interleaved modes.
  const Repetition* traced_rep = nullptr;
  for (size_t i = 0; i < reps.size() && traced_rep == nullptr; ++i) {
    if (modes[i] == Mode::kTraced) traced_rep = &reps[i];
  }
  if (traced_rep == nullptr) return 1;
  const Repetition& traced = *traced_rep;
  traced.layers.Emit(traced.delta, report);
  WorkloadLayers layers;
  layers.streams_start = traced.streams_start;
  layers.streams_end = traced.streams_end;
  layers.ingest_s.Add(traced.write_tables_s);
  layers.retained_kib_per_job =
      (traced.rss_after_mib - traced.rss_before_mib) * 1024 /
      static_cast<double>(std::max<size_t>(traced.latency_by_query.size(), 1));
  layers.analyze_s = traced.analyze_s;
  layers.subgraphs_mined = static_cast<double>(first.subgraphs_mined);
  layers.views_selected = static_cast<double>(first.views_selected);
  layers.views_built = static_cast<double>(first.views_built);
  layers.views_reused = static_cast<double>(first.views_reused);
  layers.views_reused_subsumed = static_cast<double>(first.views_reused_subsumed);
  layers.fallbacks = static_cast<double>(first.fallbacks);
  layers.jobs_reusing_frac =
      static_cast<double>(traced.jobs_reusing) /
      static_cast<double>(std::max<size_t>(traced.latency_by_query.size(), 1));
  auto p50 = [&](Mode mode) {
    return Pooled(reps, modes, mode, &Repetition::latency_by_query).Median();
  };
  layers.plain_p50_s = p50(Mode::kPlain);
  layers.traced_p50_s = p50(Mode::kTraced);
  layers.obs_off_p50_s = p50(Mode::kObservabilityOff);
  layers.counts_drift = drift;
  layers.store_drift = store_drift;
  layers.Emit(report);
  return 0;
}

}  // namespace perfbench
}  // namespace cloudviews
