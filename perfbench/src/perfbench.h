#ifndef CLOUDVIEWS_PERFBENCH_PERFBENCH_H_
#define CLOUDVIEWS_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "common/stats.h"
#include "exec/operator_stats.h"
#include "fold.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/storage_manager.h"

namespace cloudviews {
namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase (split in three in a traced run).
  double seconds = 10;
  /// false: end-to-end metrics. true: per-layer metrics.
  bool trace = false;
  /// CPUs this process may run on (its affinity mask); load threads never
  /// exceed it.
  int nproc = 1;
  /// Directory for the per-seed count records of the exact-repeat check.
  std::string state_dir;
  /// The program's commit (or source hash); keys the count records.
  std::string commit = "unknown";
};

/// Every metric a run computed, in print order, plus the correctness tally.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A line of context (sizes, sample counts); printed with a '#'.
  void Note(const std::string& text);
  /// Something a reader must look at (drift, an unmapped span). Flags do
  /// not fail the run.
  void Flag(const std::string& text);
  /// Counts `n` attempted operations.
  void Attempt(long n = 1) { attempted_ += n; }
  /// Counts one failed, refused or wrong-output operation; the first few
  /// reasons are printed.
  void Fail(const std::string& why);

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  /// Human lines, then the result object as the last line.
  void Print() const;

 private:
  struct Line {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Line> metrics_;
  std::vector<std::string> notes_;
  long attempted_ = 0;
  long failed_ = 0;
};

// --- Process and host ------------------------------------------------------

/// Process user+system CPU seconds so far (getrusage).
double ProcessCpuSeconds();
/// Peak resident set of the process so far, MiB.
double PeakRssMiB();
/// Current resident set of the process, MiB.
double CurrentRssMiB();
/// Monotonic wall seconds (the same clock the program's spans use).
double Now();

/// Bytes of the live streams whose names start with `prefix`.
double StreamBytes(const StorageManager& storage, const std::string& prefix);

/// Host CPU counters of the whole machine (/proc/stat): busy and stolen
/// jiffies. Steal is time the hypervisor ran someone else while this
/// machine's CPUs wanted to run.
struct HostCpu {
  double busy = 0;
  double steal = 0;
};
HostCpu ReadHostCpu();
/// Stolen share of the CPU time wanted between `a` and `b`.
double StealShare(const HostCpu& a, const HostCpu& b);

// --- Program-side counters ---------------------------------------------------

/// Flat point-in-time copy of a MetricsRegistry: counters and gauges by
/// series key, histograms as `<key>#count` and `<key>#sum`. A series key is
/// the family name plus `{label=value,...}` when labelled.
using RegistrySample = std::map<std::string, double>;
RegistrySample SampleRegistry(const obs::MetricsRegistry& registry);
/// after - before, series by series (gauges too; callers read levels from
/// `after` directly).
RegistrySample Delta(const RegistrySample& before,
                     const RegistrySample& after);
/// Value of `key`, 0 when absent.
double Get(const RegistrySample& sample, const std::string& key);
/// Sum of every series of family `name` with the given suffix ("" for
/// counters, "#count"/"#sum" for histograms).
double FamilySum(const RegistrySample& sample, const std::string& name,
                 const std::string& suffix = "");
/// Largest single series of family `name` (with suffix).
double FamilyMax(const RegistrySample& sample, const std::string& name,
                 const std::string& suffix = "");

// --- Per-layer attribution ---------------------------------------------------

/// Accumulates the traced jobs of one phase: the self-time fold of each
/// job (a benchmark-owned interval with the program's trace under it) and
/// the executor's per-operator statistics.
class LayerTrace {
 public:
  /// Folds one job: `name` is the benchmark span around the public call
  /// over [start, end], and `trace` the program's span tree for the job
  /// (null when it returned none).
  void AddJob(const std::string& name, double start, double end,
              const obs::SpanRecord* trace);
  /// Adds one in-process job's operator statistics.
  void AddOperators(const PlanRuntimeStats& operators);

  long jobs() const { return jobs_; }
  const FoldResult& fold() const { return fold_; }
  void Merge(const LayerTrace& other);

  /// Emits the fold-derived metrics (per-job self times, which sum with
  /// runtime.unattributed_ms_per_job to fold.job_ms) and the exec, optimizer,
  /// runtime, metadata and storage metrics read from `delta`, the registry
  /// change over the traced phase.
  void Emit(const RegistrySample& delta, Report* report) const;

 private:
  FoldResult fold_;
  long jobs_ = 0;
  long full_compiles_ = 0;
  long skeleton_optimizes_ = 0;
  double skeleton_optimize_seconds_ = 0;
  std::map<int, double> op_exclusive_seconds_;
  std::map<int, double> op_rows_;
};

/// Benchmark-owned span record covering [start, end] (a net.queue_wait
/// child added to a wire profile).
std::unique_ptr<obs::SpanRecord> BenchSpan(const std::string& name,
                                           double start, double end);

/// Per-layer metrics that come from the workload itself rather than from
/// the span fold. A workload leaves what does not apply to it at zero (no
/// such work happened), so every workload reports the same names.
struct WorkloadLayers {
  // net: client round trip minus the server's net.request span, and the
  // server-stamped queue wait, per wire job.
  DistributionSummary client_overhead_s;
  DistributionSummary queue_wait_s;
  double retries = 0;
  double sheds = 0;
  double admissions = 0;
  // storage
  double streams_start = 0;
  double streams_end = 0;
  DistributionSummary ingest_s;        // per ingest (inputs written/expired)
  DistributionSummary purge_s;         // per PurgeExpired call
  DistributionSummary write_stream_s;  // per StorageManager::WriteStream
  // runtime: resident memory the service keeps per timed job (job records,
  // finished-ticket table), from the RSS growth over the phase.
  double retained_kib_per_job = 0;
  // analyzer
  double analyze_s = 0;
  double subgraphs_mined = 0;
  double views_selected = 0;
  // reuse outcome over the workload's fixed unit of work
  double views_built = 0;
  double views_reused = 0;
  double views_reused_subsumed = 0;
  double fallbacks = 0;
  double jobs_reusing_frac = 0;  // over the traced phase
  // obs: job_p50 of the untraced, traced and observability-off phases
  double plain_p50_s = 0;
  double traced_p50_s = 0;
  double obs_off_p50_s = 0;
  int counts_drift = 0;
  int store_drift = 0;

  void Emit(Report* report) const;
};

/// Notes storage.streams at both ends of a timed phase and flags a store
/// that grew or shrank by more than `tolerance` streams. Returns 1 on drift.
int CheckSteadyStore(double start, double end, double tolerance,
                     Report* report);

// --- Exact-repeat check ---------------------------------------------------------

/// The analyzer's counts for the exact-repeat check: subgraphs mined,
/// views selected and which views, as one canonical line.
std::string AnalyzerRecord(const AnalysisResult& analysis);

/// Compares this run's analyzer record with the one an earlier run of the
/// same workload, seed and commit left in the state directory; flags a
/// difference and stores the first record. `reuse` (the reuse.* counts,
/// which depend on timing) is printed, not compared. Returns 1 on drift.
int CheckRepeat(const RunOptions& opt, const std::string& record,
                const std::string& reuse, Report* report);

// --- Workloads -----------------------------------------------------------------

int RunTpcds99(const RunOptions& opt, Report* report);
int RunRecurringWire(const RunOptions& opt, Report* report);
int RunRecurringDays(const RunOptions& opt, Report* report);

/// End-to-end metrics shared by every workload.
struct EndToEnd {
  double setup_s = 0;
  long jobs = 0;
  double phase_seconds = 0;
  DistributionSummary latency_s;
  double cpu_seconds = 0;
  long baseline_jobs = 0;
  double baseline_phase_seconds = 0;
  DistributionSummary baseline_latency_s;
  double stored_bytes = 0;
  double input_bytes = 0;
  /// Peak RSS after a fixed amount of timed work (so the figure does not
  /// grow with run length or with throughput); negative means "at the end".
  double peak_rss_mib = -1;

  void Emit(Report* report) const;
};

}  // namespace perfbench
}  // namespace cloudviews

#endif  // CLOUDVIEWS_PERFBENCH_PERFBENCH_H_
