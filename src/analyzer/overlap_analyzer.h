#ifndef CLOUDVIEWS_ANALYZER_OVERLAP_ANALYZER_H_
#define CLOUDVIEWS_ANALYZER_OVERLAP_ANALYZER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/workload_repository.h"

namespace cloudviews {

/// \brief Aggregated view of one computation template (normalized
/// signature) across every occurrence in the analyzed window.
struct SubgraphAggregate {
  Hash128 normalized;
  OpKind root_kind = OpKind::kExtract;
  size_t subtree_size = 0;
  Schema output_schema;
  /// Bound clone of the first mined occurrence — the definition skeleton
  /// the containment matcher verifies candidates against structurally.
  /// Null when the clone could not be bound (disables containment for the
  /// template, never the exact tier).
  PlanNodePtr definition;

  /// Total occurrences (the paper's "overlap frequency"): the jobs that
  /// computed it plus the ViewReads of its materialized view.
  int64_t frequency = 0;
  /// Occurrences that computed it; the runtime statistics below are summed
  /// over these only, since a ViewRead does not run the computation.
  int64_t computed = 0;
  /// Distinct jobs / precise instances containing it.
  std::set<uint64_t> jobs;
  std::set<std::string> users;
  std::set<std::string> vcs;
  std::set<std::string> templates;
  /// Input stream templates consumed inside the subgraph.
  std::set<std::string> input_templates;

  // Observed runtime statistics, summed over computing occurrences.
  double sum_rows = 0;
  double sum_bytes = 0;
  double sum_latency = 0;
  double sum_cpu = 0;
  /// Latency of the containing job, summed per occurrence (for the
  /// view-to-query cost ratio of Fig 5d).
  double sum_job_latency = 0;

  /// Physical designs seen at this subgraph's output, with popularity
  /// (Sec 5.3: pick the most popular set).
  std::map<Hash128, std::pair<int, PhysicalProperties>> designs;

  /// Longest recurrence period of any job consuming the subgraph's inputs;
  /// the lineage-based view lifetime (Sec 5.4).
  LogicalTime max_recurrence_period = 0;

  double AvgRows() const { return computed ? sum_rows / computed : 0; }
  double AvgBytes() const { return computed ? sum_bytes / computed : 0; }
  double AvgLatency() const { return computed ? sum_latency / computed : 0; }
  double AvgCpu() const { return computed ? sum_cpu / computed : 0; }
  /// Subgraph-latency / containing-job-latency (Fig 5d).
  double ViewToQueryCostRatio() const {
    return sum_job_latency > 0 ? sum_latency / sum_job_latency : 0;
  }
  /// Total utility = frequency x average runtime (Sec 7.1); the first
  /// occurrence must still be computed, so savings scale with freq - 1.
  double TotalUtility() const {
    return static_cast<double>(frequency - 1) * AvgLatency();
  }
  /// The most popular physical design at this subgraph's output.
  PhysicalProperties PopularDesign() const;

  bool IsOverlapping() const { return frequency >= 2; }
  /// Overlap across distinct jobs (Fig 1's "overlapping jobs" notion).
  bool SharedAcrossJobs() const { return jobs.size() >= 2; }
};

/// Everything the figure benches need about one analyzed window; the data
/// behind Figs 1-5 and the Sec 5.5 admin dashboard.
struct OverlapReport {
  size_t total_jobs = 0;
  size_t overlapping_jobs = 0;
  size_t total_users = 0;
  size_t users_with_overlap = 0;
  size_t total_subgraph_templates = 0;
  size_t overlapping_subgraph_templates = 0;
  /// Instance-weighted counts: a fragment occurring 10x contributes 10.
  int64_t total_subgraph_instances = 0;
  int64_t overlapping_subgraph_instances = 0;

  double PctOverlappingJobs() const {
    return total_jobs ? 100.0 * overlapping_jobs / total_jobs : 0;
  }
  double PctUsersWithOverlap() const {
    return total_users ? 100.0 * users_with_overlap / total_users : 0;
  }
  /// Fraction of subgraph *instances* that appear at least twice (how the
  /// paper's "overlapping subgraphs" percentages read).
  double PctOverlappingSubgraphs() const {
    return total_subgraph_instances
               ? 100.0 * static_cast<double>(overlapping_subgraph_instances) /
                     static_cast<double>(total_subgraph_instances)
               : 0;
  }
  double PctOverlappingSubgraphTemplates() const {
    return total_subgraph_templates
               ? 100.0 * static_cast<double>(overlapping_subgraph_templates) /
                     static_cast<double>(total_subgraph_templates)
               : 0;
  }

  /// Per-VC: percentage of the VC's jobs that overlap; average overlap
  /// frequency of its overlapping subgraphs (Fig 2).
  struct VcOverlap {
    size_t jobs = 0;
    size_t overlapping_jobs = 0;
    double avg_overlap_frequency = 0;
  };
  std::map<std::string, VcOverlap> per_vc;

  /// CDF samples (Fig 3): overlapping-subgraph occurrences per job / user /
  /// VC; per input: the max frequency among subgraphs consuming it.
  std::vector<double> overlaps_per_job;
  std::vector<double> overlaps_per_user;
  std::vector<double> overlaps_per_vc;
  std::vector<double> per_input_max_frequency;

  /// Operator-wise share of overlapping subgraph occurrences (Fig 4a) and
  /// per-operator frequency samples (Figs 4b-4d).
  std::map<OpKind, int64_t> overlap_occurrences_by_operator;
  std::map<OpKind, std::vector<double>> frequency_by_operator;

  /// Sec 8 lessons: subgraphs rooted at Output shared by several jobs are
  /// jobs producing the same output without realizing it; their owners are
  /// asked to remove the redundant statements.
  size_t redundant_output_groups = 0;
  size_t jobs_with_redundant_output = 0;

  /// Impact CDF samples over overlapping templates (Fig 5).
  std::vector<double> frequencies;
  std::vector<double> runtimes_seconds;
  std::vector<double> sizes_bytes;
  std::vector<double> view_query_cost_ratios;
};

/// \brief Mines every job subgraph in a window and aggregates by normalized
/// signature — the analysis half of the CloudViews analyzer (Fig 6 left).
class OverlapAnalyzer {
 public:
  void AddJob(const std::shared_ptr<const JobRecord>& job);
  void AddJobs(const std::vector<std::shared_ptr<const JobRecord>>& jobs);

  const std::unordered_map<Hash128, SubgraphAggregate, Hash128Hasher>&
  aggregates() const {
    return aggregates_;
  }

  /// Builds the figure/report data from the mined aggregates.
  OverlapReport BuildReport() const;

 private:
  struct JobFacts {
    uint64_t job_id;
    std::string vc;
    std::string user;
    /// Normalized signature of each subgraph, and of each view it read.
    std::vector<Hash128> subgraphs;
  };

  std::unordered_map<Hash128, SubgraphAggregate, Hash128Hasher> aggregates_;
  /// ViewReads of a view whose computation no analyzed job has run yet;
  /// they are counted once a job computing it arrives.
  std::unordered_map<Hash128, std::vector<std::shared_ptr<const JobRecord>>,
                     Hash128Hasher>
      pending_reads_;
  std::vector<JobFacts> job_facts_;
};

/// Collects the input stream templates underneath a node.
void CollectInputTemplates(const PlanNode& node, std::set<std::string>* out);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_ANALYZER_OVERLAP_ANALYZER_H_
