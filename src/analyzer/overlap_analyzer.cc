#include "analyzer/overlap_analyzer.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "signature/signature.h"

namespace cloudviews {

PhysicalProperties SubgraphAggregate::PopularDesign() const {
  int best_count = -1;
  PhysicalProperties best;
  for (const auto& [fp, entry] : designs) {
    if (entry.first > best_count) {
      best_count = entry.first;
      best = entry.second;
    }
  }
  return best;
}

void CollectInputTemplates(const PlanNode& node, std::set<std::string>* out) {
  if (node.kind() == OpKind::kExtract) {
    out->insert(static_cast<const ExtractNode&>(node).template_name());
  }
  for (const auto& c : node.children()) {
    CollectInputTemplates(*c, out);
  }
}

namespace {

/// Normalized signatures of the views `node`'s plan reads.
void CollectViewReads(const PlanNode& node, std::vector<Hash128>* out) {
  if (node.kind() == OpKind::kViewRead) {
    const auto& read = static_cast<const ViewReadNode&>(node);
    out->push_back(read.normalized_signature());
  }
  for (const auto& c : node.children()) CollectViewReads(*c, out);
}

/// Counts one occurrence of `agg` in `job` (frequency, jobs, users, VCs,
/// templates).
void CountOccurrence(const JobRecord& job, SubgraphAggregate* agg) {
  ++agg->frequency;
  agg->jobs.insert(job.job_id);
  agg->users.insert(job.user);
  agg->vcs.insert(job.vc);
  agg->templates.insert(job.template_id);
}

}  // namespace

void OverlapAnalyzer::AddJob(const std::shared_ptr<const JobRecord>& job) {
  if (job->plan == nullptr) return;
  JobFacts facts;
  facts.job_id = job->job_id;
  facts.vc = job->vc;
  facts.user = job->user;

  double job_latency = job->run_stats.latency_seconds;

  for (const auto& entry : EnumerateSubgraphs(job->plan)) {
    facts.subgraphs.push_back(entry.sigs.normalized);
    SubgraphAggregate& agg = aggregates_[entry.sigs.normalized];
    if (agg.frequency == 0) {
      agg.normalized = entry.sigs.normalized;
      agg.root_kind = entry.node->kind();
      agg.subtree_size = entry.subtree_size;
      agg.output_schema = entry.node->output_schema();
      // Keep the first occurrence as the definition skeleton; any instance
      // works, since containment matching only consults instance-stable
      // structure and resolves concrete bounds per registered instance.
      agg.definition = entry.node->Clone();
      if (!agg.definition->Bind().ok()) agg.definition = nullptr;
      auto pending = pending_reads_.find(agg.normalized);
      if (pending != pending_reads_.end()) {
        for (const auto& reader : pending->second) {
          CountOccurrence(*reader, &agg);
        }
        pending_reads_.erase(pending);
      }
    }
    CountOccurrence(*job, &agg);
    CollectInputTemplates(*entry.node, &agg.input_templates);
    agg.max_recurrence_period =
        std::max(agg.max_recurrence_period, job->recurrence_period);

    auto it = job->run_stats.operators.find(entry.node->id());
    if (it != job->run_stats.operators.end()) {
      ++agg.computed;
      agg.sum_rows += it->second.rows;
      agg.sum_bytes += it->second.bytes;
      agg.sum_latency += it->second.inclusive_seconds;
      agg.sum_cpu +=
          SubtreeCpuSeconds(*entry.node, job->run_stats.operators);
      agg.sum_job_latency += job_latency;
    }

    // Mine the output physical properties (Sec 5.3). Delivered() already
    // traverses down when the root has no explicit properties.
    PhysicalProperties design = entry.node->Delivered();
    auto& slot = agg.designs[design.Fingerprint()];
    slot.first += 1;
    slot.second = design;
  }

  // A job that reused view V ran a ViewRead where V's computation was: that
  // is one more occurrence of V, with no runtime statistics of its own.
  std::vector<Hash128> reads;
  CollectViewReads(*job->plan, &reads);
  for (const Hash128& sig : reads) {
    facts.subgraphs.push_back(sig);
    auto it = aggregates_.find(sig);
    if (it != aggregates_.end()) {
      CountOccurrence(*job, &it->second);
    } else {
      pending_reads_[sig].push_back(job);
    }
  }
  job_facts_.push_back(std::move(facts));
}

void OverlapAnalyzer::AddJobs(
    const std::vector<std::shared_ptr<const JobRecord>>& jobs) {
  for (const auto& j : jobs) AddJob(j);
}

OverlapReport OverlapAnalyzer::BuildReport() const {
  OverlapReport report;
  report.total_jobs = job_facts_.size();
  report.total_subgraph_templates = aggregates_.size();

  // Subgraph-template level metrics.
  std::unordered_map<std::string, double> input_max_freq;
  for (const auto& [sig, agg] : aggregates_) {
    report.total_subgraph_instances += agg.frequency;
    if (agg.IsOverlapping()) {
      ++report.overlapping_subgraph_templates;
      report.overlapping_subgraph_instances += agg.frequency;
      report.frequencies.push_back(static_cast<double>(agg.frequency));
      report.runtimes_seconds.push_back(agg.AvgLatency());
      report.sizes_bytes.push_back(agg.AvgBytes());
      report.view_query_cost_ratios.push_back(agg.ViewToQueryCostRatio());
      // The operator chart counts computations, not bare input scans.
      if (agg.subtree_size >= 2) {
        report.overlap_occurrences_by_operator[agg.root_kind] +=
            agg.frequency;
        report.frequency_by_operator[agg.root_kind].push_back(
            static_cast<double>(agg.frequency));
      }
      for (const auto& input : agg.input_templates) {
        double& slot = input_max_freq[input];
        slot = std::max(slot, static_cast<double>(agg.frequency));
      }
    } else {
      for (const auto& input : agg.input_templates) {
        input_max_freq.emplace(input, 1.0);
      }
    }
  }
  // Emit per-input samples ordered by template name: the CDF vector must
  // be byte-stable across runs, and hash-map iteration order is not.
  std::vector<std::pair<std::string, double>> by_input(
      input_max_freq.begin(), input_max_freq.end());
  std::sort(by_input.begin(), by_input.end());
  for (const auto& [input, freq] : by_input) {
    report.per_input_max_frequency.push_back(freq);
  }
  for (const auto& [sig, agg] : aggregates_) {
    if (agg.root_kind == OpKind::kOutput && agg.jobs.size() >= 2) {
      ++report.redundant_output_groups;
      report.jobs_with_redundant_output += agg.jobs.size();
    }
  }

  // Job / user / VC level metrics: a job overlaps when it contains at least
  // one subgraph shared with another job.
  std::map<std::string, double> user_overlaps;
  std::map<std::string, double> vc_overlaps;
  std::map<std::string, OverlapReport::VcOverlap> per_vc;
  // Distinct overlapping templates per VC; the per-VC "average overlap
  // frequency" of Fig 2b averages over templates, not occurrences.
  std::map<std::string, std::set<Hash128>> vc_distinct;
  std::set<std::string> users_with_overlap;
  std::set<std::string> all_users;

  for (const auto& facts : job_facts_) {
    all_users.insert(facts.user);
    auto& vc = per_vc[facts.vc];
    ++vc.jobs;
    int64_t job_overlaps = 0;
    bool shares_with_other_job = false;
    for (const auto& sig : facts.subgraphs) {
      auto found = aggregates_.find(sig);
      // A view read whose computation no analyzed job ran.
      if (found == aggregates_.end()) continue;
      const SubgraphAggregate& agg = found->second;
      // Bare input scans are not computation overlap: every consumer of a
      // popular stream shares them. Job/user/VC overlap requires at least
      // one operator on top of the scan.
      if (agg.subtree_size < 2) continue;
      if (agg.IsOverlapping()) {
        ++job_overlaps;
        vc_distinct[facts.vc].insert(sig);
      }
      if (agg.SharedAcrossJobs()) shares_with_other_job = true;
    }
    if (shares_with_other_job) {
      ++report.overlapping_jobs;
      ++vc.overlapping_jobs;
      users_with_overlap.insert(facts.user);
    }
    if (job_overlaps > 0) {
      report.overlaps_per_job.push_back(static_cast<double>(job_overlaps));
      user_overlaps[facts.user] += static_cast<double>(job_overlaps);
      vc_overlaps[facts.vc] += static_cast<double>(job_overlaps);
    }
  }

  report.total_users = all_users.size();
  report.users_with_overlap = users_with_overlap.size();
  for (auto& [vc, entry] : per_vc) {
    auto it = vc_distinct.find(vc);
    if (it != vc_distinct.end() && !it->second.empty()) {
      double sum = 0;
      for (const auto& sig : it->second) {
        sum += static_cast<double>(aggregates_.at(sig).frequency);
      }
      entry.avg_overlap_frequency =
          sum / static_cast<double>(it->second.size());
    }
  }
  report.per_vc = std::move(per_vc);
  for (const auto& [user, count] : user_overlaps) {
    report.overlaps_per_user.push_back(count);
  }
  for (const auto& [vc, count] : vc_overlaps) {
    report.overlaps_per_vc.push_back(count);
  }
  return report;
}

}  // namespace cloudviews
