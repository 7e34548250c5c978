#ifndef CLOUDVIEWS_CORE_EXPLAIN_H_
#define CLOUDVIEWS_CORE_EXPLAIN_H_

#include <string>

#include "analyzer/analyzer.h"
#include "runtime/job_service.h"

namespace cloudviews {

/// \brief Debuggability (Sec 4, goal 6): a human-readable account of what
/// CloudViews did to one job — which views were created or used, who
/// produced each view (traced from the physical path), what the metadata
/// lookup cost, and the executed plan itself for replay.
std::string ExplainJob(const JobResult& result);

/// \brief EXPLAIN ANALYZE-style rendering: the executed plan tree with each
/// operator's observed rows / bytes / wall / CPU figures inline, plus the
/// job's lifecycle stage timings when the result carries a trace. The
/// executed plan is a tree, so every node renders once with its own stats.
std::string ExplainAnalyze(const JobResult& result);

/// \brief Machine-readable per-job profile: one JSON document merging the
/// job's span tree (lifecycle trace) with the per-operator
/// PlanRuntimeStats, schema documented in docs/job_profile_schema.md.
std::string JobProfileJson(const JobResult& result);

/// \brief Drill-down into *why* a computation was selected for
/// materialization (Sec 4 goal 6 / Sec 5.5): frequency, observed runtime,
/// utility, storage cost, design popularity, lifetime, and the jobs/users
/// involved, for the top `limit` selections of an analysis.
std::string ExplainViewSelection(const AnalysisResult& analysis,
                                 size_t limit = 10);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_CORE_EXPLAIN_H_
