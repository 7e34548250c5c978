#ifndef CLOUDVIEWS_OPTIMIZER_VIEW_REWRITER_H_
#define CLOUDVIEWS_OPTIMIZER_VIEW_REWRITER_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"
#include "optimizer/cost_model.h"
#include "optimizer/view_interfaces.h"
#include "optimizer/view_matcher.h"
#include "plan/plan_node.h"

namespace cloudviews {

/// Annotations indexed by normalized signature for O(1) subgraph matching.
using AnnotationIndex =
    std::unordered_map<Hash128, ViewAnnotation, Hash128Hasher>;

AnnotationIndex IndexAnnotations(const std::vector<ViewAnnotation>& anns);

/// \brief Implements the two view tasks of Fig 10.
///
/// *Reuse* (upper half): top-down, largest-first matching of normalized
/// signatures, precise-signature confirmation against the metadata service,
/// and a cost-based decision to read the materialized view instead of
/// recomputing. *Materialization* (lower half): bottom-up matching,
/// propose-to-materialize locking, and Spool insertion with a per-job
/// limit.
class ViewRewriter {
 public:
  ViewRewriter(const CostModel* cost_model, ViewCatalogInterface* catalog)
      : cost_model_(cost_model), catalog_(catalog) {}

  struct ReuseStats {
    /// All reuses applied: exact (tier 0) plus subsumed (containment).
    int views_reused = 0;
    /// Matches rejected by the cost model (view read too expensive), from
    /// either tier.
    int rejected_by_cost = 0;
    /// Containment-match funnel (tiers 1-3); all zeros when only the exact
    /// tier ran.
    MatchFunnel funnel;
  };

  struct ReuseOptions {
    /// When false only the exact tier-0 hash probe runs (the pre-staged
    /// behavior).
    bool enable_containment = true;
    /// Hosts the lazily-created containment_verify span; may be null.
    obs::Span* parent_span = nullptr;
  };

  /// Replaces matching, already-materialized subgraphs with ViewRead scans:
  /// tier 0 is the exact normalized+precise hash probe; on a miss the
  /// staged CandidateMatcher tries containment with a compensation plan.
  /// The plan must be bound with estimates annotated. Returns the (possibly
  /// new) root; the caller re-binds and repairs physical properties.
  PlanNodePtr ApplyReuse(PlanNodePtr root, const AnnotationIndex& annotations,
                         ReuseStats* stats, const ReuseOptions& options);
  /// Default-options overload (an in-class `= ReuseOptions{}` default would
  /// need the nested type complete at the declaration).
  PlanNodePtr ApplyReuse(PlanNodePtr root, const AnnotationIndex& annotations,
                         ReuseStats* stats) {
    return ApplyReuse(std::move(root), annotations, stats, ReuseOptions{});
  }

  struct MaterializeStats {
    int views_materialized = 0;
    /// Proposals denied because another job holds the build lock or the
    /// view already exists.
    int lock_denied = 0;
    /// Matches skipped because writing the view would cost more than
    /// `max_cost_fraction` of this job (a later, larger job builds it).
    int skipped_by_cost = 0;
  };

  /// Wraps matching, not-yet-materialized subgraphs in Spool nodes (after
  /// winning the metadata-service lock). Bottom-up, smaller views first,
  /// at most `max_per_job` spools (Sec 6.2). `job_cost` is the estimated
  /// cost of the whole job; a spool whose write cost exceeds
  /// `max_cost_fraction` of it is skipped (Sec 4: the optimizer may deem a
  /// view too expensive).
  PlanNodePtr ApplyMaterialization(PlanNodePtr root,
                                   const AnnotationIndex& annotations,
                                   uint64_t job_id, int max_per_job,
                                   double job_cost,
                                   double max_cost_fraction,
                                   MaterializeStats* stats);

 private:
  PlanNodePtr ReuseInternal(PlanNodePtr node,
                            const AnnotationIndex& annotations,
                            ReuseStats* stats, CandidateMatcher* matcher,
                            std::vector<const PlanNode*>* ancestors);
  PlanNodePtr MaterializeInternal(PlanNodePtr node,
                                  const AnnotationIndex& annotations,
                                  uint64_t job_id, int max_per_job,
                                  double max_spool_cost, int* budget,
                                  MaterializeStats* stats);

  const CostModel* cost_model_;
  ViewCatalogInterface* catalog_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_OPTIMIZER_VIEW_REWRITER_H_
