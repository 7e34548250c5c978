#ifndef CLOUDVIEWS_TOOLS_DECL_AUDIT_H_
#define CLOUDVIEWS_TOOLS_DECL_AUDIT_H_

#include <memory>
#include <vector>

#include "tools/repo_lint_lib.h"

namespace cloudviews {
namespace lint {

/// The declaration-level rules of repo_lint: the identity invariants
/// computation reuse depends on.
///
/// A class participates in an invariant group when it declares one of the
/// group's functions with a body (pure-virtual declarations and classes
/// that do not implement the group are not audited for it). For every
/// audited group, every declared instance data member must be referenced —
/// directly or through a same-class/ancestor method the invariant function
/// calls — or carry a reasoned `// sig-skip(<group>): <why>` annotation.
///
///   group      functions
///   hash       Hash, HashInto, HashLocal, SubtreeHash, Fingerprint,
///              Normalize
///   equals     operator==, Equals
///   clone      Clone
///   rebind     RebindInstance
///   serialize  Serialize, SerializeTo, ToJson
///
/// `= default` for a group function counts as covering every member (the
/// compiler generates memberwise semantics).

/// Parses every file's declarations (members, inline and out-of-line
/// method bodies, base classes), merges classes by qualified name across
/// files, attaches sig-skips and resolves each class's group coverage.
std::shared_ptr<const TreeCtx> BuildTree(const std::vector<FileCtx>& files);

/// field-coverage: a member not referenced by an implemented group and
/// not sig-skip'd for it.
void RuleFieldCoverage(const TreeCtx& tree, std::vector<Violation>* out);
/// unknown-sig-skip: a sig-skip naming an unknown group, no group, or no
/// reason.
void RuleUnknownSigSkip(const TreeCtx& tree, std::vector<Violation>* out);
/// stale-sig-skip: a sig-skip on a member the group IS referencing, on a
/// group the class does not implement, or attached to no member.
void RuleStaleSigSkip(const TreeCtx& tree, std::vector<Violation>* out);
/// unordered-iteration: range-for over a std::unordered_* variable without
/// a nearby `order-insensitive:` comment; hash order must never reach
/// signatures or results.
void RuleUnorderedIteration(const TreeCtx& tree,
                            std::vector<Violation>* out);
/// hasher-coverage: a member not referenced by the external
/// `<Name>Hasher` functor that implements its class's hash.
void RuleHasherCoverage(const TreeCtx& tree, std::vector<Violation>* out);

}  // namespace lint
}  // namespace cloudviews

#endif  // CLOUDVIEWS_TOOLS_DECL_AUDIT_H_
