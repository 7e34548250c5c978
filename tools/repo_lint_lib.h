#ifndef CLOUDVIEWS_TOOLS_REPO_LINT_LIB_H_
#define CLOUDVIEWS_TOOLS_REPO_LINT_LIB_H_

#include <set>
#include <string>
#include <vector>

#include "tools/token.h"

namespace cloudviews {
namespace lint {

/// One lint finding: file, 1-based line (0 for whole-file rules), the rule
/// slug, and a human-readable message.
struct Violation {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

/// One source file handed to the linter.
struct SourceFile {
  std::string display_path;  // what violations report
  std::string rel_path;      // repo-relative ("src/...") for rule scoping
  std::string content;
};

/// Everything a rule needs about one file, built once per file: one
/// tokenization, one split into code and comments. The lexer has already
/// removed comments and string/char literal *contents* from the code, so
/// prose can never trigger a ban and a banned call can never hide in a
/// multi-line raw string.
struct FileCtx {
  std::string display_path;
  std::string rel_path;
  const std::string* content = nullptr;  // raw bytes (header-guard rule)
  // Everything but comments. Directive bodies stay in (a macro that
  // expands to srand() is still a violation).
  std::vector<Token> code;
  // `code` without preprocessor lines: what the declaration parser reads,
  // so `#include <map>` never looks like a declaration.
  std::vector<Token> decl_code;
  std::vector<Token> comments;
  std::set<int> suppressed_lines;  // lines carrying a reasoned NOLINT
  bool is_header = false;
};

/// The declaration-level model of a whole tree (classes joined across
/// files, sig-skips attached, invariant-group coverage resolved). Defined
/// in tools/decl_audit.cc; built once per LintSources call.
struct TreeCtx;

/// One registered rule. AllRules() is the single table, and
/// docs/lint_rules.md must list exactly these rows (a test asserts it).
/// Exactly one of `file_fn` / `tree_fn` is set:
///  - a per-file rule sees one FileCtx; a reasoned NOLINT on the finding's
///    line silences it (except nolint-reason itself);
///  - a declaration-level rule sees the whole tree and gives way only to
///    its own annotation (`sig-skip(...)`, `order-insensitive:`), never to
///    NOLINT.
struct Rule {
  const char* name;     // rule slug reported in Violation::rule
  const char* summary;  // one-line description (mirrors the docs table)
  const char* fixture;  // file under tools/lint_fixtures/ proving it
  void (*file_fn)(const FileCtx&, std::vector<Violation>*);
  void (*tree_fn)(const TreeCtx&, std::vector<Violation>*);
};

/// The rule table (see docs/lint_rules.md and DESIGN.md "Correctness
/// tooling"). Per-file: banned-random, banned-clock, banned-sleep,
/// banned-sync, raw-socket, naked-new, mutex-guarded, metadata-map-stripe,
/// compensation-comment, assert-side-effect, header-guard, nolint-reason.
/// Declaration-level: field-coverage, unknown-sig-skip, stale-sig-skip,
/// unordered-iteration, hasher-coverage.
const std::vector<Rule>& AllRules();

/// Runs every rule over `files` as one tree (out-of-line bodies in a .cc
/// are joined to the class their header declares). Sorted by path, line,
/// rule.
std::vector<Violation> LintSources(const std::vector<SourceFile>& files);

/// LintSources over a single file.
std::vector<Violation> LintFile(const std::string& display_path,
                                const std::string& rel_path,
                                const std::string& content);

/// Reads every .h/.cc/.cpp under each root directory (skipping
/// tools/lint_fixtures/) and lints them as one tree. Paths inside the
/// roots are made repo-relative by prefixing the root's basename (passing
/// "/repo/src" yields rel paths "src/..."). Unreadable roots and files are
/// reported as violations with rule "io-error".
std::vector<Violation> LintTree(const std::vector<std::string>& roots);

/// Renders violations as a JSON array (stable field order: path, line,
/// rule, message) for the CI artifact.
std::string ViolationsToJson(const std::vector<Violation>& violations);

/// True when a comment containing `needle` starts or ends within
/// [line - reach, line]: the justification window rules give a flagged
/// construct.
bool JustifiedNearby(const FileCtx& ctx, const char* needle, int line,
                     int reach);

}  // namespace lint
}  // namespace cloudviews

#endif  // CLOUDVIEWS_TOOLS_REPO_LINT_LIB_H_
