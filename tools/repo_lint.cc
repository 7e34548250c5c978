// repo_lint: token-level enforcement of the CloudViews repo invariants
// (see docs/lint_rules.md for the rule table): per-file discipline rules
// plus the declaration-level identity audit, over one walk of the tree.
// Runs as a tier-1 ctest; exits non-zero when any rule fires.
//
// Usage: repo_lint [--json <report>] [<dir>...]   (defaults to src tests)
//
// --json writes the machine-readable report the CI job uploads.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tools/repo_lint_lib.h"

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) roots = {"src", "tests"};

  auto violations = cloudviews::lint::LintTree(roots);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    out << cloudviews::lint::ViolationsToJson(violations);
    if (!out) {
      std::fprintf(stderr, "repo_lint: cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  for (const auto& v : violations) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", v.path.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
  if (!violations.empty()) {
    std::fprintf(stderr, "repo_lint: %zu violation(s)\n", violations.size());
    return 1;
  }
  std::printf("repo_lint: clean\n");
  return 0;
}
