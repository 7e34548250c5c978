#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "tools/repo_lint_lib.h"

namespace cloudviews {
namespace lint {
namespace {

// CV_LINT_FIXTURE_DIR is injected by CMake and points at
// tools/lint_fixtures (files with seeded violations, at least one per rule,
// plus clean files proving the rules do not over-fire).
std::string FixturePath(const std::string& name) {
  return std::string(CV_LINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Violation> LintFixture(const std::string& name) {
  return LintFile(name, "tools/lint_fixtures/" + name, ReadFixture(name));
}

std::set<std::string> Rules(const std::vector<Violation>& violations) {
  std::set<std::string> rules;
  for (const auto& v : violations) rules.insert(v.rule);
  return rules;
}

bool IsDeclarationRule(const std::string& slug) {
  for (const Rule& r : AllRules()) {
    if (slug == r.name) return r.tree_fn != nullptr;
  }
  return false;
}

/// The declaration-level findings of LintSources. The cases using it feed
/// guard-less snippets, whose header-guard findings are not under test.
std::vector<Violation> Audit(const std::vector<SourceFile>& files) {
  std::vector<Violation> out;
  for (Violation& v : LintSources(files)) {
    if (IsDeclarationRule(v.rule)) out.push_back(std::move(v));
  }
  return out;
}

int CountRule(const std::vector<Violation>& vs, const std::string& rule) {
  return static_cast<int>(
      std::count_if(vs.begin(), vs.end(),
                    [&](const Violation& v) { return v.rule == rule; }));
}

std::string Dump(const std::vector<Violation>& vs) {
  std::ostringstream ss;
  for (const auto& v : vs) {
    ss << v.path << ":" << v.line << ": [" << v.rule << "] " << v.message
       << "\n";
  }
  return ss.str();
}

TEST(RepoLintTest, BannedRandomFires) {
  auto violations = LintFixture("bad_random.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"banned-random"});
  // std::srand, time(nullptr), std::random_device, std::rand + rd() use.
  EXPECT_GE(violations.size(), 3u);
}

TEST(RepoLintTest, BannedRandomAllowedInsideCommonRandom) {
  auto violations = LintFile("random.cc", "src/common/random.cc",
                             ReadFixture("bad_random.cc"));
  EXPECT_TRUE(violations.empty());
}

TEST(RepoLintTest, BannedClockFires) {
  auto violations = LintFixture("bad_clock.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"banned-clock"});
  // steady_clock, system_clock, high_resolution_clock.
  EXPECT_GE(violations.size(), 3u);
}

TEST(RepoLintTest, BannedClockAllowedInClockHeaderAndObs) {
  EXPECT_TRUE(LintFile("clock.h", "src/common/clock.h",
                       "#ifndef CLOUDVIEWS_COMMON_CLOCK_H_\n"
                       "#define CLOUDVIEWS_COMMON_CLOCK_H_\n"
                       "auto t = std::chrono::steady_clock::now();\n"
                       "#endif\n")
                  .empty());
  EXPECT_TRUE(LintFile("metrics.cc", "src/obs/metrics.cc",
                       "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(RepoLintTest, BannedSyncFires) {
  auto violations = LintFixture("bad_sync.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"banned-sync"});
  EXPECT_GE(violations.size(), 2u);  // std::mutex and std::lock_guard
}

TEST(RepoLintTest, BannedSleepFires) {
  auto violations = LintFixture("bad_sleep.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"banned-sleep"});
  // sleep_for, sleep_until, usleep, nanosleep.
  EXPECT_GE(violations.size(), 4u);
}

TEST(RepoLintTest, BannedSleepAllowedInBackoffHelper) {
  // The backoff helper's real Sleeper is the one sanctioned sleep site.
  EXPECT_TRUE(LintFile("backoff.cc", "src/fault/backoff.cc",
                       "std::this_thread::sleep_for(d);\n")
                  .empty());
  // Prose mentioning sleep_for does not fire (comments are stripped).
  EXPECT_TRUE(LintFile("doc.cc", "src/exec/doc.cc",
                       "// never call sleep_for in a retry loop\n")
                  .empty());
}

TEST(RepoLintTest, RawSocketFires) {
  auto violations = LintFixture("bad_socket.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"raw-socket"});
  // socket, bind, listen, accept, send, recv, shutdown.
  EXPECT_EQ(violations.size(), 7u);
}

TEST(RepoLintTest, RawSocketAllowedInSocketWrapper) {
  // The Socket RAII wrapper is the one sanctioned raw-API call site.
  EXPECT_TRUE(LintFile("socket.cc", "src/net/socket.cc",
                       ReadFixture("bad_socket.cc"))
                  .empty());
  EXPECT_TRUE(LintFile("socket.h", "src/net/socket.h",
                       "#ifndef CLOUDVIEWS_NET_SOCKET_H_\n"
                       "#define CLOUDVIEWS_NET_SOCKET_H_\n"
                       "inline int Fd() { return ::socket(2, 1, 0); }\n"
                       "#endif\n")
                  .empty());
}

TEST(RepoLintTest, RawSocketSkipsMembersAndQualifiedNames) {
  EXPECT_TRUE(LintFile("f.cc", "src/runtime/f.cc",
                       "void F(Socket* s) {\n"
                       "  s->connect(1);\n"
                       "  auto b = std::bind(g, 2);\n"
                       "}\n")
                  .empty());
}

TEST(RepoLintTest, NakedNewFires) {
  auto violations = LintFixture("bad_new.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"naked-new"});
  EXPECT_EQ(violations.size(), 1u);
}

TEST(RepoLintTest, UnguardedMutexMemberFires) {
  auto violations = LintFixture("bad_unguarded.h");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"mutex-guarded"});
  EXPECT_EQ(violations.size(), 1u);
}

TEST(RepoLintTest, MetadataGuardedMapWithoutStripeJustificationFires) {
  // The fixture lives in lint_fixtures/ but is linted as if it were a
  // src/metadata/ header, where the rule is scoped.
  auto violations =
      LintFile("bad_metadata_map.h", "src/metadata/bad_metadata_map.h",
               ReadFixture("bad_metadata_map.h"));
  EXPECT_EQ(Rules(violations),
            std::set<std::string>{"metadata-map-stripe"});
  // Only the unjustified views_ map; the shard-stripe-justified locks_
  // and the unguarded cache_ stay clean.
  ASSERT_EQ(violations.size(), 1u);
}

TEST(RepoLintTest, MetadataMapRuleSeesWrappedGuardedBy) {
  // GUARDED_BY on the continuation line of a wrapped declaration (the
  // shape metadata_service.h actually uses) is still caught.
  std::string content =
      "#ifndef CLOUDVIEWS_METADATA_M_H_\n"
      "#define CLOUDVIEWS_METADATA_M_H_\n"
      "class M {\n"
      "  mutable Mutex mu_;\n"
      "  std::unordered_map<Hash128, RegisteredView, Hash128Hasher> views_\n"
      "      GUARDED_BY(mu_);\n"
      "};\n"
      "#endif\n";
  auto violations = LintFile("m.h", "src/metadata/m.h", content);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "metadata-map-stripe");
  EXPECT_EQ(violations[0].line, 5);
}

TEST(RepoLintTest, MetadataMapRuleScopedToMetadataHeaders) {
  // The same guarded map outside src/metadata/ is the general
  // mutex-guarded concern, not this rule's.
  std::string body =
      "class C {\n"
      "  mutable Mutex mu_;\n"
      "  std::map<int, int> m_ GUARDED_BY(mu_);\n"
      "};\n";
  EXPECT_TRUE(LintFile("m.h", "src/runtime/m.h",
                       "#ifndef CLOUDVIEWS_RUNTIME_M_H_\n"
                       "#define CLOUDVIEWS_RUNTIME_M_H_\n" +
                           body + "#endif\n")
                  .empty());
  // Headers only: a .cc in src/metadata/ holds implementation detail, not
  // the service's state layout.
  EXPECT_TRUE(
      LintFile("m.cc", "src/metadata/metadata_service.cc", body).empty());
}

TEST(RepoLintTest, MetadataMapRuleHonorsReasonedNolint) {
  std::string content =
      "#ifndef CLOUDVIEWS_METADATA_M_H_\n"
      "#define CLOUDVIEWS_METADATA_M_H_\n"
      "class M {\n"
      "  mutable Mutex mu_;\n"
      "  std::map<int, int> m_ GUARDED_BY(mu_);"
      "  // NOLINT(metadata-map-stripe): migration in flight\n"
      "};\n"
      "#endif\n";
  EXPECT_TRUE(LintFile("m.h", "src/metadata/m.h", content).empty());
}

TEST(RepoLintTest, CompensationCommentFires) {
  // The fixture lives in lint_fixtures/ but is linted as if it were the
  // view matcher, where the rule is scoped.
  auto violations =
      LintFile("bad_compensation.cc", "src/optimizer/view_matcher.cc",
               ReadFixture("bad_compensation.cc"));
  EXPECT_EQ(Rules(violations),
            std::set<std::string>{"compensation-comment"});
  // Only the unjustified FilterNode; the justified ProjectNode and the
  // non-plan-node ViewFeatures allocation stay clean.
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].line, 8);
  EXPECT_NE(violations[0].message.find("FilterNode"), std::string::npos);
}

TEST(RepoLintTest, CompensationCommentScopedToMatcherAndRewriter) {
  // The same construction elsewhere in the optimizer is not this rule's
  // concern (only the compensation path must argue byte-identity).
  EXPECT_TRUE(LintFile("rules.cc", "src/optimizer/rules.cc",
                       "auto f = std::make_shared<FilterNode>(in, pred);\n")
                  .empty());
  EXPECT_TRUE(LintFile("rw.cc", "src/optimizer/view_rewriter.cc",
                       "auto f = std::make_shared<FilterNode>(in, pred);\n")
                  .size() == 1u);
}

TEST(RepoLintTest, CompensationCommentSeesWrappedConstruction) {
  // The template argument on the continuation line of a wrapped call (the
  // shape clang-format produces) is still caught.
  std::string content =
      "auto agg = std::make_shared<\n"
      "    AggregateNode>(input, keys, specs);\n";
  auto violations =
      LintFile("vm.cc", "src/optimizer/view_matcher.cc", content);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, "compensation-comment");
  EXPECT_EQ(violations[0].line, 1);
}

TEST(RepoLintTest, CompensationCommentHonorsReasonedNolint) {
  std::string content =
      "auto f = std::make_shared<FilterNode>(in, pred);"
      "  // NOLINT(compensation-comment): fixture exemption\n";
  EXPECT_TRUE(
      LintFile("vm.cc", "src/optimizer/view_matcher.cc", content).empty());
}

TEST(RepoLintTest, AssertSideEffectFires) {
  auto violations = LintFixture("bad_assert.cc");
  EXPECT_EQ(Rules(violations),
            std::set<std::string>{"assert-side-effect"});
  EXPECT_EQ(violations.size(), 2u);  // --budget and written = budget
}

TEST(RepoLintTest, HeaderGuardFires) {
  auto violations = LintFixture("bad_guard.h");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"header-guard"});
}

TEST(RepoLintTest, BareNolintFires) {
  auto violations = LintFixture("bad_nolint.cc");
  EXPECT_EQ(Rules(violations), std::set<std::string>{"nolint-reason"});
  EXPECT_EQ(violations.size(), 1u);
}

TEST(RepoLintTest, CleanFixturesPass) {
  EXPECT_TRUE(LintFixture("clean.cc").empty());
  EXPECT_TRUE(LintFixture("clean.h").empty());
}

TEST(RepoLintTest, ReasonedNolintSuppressesOnlyItsLine) {
  std::string content =
      "int* a = new int;  // NOLINT(naked-new): fixture exemption\n"
      "int* b = new int;\n";
  auto violations = LintFile("f.cc", "src/f.cc", content);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].line, 2);
  EXPECT_EQ(violations[0].rule, "naked-new");
}

TEST(RepoLintTest, HeaderGuardStripsOnlySrcPrefix) {
  std::string src_header =
      "#ifndef CLOUDVIEWS_COMMON_FOO_H_\n"
      "#define CLOUDVIEWS_COMMON_FOO_H_\n"
      "#endif\n";
  EXPECT_TRUE(LintFile("foo.h", "src/common/foo.h", src_header).empty());
  std::string tests_header =
      "#ifndef CLOUDVIEWS_TESTS_FOO_H_\n"
      "#define CLOUDVIEWS_TESTS_FOO_H_\n"
      "#endif\n";
  EXPECT_TRUE(LintFile("foo.h", "tests/foo.h", tests_header).empty());
}

TEST(RepoLintTest, RawStringContentsCannotFireRules) {
  // The old line-oriented sanitizer lost raw-string state across lines,
  // so banned names inside a multi-line raw string leaked into matching.
  std::ifstream in(FixturePath("clean_rawstring.cc"));
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  auto violations = LintFile("clean_rawstring.cc",
                             "src/clean_rawstring.cc", ss.str());
  for (const auto& v : violations) {
    ADD_FAILURE() << v.path << ":" << v.line << " [" << v.rule << "] "
                  << v.message;
  }
}

TEST(RepoLintTest, DocsTableListsExactlyTheRegisteredRules) {
  std::ifstream in(std::string(CV_DOCS_DIR) + "/lint_rules.md");
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string docs = ss.str();

  // Rows of the "## Rules" table look like "| `rule-name` | ...".
  size_t begin = docs.find("## Rules");
  ASSERT_NE(begin, std::string::npos);
  size_t end = docs.find("\n## ", begin + 1);
  std::string section = docs.substr(
      begin, end == std::string::npos ? std::string::npos : end - begin);

  size_t rows = 0;
  for (size_t pos = section.find("\n| `"); pos != std::string::npos;
       pos = section.find("\n| `", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, AllRules().size())
      << "docs/lint_rules.md table row count must match AllRules()";
  for (const auto& rule : AllRules()) {
    EXPECT_NE(section.find("| `" + std::string(rule.name) + "` |"),
              std::string::npos)
        << "docs/lint_rules.md is missing rule " << rule.name;
    EXPECT_NE(section.find("`" + std::string(rule.fixture) + "`"),
              std::string::npos)
        << "docs/lint_rules.md is missing fixture " << rule.fixture;
  }
}

TEST(RepoLintTest, EveryRuleHasAFixtureOnDisk) {
  // 12 per-file rules and 5 declaration-level rules, each with exactly one
  // of the two functions.
  ASSERT_EQ(AllRules().size(), 17u);
  int declaration_rules = 0;
  for (const auto& rule : AllRules()) {
    EXPECT_NE(rule.file_fn == nullptr, rule.tree_fn == nullptr) << rule.name;
    if (rule.tree_fn != nullptr) ++declaration_rules;
    std::ifstream in(FixturePath(rule.fixture));
    EXPECT_TRUE(in.good()) << "rule " << rule.name
                           << " names a missing fixture " << rule.fixture;
  }
  EXPECT_EQ(declaration_rules, 5);
}

TEST(RepoLintTest, LintTreeSkipsFixturesAndFindsNothingSeeded) {
  // The fixture directory itself is excluded from tree scans, so pointing
  // LintTree at tools/ only reports real tool sources (which are clean).
  auto violations = LintTree({std::string(CV_LINT_TOOLS_DIR)});
  for (const auto& v : violations) {
    EXPECT_EQ(v.path.find("lint_fixtures"), std::string::npos) << v.path;
  }
}

TEST(RepoLintTest, OneTreeWalkReportsPerFileAndDeclarationFindings) {
  // One LintTree pass reads the header and the .cc once each: the
  // per-file rule fires on the .cc, and the declaration-level audit joins
  // the out-of-line HashInto body to the class its header declares.
  namespace fs = std::filesystem;
  fs::path root = fs::path(::testing::TempDir()) / "repo_lint_walk" / "src";
  fs::remove_all(root.parent_path());
  ASSERT_TRUE(fs::create_directories(root));
  std::ofstream(root / "node.h") << "#ifndef CLOUDVIEWS_NODE_H_\n"
                                    "#define CLOUDVIEWS_NODE_H_\n"
                                    "class Node {\n"
                                    " public:\n"
                                    "  void HashInto(int* h) const;\n"
                                    " private:\n"
                                    "  int width_ = 0;\n"
                                    "  int height_ = 0;\n"
                                    "};\n"
                                    "#endif\n";
  std::ofstream(root / "node.cc") << "#include \"node.h\"\n"
                                     "void Node::HashInto(int* h) const {\n"
                                     "  *h = width_;\n"
                                     "  int* leak = new int;\n"
                                     "}\n";
  auto vs = LintTree({root.string()});
  fs::remove_all(root.parent_path());
  ASSERT_EQ(vs.size(), 2u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "naked-new");
  EXPECT_EQ(vs[0].path, (root / "node.cc").string());
  EXPECT_EQ(vs[0].line, 4);
  EXPECT_EQ(vs[1].rule, "field-coverage");
  EXPECT_EQ(vs[1].path, (root / "node.h").string());
  EXPECT_EQ(vs[1].line, 8);
  EXPECT_NE(vs[1].message.find("height_"), std::string::npos);
}

TEST(RepoLintTest, ReasonedNolintDoesNotSilenceDeclarationRules) {
  // A blanket NOLINT is not the annotation the audit asks for: only a
  // sig-skip or an order-insensitive comment may silence it.
  std::string content =
      "struct Node {\n"
      "  int Hash() const { return a_; }\n"
      "  int a_ = 0;\n"
      "  int b_ = 0;  // NOLINT(field-coverage): blanket exemption\n"
      "};\n"
      "int Sum(const std::unordered_set<int>& values) {\n"
      "  int total = 0;\n"
      "  for (int v : values) total += v;  // NOLINT(unordered-iteration): x\n"
      "  return total;\n"
      "}\n";
  auto vs = LintFile("f.cc", "src/f.cc", content);
  ASSERT_EQ(vs.size(), 2u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "field-coverage");
  EXPECT_EQ(vs[0].line, 4);
  EXPECT_EQ(vs[1].rule, "unordered-iteration");
  EXPECT_EQ(vs[1].line, 8);
}

// The declaration-level rules: the field-coverage invariant audit and the
// unordered-iteration determinism lint.

TEST(InvariantAnalyzerTest, MissingHashFieldIsFlagged) {
  auto vs = LintFixture("missing_hash_field.h");
  ASSERT_EQ(vs.size(), 1u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "field-coverage");
  EXPECT_NE(vs[0].message.find("guid_"), std::string::npos);
  EXPECT_NE(vs[0].message.find("hash"), std::string::npos);
  EXPECT_NE(vs[0].message.find("BadHashNode"), std::string::npos);
}

TEST(InvariantAnalyzerTest, MissingRebindFieldIsFlagged) {
  auto vs = LintFixture("missing_rebind_field.h");
  ASSERT_EQ(vs.size(), 1u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "field-coverage");
  EXPECT_NE(vs[0].message.find("guid_"), std::string::npos);
  EXPECT_NE(vs[0].message.find("rebind"), std::string::npos);
}

TEST(InvariantAnalyzerTest, StaleSkipsAreFlagged) {
  auto vs = LintFixture("stale_sig_skip.h");
  EXPECT_EQ(CountRule(vs, "stale-sig-skip"), 3) << Dump(vs);
  EXPECT_EQ(vs.size(), 3u) << Dump(vs);
}

TEST(InvariantAnalyzerTest, MalformedSkipsAreErrorsAndDoNotAttach) {
  auto vs = LintFixture("unknown_sig_skip.h");
  // The typo'd group and the reason-less skip are unknown-sig-skip errors,
  // and because neither attaches, both members stay uncovered.
  EXPECT_EQ(CountRule(vs, "unknown-sig-skip"), 2) << Dump(vs);
  EXPECT_EQ(CountRule(vs, "field-coverage"), 2) << Dump(vs);
  EXPECT_EQ(vs.size(), 4u) << Dump(vs);
}

TEST(InvariantAnalyzerTest, UnorderedIterationInSignaturePath) {
  auto vs = LintFixture("unordered_iteration.cc");
  ASSERT_EQ(vs.size(), 2u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "unordered-iteration");
  EXPECT_EQ(vs[1].rule, "unordered-iteration");
  EXPECT_EQ(vs[0].line, 15);
  EXPECT_EQ(vs[1].line, 24);
}

TEST(InvariantAnalyzerTest, CleanIdentityClassPasses) {
  auto vs = LintFixture("clean_identity.h");
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

TEST(InvariantAnalyzerTest, CoverageAcrossSplitDeclarationAndDefinition) {
  // Declaration in a header, definition in a .cc — the audit must join
  // them across files before deciding coverage.
  SourceFile header;
  header.display_path = "split.h";
  header.rel_path = "src/split.h";
  header.content = R"(class SplitNode {
 public:
  void HashInto(int* h) const;
 private:
  int width_ = 0;
  int height_ = 0;
};
)";
  SourceFile impl;
  impl.display_path = "split.cc";
  impl.rel_path = "src/split.cc";
  impl.content = R"(#include "split.h"
void SplitNode::HashInto(int* h) const { *h = width_; }
)";
  auto vs = Audit({header, impl});
  ASSERT_EQ(vs.size(), 1u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "field-coverage");
  EXPECT_EQ(vs[0].path, "split.h");
  EXPECT_NE(vs[0].message.find("height_"), std::string::npos);
}

TEST(InvariantAnalyzerTest, DeclarationOnlyGroupIsNotAudited) {
  // Only a declaration, no body anywhere: the audit cannot see the
  // implementation, so it must stay silent rather than guess.
  SourceFile f;
  f.display_path = "decl_only.h";
  f.rel_path = "src/decl_only.h";
  f.content = R"(class OpaqueNode {
 public:
  void HashInto(int* h) const;
 private:
  int hidden_ = 0;
};
)";
  auto vs = Audit({f});
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

TEST(InvariantAnalyzerTest, MissingHasherFieldIsFlagged) {
  // Hashing implemented by an external <Name>Hasher functor: the uncovered
  // member is a hasher-coverage violation; the sig-skip'd member and the
  // covered member stay silent, as does the functor class itself.
  auto vs = LintFixture("missing_hasher_field.h");
  ASSERT_EQ(vs.size(), 1u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "hasher-coverage");
  EXPECT_NE(vs[0].message.find("mode"), std::string::npos);
  EXPECT_NE(vs[0].message.find("ShareKeyHasher"), std::string::npos);
}

TEST(InvariantAnalyzerTest, ExternalHasherDelegationCounts) {
  // operator() delegating to a target method inherits that method's
  // member coverage, and a skip on a member the hasher DOES reach (via the
  // delegate) is stale.
  SourceFile f;
  f.display_path = "delegate.h";
  f.rel_path = "src/delegate.h";
  f.content = R"(struct Key {
  int a = 0;
  // sig-skip(hash): claimed unused
  int b = 0;
  int Mix() const { return a ^ b; }
};
struct KeyHasher {
  int operator()(const Key& k) const { return k.Mix(); }
};
)";
  auto vs = Audit({f});
  ASSERT_EQ(vs.size(), 1u) << Dump(vs);
  EXPECT_EQ(vs[0].rule, "stale-sig-skip");
  EXPECT_NE(vs[0].message.find("'b'"), std::string::npos);
}

TEST(InvariantAnalyzerTest, JsonReportEscapesAndLists) {
  std::vector<Violation> vs = {
      {"a.h", 3, "field-coverage", "member \"x_\"\nnot covered"}};
  std::string json = ViolationsToJson(vs);
  EXPECT_NE(json.find("\"rule\": \"field-coverage\""), std::string::npos);
  EXPECT_NE(json.find("\\\"x_\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  // The raw newline must not survive inside the JSON string value.
  EXPECT_EQ(json.find("\nnot"), std::string::npos);
}

TEST(InvariantAnalyzerTest, LiveTreeIsClean) {
  // Every identity type in src/ either covers its members or carries a
  // reasoned sig-skip.
  auto vs = LintTree({std::string(CV_LINT_SRC_DIR)});
  EXPECT_TRUE(vs.empty()) << Dump(vs);
}

}  // namespace
}  // namespace lint
}  // namespace cloudviews
