#include "tools/repo_lint_lib.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "tools/decl_audit.h"

namespace cloudviews {
namespace lint {

namespace {

namespace fs = std::filesystem;

bool PathContains(const std::string& rel_path, const char* needle) {
  return rel_path.find(needle) != std::string::npos;
}

/// True when code[i] is an identifier directly preceded by `std` `::`.
bool IsStdQualified(const std::vector<Token>& code, size_t i) {
  return i >= 2 && code[i - 1].IsPunct("::") && code[i - 2].IsIdent("std");
}

/// A NOLINT *marker* opens a comment ("// NOLINT..." or "/* NOLINT...");
/// prose that merely mentions NOLINT mid-sentence is not a marker. A
/// reasoned marker looks like "NOLINT(<category>): <why>" or at minimum
/// "NOLINT(<non-empty>)". Returns true when a marker exists; sets
/// `reasoned` and `nextline` accordingly.
bool FindNolint(const std::string& comment_text, bool* reasoned,
                bool* nextline) {
  size_t pos = 0;
  for (;;) {
    pos = comment_text.find("NOLINT", pos);
    if (pos == std::string::npos) return false;
    size_t before = pos;
    while (before > 0 && (comment_text[before - 1] == ' ' ||
                          comment_text[before - 1] == '\t')) {
      --before;
    }
    if (before >= 2 && comment_text[before - 2] == '/' &&
        (comment_text[before - 1] == '/' ||
         comment_text[before - 1] == '*')) {
      break;  // comment-opening marker
    }
    pos += 6;
  }
  size_t after = pos + 6;  // strlen("NOLINT")
  *nextline = comment_text.compare(after, 8, "NEXTLINE") == 0;
  if (*nextline) after += 8;
  *reasoned = false;
  if (after < comment_text.size() && comment_text[after] == '(') {
    size_t close = comment_text.find(')', after);
    if (close != std::string::npos && close > after + 1) *reasoned = true;
  }
  return true;
}

std::string ExpectedHeaderGuard(const std::string& rel_path) {
  std::string p = rel_path;
  // src/ is the include root, so it does not appear in guards; tests/ and
  // tools/ do (they are their own include namespaces).
  if (p.rfind("src/", 0) == 0) p = p.substr(4);
  std::string guard = "CLOUDVIEWS_";
  for (char c : p) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

// ---------------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------------

void RuleBannedRandom(const FileCtx& ctx, std::vector<Violation>* out) {
  if (PathContains(ctx.rel_path, "common/random")) return;
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    const std::string& s = code[i].text;
    std::string which;
    if (s == "srand" || s == "random_device") {
      which = s;
    } else if (s == "rand" && IsStdQualified(code, i)) {
      which = "std::rand";
    } else if (s == "time" && i + 3 < code.size() &&
               code[i + 1].IsPunct("(") &&
               (code[i + 2].IsIdent("nullptr") ||
                code[i + 2].IsIdent("NULL")) &&
               code[i + 3].IsPunct(")")) {
      which = "time(" + code[i + 2].text + ")";
    }
    if (which.empty()) continue;
    out->push_back({ctx.display_path, code[i].line, "banned-random",
                    "'" + which +
                        "' outside common/random; use cloudviews::Rng so "
                        "runs stay reproducible"});
  }
}

void RuleBannedClock(const FileCtx& ctx, std::vector<Violation>* out) {
  if (PathContains(ctx.rel_path, "common/clock") ||
      PathContains(ctx.rel_path, "src/obs/")) {
    return;
  }
  for (const Token& t : ctx.code) {
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "steady_clock" && t.text != "system_clock" &&
        t.text != "high_resolution_clock") {
      continue;
    }
    out->push_back({ctx.display_path, t.line, "banned-clock",
                    "'" + t.text +
                        "' outside common/clock.h and src/obs; use "
                        "MonotonicClock / MonotonicNowSeconds so time is "
                        "injectable in tests"});
  }
}

void RuleBannedSleep(const FileCtx& ctx, std::vector<Violation>* out) {
  if (PathContains(ctx.rel_path, "fault/backoff")) return;
  for (const Token& t : ctx.code) {
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "sleep_for" && t.text != "sleep_until" &&
        t.text != "usleep" && t.text != "nanosleep") {
      continue;
    }
    out->push_back({ctx.display_path, t.line, "banned-sleep",
                    "'" + t.text +
                        "' outside fault/backoff; hand-rolled sleeps in "
                        "retry loops are untestable — use "
                        "fault::RetryWithBackoff (with an injectable "
                        "Sleeper)"});
  }
}

void RuleBannedSync(const FileCtx& ctx, std::vector<Violation>* out) {
  if (PathContains(ctx.rel_path, "common/mutex.h")) return;
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    const std::string& s = code[i].text;
    if (s != "mutex" && s != "condition_variable" && s != "lock_guard" &&
        s != "unique_lock" && s != "scoped_lock" && s != "shared_mutex" &&
        s != "shared_lock" && s != "recursive_mutex") {
      continue;
    }
    if (!IsStdQualified(code, i)) continue;
    out->push_back({ctx.display_path, code[i].line, "banned-sync",
                    "'std::" + s +
                        "' outside common/mutex.h; use the annotated "
                        "Mutex/MutexLock/CondVar so clang -Wthread-safety "
                        "can check the locking"});
  }
}

void RuleRawSocket(const FileCtx& ctx, std::vector<Violation>* out) {
  // net/socket.{h,cc} is the one sanctioned call site of the BSD socket
  // API; everything else (the server and client included) goes through the
  // Socket RAII wrapper so fd lifetimes, EINTR retries, and the net fault
  // points stay in one place.
  if (PathContains(ctx.rel_path, "net/socket.")) return;
  const auto& code = ctx.code;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    const std::string& s = code[i].text;
    if (s != "socket" && s != "bind" && s != "listen" && s != "accept" &&
        s != "connect" && s != "send" && s != "recv" && s != "sendto" &&
        s != "recvfrom" && s != "setsockopt" && s != "getsockopt" &&
        s != "getsockname" && s != "getpeername" && s != "shutdown") {
      continue;
    }
    if (!code[i + 1].IsPunct("(")) continue;
    // Member calls (sock.connect(...)) are not the C API.
    if (i >= 1 &&
        (code[i - 1].IsPunct(".") || code[i - 1].IsPunct("->"))) {
      continue;
    }
    // Namespace-qualified names (std::bind) are not the C API either; a
    // global-scope `::connect(` is exactly what the rule is after.
    if (i >= 2 && code[i - 1].IsPunct("::") &&
        code[i - 2].kind == TokenKind::kIdentifier) {
      continue;
    }
    out->push_back({ctx.display_path, code[i].line, "raw-socket",
                    "'" + s +
                        "(' outside net/socket.cc; raw BSD socket calls "
                        "bypass the Socket RAII wrapper (fd lifetime, "
                        "EINTR handling, net fault points)"});
  }
}

void RuleNakedNew(const FileCtx& ctx, std::vector<Violation>* out) {
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!code[i].IsIdent("new")) continue;
    if (i > 0 && code[i - 1].IsIdent("operator")) continue;
    out->push_back({ctx.display_path, code[i].line, "naked-new",
                    "naked 'new'; use std::make_unique/std::make_shared "
                    "(or NOLINT(naked-new): <why> for an intentional "
                    "leak)"});
  }
}

void RuleMutexGuarded(const FileCtx& ctx, std::vector<Violation>* out) {
  if (!ctx.is_header || PathContains(ctx.rel_path, "common/mutex.h")) {
    return;
  }
  const auto& code = ctx.code;
  int first_mutex_line = 0;
  bool saw_guarded_by = false;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].IsIdent("GUARDED_BY") || code[i].IsIdent("PT_GUARDED_BY")) {
      saw_guarded_by = true;
    }
    // A member declaration "Mutex mu_;" (possibly "mutable Mutex mu_;").
    if (first_mutex_line == 0 && code[i].IsIdent("Mutex") &&
        i + 2 < code.size() &&
        code[i + 1].kind == TokenKind::kIdentifier &&
        code[i + 2].IsPunct(";")) {
      first_mutex_line = code[i].line;
    }
  }
  if (first_mutex_line != 0 && !saw_guarded_by) {
    out->push_back({ctx.display_path, first_mutex_line, "mutex-guarded",
                    "header declares a Mutex member but annotates nothing "
                    "with GUARDED_BY; annotate the state the mutex "
                    "protects"});
  }
}

void RuleMetadataMapStripe(const FileCtx& ctx,
                           std::vector<Violation>* out) {
  if (!ctx.is_header || !PathContains(ctx.rel_path, "src/metadata/")) {
    return;
  }
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    if (code[i].text != "map" && code[i].text != "unordered_map") continue;
    if (!IsStdQualified(code, i)) continue;
    if (i + 1 >= code.size() || !code[i + 1].IsPunct("<")) continue;
    // The declaration runs to the next ';'; it is guarded when GUARDED_BY
    // appears in it.
    bool guarded = false;
    for (size_t j = i + 1; j < code.size(); ++j) {
      if (code[j].IsPunct(";")) break;
      if (code[j].IsIdent("GUARDED_BY")) guarded = true;
    }
    if (!guarded) continue;
    int line = code[i - 2].line;  // the `std` token: start of the type
    if (JustifiedNearby(ctx, "shard-stripe", line, 4)) continue;
    out->push_back(
        {ctx.display_path, line, "metadata-map-stripe",
         "mutex-guarded map member in a src/metadata/ header; add a "
         "'shard-stripe: <why>' comment justifying its lock with a "
         "measurement (or stripe the map by signature)"});
  }
}

void RuleCompensationComment(const FileCtx& ctx,
                             std::vector<Violation>* out) {
  if (!PathContains(ctx.rel_path, "optimizer/view_matcher.") &&
      !PathContains(ctx.rel_path, "optimizer/view_rewriter.")) {
    return;
  }
  const auto& code = ctx.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!code[i].IsIdent("make_shared")) continue;
    if (i + 1 >= code.size() || !code[i + 1].IsPunct("<")) continue;
    // Collect the (possibly qualified) template type name.
    std::string type;
    for (size_t j = i + 2; j < code.size(); ++j) {
      if (code[j].kind == TokenKind::kIdentifier) {
        type = code[j].text;
        continue;
      }
      if (code[j].IsPunct("::")) continue;
      break;
    }
    if (type.size() < 4 ||
        type.compare(type.size() - 4, 4, "Node") != 0) {
      continue;
    }
    int line = code[i].line;
    // Every plan-node construction in the matcher / rewriter is a
    // compensation (or exact-replacement) operator whose byte-identity
    // argument must be written down nearby.
    if (JustifiedNearby(ctx, "compensation:", line, 4)) continue;
    out->push_back(
        {ctx.display_path, line, "compensation-comment",
         "plan-node construction ('" + type +
             "') in the view-matching compensation path without a "
             "nearby '// compensation: <why byte-identical>' "
             "justification comment"});
  }
}

void RuleAssertSideEffect(const FileCtx& ctx,
                          std::vector<Violation>* out) {
  const auto& code = ctx.code;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!code[i].IsIdent("assert") || !code[i + 1].IsPunct("(")) continue;
    int depth = 0;
    bool mutates = false;
    for (size_t j = i + 1; j < code.size(); ++j) {
      if (code[j].kind != TokenKind::kPunct) continue;
      const std::string& p = code[j].text;
      if (p == "(") ++depth;
      if (p == ")") {
        --depth;
        if (depth == 0) break;
      }
      if (p == "++" || p == "--" || p == "=" || p == "+=" || p == "-=" ||
          p == "*=" || p == "/=" || p == "%=" || p == "^=" || p == "&=" ||
          p == "|=" || p == "<<=" || p == ">>=") {
        mutates = true;
      }
    }
    if (mutates) {
      out->push_back({ctx.display_path, code[i].line, "assert-side-effect",
                      "assert() argument has side effects; it vanishes "
                      "under NDEBUG"});
    }
  }
}

void RuleHeaderGuard(const FileCtx& ctx, std::vector<Violation>* out) {
  if (!ctx.is_header) return;
  std::string guard = ExpectedHeaderGuard(ctx.rel_path);
  if (ctx.content->find("#ifndef " + guard) == std::string::npos ||
      ctx.content->find("#define " + guard) == std::string::npos) {
    out->push_back({ctx.display_path, 1, "header-guard",
                    "expected include guard '" + guard + "'"});
  }
}

void RuleNolintReason(const FileCtx& ctx, std::vector<Violation>* out) {
  for (const Token& c : ctx.comments) {
    bool reasoned = false;
    bool nextline = false;
    if (FindNolint(c.text, &reasoned, &nextline) && !reasoned) {
      out->push_back({ctx.display_path, c.line, "nolint-reason",
                      "NOLINT without a category and reason; write "
                      "NOLINT(<rule>): <why>"});
    }
  }
}

}  // namespace

bool JustifiedNearby(const FileCtx& ctx, const char* needle, int line,
                     int reach) {
  for (const Token& c : ctx.comments) {
    if (c.text.find(needle) == std::string::npos) continue;
    int end =
        c.line + static_cast<int>(std::count(c.text.begin(), c.text.end(),
                                             '\n'));
    if (end >= line - reach && c.line <= line) return true;
  }
  return false;
}

const std::vector<Rule>& AllRules() {
  static const std::vector<Rule> kRules = {
      {"banned-random",
       "std::rand/srand/random_device/time(nullptr) outside common/random "
       "— use cloudviews::Rng",
       "bad_random.cc", RuleBannedRandom, nullptr},
      {"banned-clock",
       "ad-hoc std::chrono clocks outside common/clock.h and src/obs — "
       "use MonotonicClock",
       "bad_clock.cc", RuleBannedClock, nullptr},
      {"banned-sleep",
       "sleep_for/sleep_until/usleep/nanosleep outside fault/backoff — "
       "use fault::RetryWithBackoff",
       "bad_sleep.cc", RuleBannedSleep, nullptr},
      {"banned-sync",
       "raw std sync primitives outside common/mutex.h — use the "
       "annotated Mutex/MutexLock/CondVar",
       "bad_sync.cc", RuleBannedSync, nullptr},
      {"raw-socket",
       "raw BSD socket calls outside net/socket.cc — use the Socket RAII "
       "wrapper",
       "bad_socket.cc", RuleRawSocket, nullptr},
      {"naked-new",
       "naked 'new' — use std::make_unique/std::make_shared",
       "bad_new.cc", RuleNakedNew, nullptr},
      {"mutex-guarded",
       "a header declaring a Mutex member must GUARDED_BY-annotate the "
       "state it protects",
       "bad_unguarded.h", RuleMutexGuarded, nullptr},
      {"metadata-map-stripe",
       "a GUARDED_BY'd map member in a src/metadata/ header needs a "
       "'shard-stripe' justification",
       "bad_metadata_map.h", RuleMetadataMapStripe, nullptr},
      {"compensation-comment",
       "a PlanNode construction in view_matcher/view_rewriter needs a "
       "'// compensation: <why>' comment",
       "bad_compensation.cc", RuleCompensationComment, nullptr},
      {"assert-side-effect",
       "assert() whose argument mutates state vanishes under NDEBUG",
       "bad_assert.cc", RuleAssertSideEffect, nullptr},
      {"header-guard",
       "include guards must be CLOUDVIEWS_<PATH>_H_",
       "bad_guard.h", RuleHeaderGuard, nullptr},
      {"nolint-reason",
       "NOLINT must carry a category and reason: NOLINT(rule): why",
       "bad_nolint.cc", RuleNolintReason, nullptr},
      {"field-coverage",
       "every data member of an identity-bearing class must be referenced "
       "by each implemented invariant group (hash/equals/clone/rebind/"
       "serialize) or carry a reasoned sig-skip",
       "missing_hash_field.h", nullptr, RuleFieldCoverage},
      {"unknown-sig-skip",
       "sig-skip must name known groups and carry a reason: "
       "// sig-skip(<group>[, <group>]): <why>",
       "unknown_sig_skip.h", nullptr, RuleUnknownSigSkip},
      {"stale-sig-skip",
       "a sig-skip whose member is actually referenced, whose group the "
       "class does not implement, or that attaches to no member, is an "
       "error",
       "stale_sig_skip.h", nullptr, RuleStaleSigSkip},
      {"unordered-iteration",
       "range-for over a std::unordered_* variable needs a nearby "
       "'// order-insensitive: <why>' justification",
       "unordered_iteration.cc", nullptr, RuleUnorderedIteration},
      {"hasher-coverage",
       "a class whose hashing lives in an external '<Name>Hasher' functor "
       "(the std::unordered_* key idiom used by shared-state registries) "
       "must have every member referenced by that functor's operator() or "
       "carry a reasoned sig-skip(hash)",
       "missing_hasher_field.h", nullptr, RuleHasherCoverage},
  };
  return kRules;
}

std::vector<Violation> LintSources(const std::vector<SourceFile>& files) {
  std::vector<FileCtx> ctxs(files.size());
  for (size_t f = 0; f < files.size(); ++f) {
    FileCtx& ctx = ctxs[f];
    const std::string& rel = files[f].rel_path;
    ctx.display_path = files[f].display_path;
    ctx.rel_path = rel;
    ctx.content = &files[f].content;
    ctx.is_header = rel.size() >= 2 && rel.rfind(".h") == rel.size() - 2;
    for (Token& t : Tokenize(files[f].content)) {
      if (t.kind == TokenKind::kComment) {
        bool reasoned = false;
        bool nextline = false;
        if (FindNolint(t.text, &reasoned, &nextline) && reasoned) {
          ctx.suppressed_lines.insert(t.line);
          if (nextline) ctx.suppressed_lines.insert(t.line + 1);
        }
        ctx.comments.push_back(std::move(t));
        continue;
      }
      if (t.kind != TokenKind::kPreprocessor && !t.in_directive) {
        ctx.decl_code.push_back(t);
      }
      ctx.code.push_back(std::move(t));
    }
  }
  std::shared_ptr<const TreeCtx> tree = BuildTree(ctxs);

  std::vector<Violation> out;
  for (const Rule& rule : AllRules()) {
    if (rule.tree_fn != nullptr) {
      rule.tree_fn(*tree, &out);
      continue;
    }
    for (const FileCtx& ctx : ctxs) {
      std::vector<Violation> found;
      rule.file_fn(ctx, &found);
      for (Violation& v : found) {
        // A reasoned NOLINT exempts its line from every per-file rule but
        // the NOLINT discipline itself.
        if (rule.file_fn != RuleNolintReason &&
            ctx.suppressed_lines.count(v.line) > 0) {
          continue;
        }
        out.push_back(std::move(v));
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.path != b.path) return a.path < b.path;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return out;
}

std::vector<Violation> LintFile(const std::string& display_path,
                                const std::string& rel_path,
                                const std::string& content) {
  return LintSources({{display_path, rel_path, content}});
}

std::vector<Violation> LintTree(const std::vector<std::string>& roots) {
  std::vector<Violation> out;
  std::vector<SourceFile> files;
  for (const auto& root : roots) {
    std::error_code ec;
    fs::path root_path(root);
    std::string prefix = root_path.filename().string();
    if (prefix.empty()) prefix = root_path.parent_path().filename().string();
    if (!fs::is_directory(root_path, ec)) {
      out.push_back({root, 0, "io-error", "not a directory"});
      continue;
    }
    std::vector<fs::path> paths;
    for (fs::recursive_directory_iterator it(root_path, ec), end;
         it != end; it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      if (it->path().string().find("lint_fixtures") != std::string::npos) {
        continue;
      }
      paths.push_back(it->path());
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        out.push_back({path.string(), 0, "io-error", "unreadable file"});
        continue;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      files.push_back(
          {path.string(),
           prefix + "/" + fs::relative(path, root_path, ec).generic_string(),
           ss.str()});
    }
  }
  std::vector<Violation> linted = LintSources(files);
  out.insert(out.end(), linted.begin(), linted.end());
  return out;
}

std::string ViolationsToJson(const std::vector<Violation>& violations) {
  auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::ostringstream js;
  js << "[\n";
  for (size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    js << "  {\"path\": \"" << escape(v.path) << "\", \"line\": " << v.line
       << ", \"rule\": \"" << escape(v.rule) << "\", \"message\": \""
       << escape(v.message) << "\"}";
    if (i + 1 < violations.size()) js << ",";
    js << "\n";
  }
  js << "]\n";
  return js.str();
}

}  // namespace lint
}  // namespace cloudviews
