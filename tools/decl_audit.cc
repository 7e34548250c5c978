#include "tools/decl_audit.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "tools/token.h"

namespace cloudviews {
namespace lint {

namespace {

// ---------------------------------------------------------------------------
// Class model
// ---------------------------------------------------------------------------

struct MemberSkip {
  std::string group;
  int line = 0;
};

/// One parsed member declaration.
struct Member {
  std::string name;
  int line = 0;
  std::string file;  // display path of the declaring file
  std::vector<MemberSkip> skips;
};

struct Function {
  std::string name;
  bool has_body = false;
  bool defaulted = false;
  int line = 0;
  std::string file;
  std::vector<std::string> body_idents;  // identifiers in params + body
};

struct ClassInfo {
  std::string name;  // qualified by enclosing classes: "Outer::Inner"
  std::vector<std::string> bases;
  std::vector<Member> members;
  std::vector<Function> functions;
};

// ---------------------------------------------------------------------------
// Invariant groups
// ---------------------------------------------------------------------------

struct GroupDef {
  const char* name;
  std::vector<const char*> functions;
};

const std::vector<GroupDef>& Groups() {
  static const std::vector<GroupDef> kGroups = {
      {"hash",
       {"Hash", "HashInto", "HashLocal", "SubtreeHash", "Fingerprint",
        "Normalize"}},
      {"equals", {"operator==", "Equals"}},
      {"clone", {"Clone"}},
      {"rebind", {"RebindInstance"}},
      {"serialize", {"Serialize", "SerializeTo", "ToJson"}},
  };
  return kGroups;
}

const GroupDef* FindGroup(const std::string& name) {
  for (const auto& g : Groups()) {
    if (name == g.name) return &g;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

bool IsIdentTok(const Token& t) { return t.kind == TokenKind::kIdentifier; }

bool IsAccessSpecifier(const std::string& s) {
  return s == "public" || s == "private" || s == "protected";
}

/// An ALL_CAPS identifier followed by parens is treated as an attribute
/// macro (GUARDED_BY, REQUIRES, CLOUDVIEWS_*), transparent to declaration
/// parsing.
bool IsAttrMacroName(const std::string& s) {
  if (s.size() < 2) return false;
  bool has_alpha = false;
  for (char c : s) {
    if (c >= 'a' && c <= 'z') return false;
    if (c >= 'A' && c <= 'Z') has_alpha = true;
    if (!(c == '_' || (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z'))) {
      return false;
    }
  }
  return has_alpha;
}

int CloseAngleCount(const Token& t) {
  if (t.kind != TokenKind::kPunct) return 0;
  if (t.text == ">") return 1;
  if (t.text == ">>") return 2;
  return 0;
}

// ---------------------------------------------------------------------------
// Declaration parser
// ---------------------------------------------------------------------------

/// An out-of-line definition ("Hash128 PlanNode::SubtreeHash(...) {...}")
/// waiting to be attached to its class once every file has been parsed.
struct PendingFunction {
  std::string qualifier;  // "PlanNode" or "PlanCache::Key"
  Function fn;
};

class DeclParser {
 public:
  DeclParser(const std::vector<Token>& toks, std::string file,
             std::map<std::string, ClassInfo>* classes,
             std::vector<PendingFunction>* pending)
      : t_(toks),
        file_(std::move(file)),
        classes_(classes),
        pending_(pending) {}

  void Parse() {
    i_ = 0;
    ParseRegion(t_.size(), "", nullptr);
  }

 private:
  /// Index of the matching '}' for the '{' at `open`, or `end`.
  size_t MatchBrace(size_t open, size_t end) const {
    int depth = 0;
    for (size_t j = open; j < end; ++j) {
      if (t_[j].kind != TokenKind::kPunct) continue;
      if (t_[j].text == "{") ++depth;
      if (t_[j].text == "}") {
        --depth;
        if (depth == 0) return j;
      }
    }
    return end;
  }

  ClassInfo* GetClass(const std::string& qualified) {
    ClassInfo& info = (*classes_)[qualified];
    if (info.name.empty()) info.name = qualified;
    return &info;
  }

  /// Walks `head` (indices into t_) tracking angle/bracket depth and
  /// skipping attribute-macro argument lists; returns the index *into
  /// head* of the first top-level '(' (a function parameter list), or
  /// npos.
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  size_t TopLevelParen(const std::vector<size_t>& head) const {
    int angle = 0;
    int bracket = 0;
    for (size_t h = 0; h < head.size(); ++h) {
      const Token& tok = t_[head[h]];
      if (angle == 0 && bracket == 0 && IsIdentTok(tok) &&
          IsAttrMacroName(tok.text) && h + 1 < head.size() &&
          t_[head[h + 1]].IsPunct("(")) {
        // Skip the macro's balanced parens.
        int depth = 0;
        size_t j = h + 1;
        for (; j < head.size(); ++j) {
          if (t_[head[j]].IsPunct("(")) ++depth;
          if (t_[head[j]].IsPunct(")")) {
            --depth;
            if (depth == 0) break;
          }
        }
        h = j;
        continue;
      }
      if (tok.kind == TokenKind::kPunct) {
        if (tok.text == "[") ++bracket;
        if (tok.text == "]" && bracket > 0) --bracket;
        if (angle > 0) {
          angle -= std::min(angle, CloseAngleCount(tok));
        }
        if (tok.text == "(" && angle == 0 && bracket == 0) return h;
      }
      // Angle opening needs the token before it; reconstruct locally.
      if (tok.kind == TokenKind::kPunct && tok.text == "<" && h > 0) {
        const Token& prev = t_[head[h - 1]];
        if (IsIdentTok(prev) && prev.text != "operator") ++angle;
      }
    }
    return kNpos;
  }

  bool HeadHasIdent(const std::vector<size_t>& head, const char* word,
                    size_t* where = nullptr) const {
    for (size_t h = 0; h < head.size(); ++h) {
      if (t_[head[h]].IsIdent(word)) {
        if (where != nullptr) *where = h;
        return true;
      }
    }
    return false;
  }

  /// Last top-level (angle-depth 0) `class`/`struct`/`union` keyword in
  /// head that is not `enum class`; npos if none.
  size_t ClassKeyword(const std::vector<size_t>& head) const {
    int angle = 0;
    size_t found = kNpos;
    for (size_t h = 0; h < head.size(); ++h) {
      const Token& tok = t_[head[h]];
      if (tok.kind == TokenKind::kPunct) {
        if (tok.text == "<" && h > 0 && IsIdentTok(t_[head[h - 1]]) &&
            t_[head[h - 1]].text != "operator") {
          ++angle;
        } else if (angle > 0) {
          angle -= std::min(angle, CloseAngleCount(tok));
        }
        continue;
      }
      if (angle != 0 || !IsIdentTok(tok)) continue;
      if (tok.text == "class" || tok.text == "struct" ||
          tok.text == "union") {
        bool after_enum = h > 0 && t_[head[h - 1]].IsIdent("enum");
        if (!after_enum) found = h;
      }
    }
    return found;
  }

  /// Function name from the tokens before the top-level '('.
  std::string FunctionName(const std::vector<size_t>& head,
                           size_t paren) const {
    if (paren == 0) return "";
    const Token& before = t_[head[paren - 1]];
    if (before.kind == TokenKind::kPunct) {
      if (paren >= 2 && t_[head[paren - 2]].IsIdent("operator")) {
        return "operator" + before.text;
      }
      return "";
    }
    if (before.text == "operator") return "operator()";
    if (paren >= 2 && t_[head[paren - 2]].IsPunct("~")) {
      return "~" + before.text;
    }
    if (paren >= 2 && t_[head[paren - 2]].IsIdent("operator")) {
      return "operator " + before.text;  // conversion operator
    }
    return before.text;
  }

  /// For an out-of-line definition, the `A::B` qualifier chain directly
  /// before the function name; empty for a free function.
  std::string Qualifier(const std::vector<size_t>& head,
                        size_t paren) const {
    // head[paren-1] is the name (or the punct of operator@, in which case
    // the qualifier sits before `operator`).
    size_t name_at = paren - 1;
    if (t_[head[name_at]].kind == TokenKind::kPunct && name_at > 0 &&
        t_[head[name_at - 1]].IsIdent("operator")) {
      name_at -= 1;
    } else if (name_at > 0 && t_[head[name_at - 1]].IsIdent("operator")) {
      name_at -= 1;  // conversion operator: name is "operator <type>"
    }
    std::vector<std::string> parts;
    size_t h = name_at;
    while (h >= 2 && t_[head[h - 1]].IsPunct("::") &&
           IsIdentTok(t_[head[h - 2]])) {
      parts.push_back(t_[head[h - 2]].text);
      h -= 2;
    }
    std::string out;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      if (!out.empty()) out += "::";
      out += *it;
    }
    return out;
  }

  /// Collects every identifier in head[from_h..] plus every identifier in
  /// the token range (body_open, body_close) — the function's parameters,
  /// constructor-initializer list, and body.
  std::vector<std::string> BodyIdents(const std::vector<size_t>& head,
                                      size_t from_h, size_t body_open,
                                      size_t body_close) const {
    std::set<std::string> seen;
    for (size_t h = from_h; h < head.size(); ++h) {
      if (IsIdentTok(t_[head[h]])) seen.insert(t_[head[h]].text);
    }
    for (size_t j = body_open + 1; j < body_close && j < t_.size(); ++j) {
      if (IsIdentTok(t_[j])) seen.insert(t_[j].text);
    }
    return std::vector<std::string>(seen.begin(), seen.end());
  }

  /// Member names declared by a head that ended in ';' (or in a brace
  /// initializer when `trailing_open_brace`): identifiers at top level
  /// whose next token is one of `, = [` or the end of the declarator.
  std::vector<std::pair<std::string, int>> MemberNames(
      const std::vector<size_t>& head, bool trailing_open_brace) const {
    std::vector<std::pair<std::string, int>> out;
    int angle = 0;
    int paren = 0;
    int bracket = 0;
    bool in_init = false;  // skipping "= ..." until top-level ','
    for (size_t h = 0; h < head.size(); ++h) {
      const Token& tok = t_[head[h]];
      if (tok.kind == TokenKind::kPunct) {
        if (tok.text == "<" && h > 0 && IsIdentTok(t_[head[h - 1]]) &&
            t_[head[h - 1]].text != "operator") {
          ++angle;
        } else if (angle > 0) {
          angle -= std::min(angle, CloseAngleCount(tok));
        }
        if (tok.text == "(") ++paren;
        if (tok.text == ")" && paren > 0) --paren;
        if (tok.text == "[") ++bracket;
        if (tok.text == "]" && bracket > 0) --bracket;
        if (in_init && tok.text == "," && angle == 0 && paren == 0 &&
            bracket == 0) {
          in_init = false;
        }
        continue;
      }
      if (in_init || angle != 0 || paren != 0 || bracket != 0) continue;
      if (!IsIdentTok(tok)) continue;
      if (IsAttrMacroName(tok.text)) continue;
      // Find the next token at this level.
      const Token* next = h + 1 < head.size() ? &t_[head[h + 1]] : nullptr;
      bool terminator = false;
      if (next == nullptr) {
        terminator = true;  // end of declarator ("int x;" / "int x{0}")
      } else if (next->kind == TokenKind::kPunct) {
        if (next->text == "," || next->text == "=" || next->text == "[") {
          terminator = true;
        }
      } else if (IsIdentTok(*next) && IsAttrMacroName(next->text)) {
        terminator = true;  // "Type name_ GUARDED_BY(mu_);"
      }
      if (terminator) {
        out.emplace_back(tok.text, tok.line);
        if (next != nullptr && next->IsPunct("=")) in_init = true;
      }
    }
    (void)trailing_open_brace;
    return out;
  }

  void ClassifySemicolonDecl(const std::vector<size_t>& head,
                             ClassInfo* cls) {
    if (head.empty()) return;
    if (HeadHasIdent(head, "using") || HeadHasIdent(head, "typedef") ||
        HeadHasIdent(head, "friend") || HeadHasIdent(head, "static") ||
        HeadHasIdent(head, "enum")) {
      return;
    }
    if (ClassKeyword(head) != kNpos) return;  // forward declaration
    size_t paren = TopLevelParen(head);
    if (paren != kNpos) {
      // Function declaration without inline body: pure virtual, defaulted,
      // or defined out of line.
      std::string name = FunctionName(head, paren);
      if (name.empty()) return;
      Function fn;
      fn.name = name;
      fn.line = t_[head[paren]].line;
      fn.file = file_;
      size_t n = head.size();
      fn.defaulted = n >= 2 && t_[head[n - 1]].IsIdent("default") &&
                     t_[head[n - 2]].IsPunct("=");
      fn.has_body = false;
      cls->functions.push_back(std::move(fn));
      return;
    }
    for (auto& [name, line] : MemberNames(head, false)) {
      Member m;
      m.name = name;
      m.line = line;
      m.file = file_;
      cls->members.push_back(std::move(m));
    }
  }

  void HandleBlock(const std::vector<size_t>& head, size_t open,
                   size_t close, const std::string& prefix,
                   ClassInfo* cls) {
    if (HeadHasIdent(head, "namespace")) {
      size_t saved = i_;
      i_ = open + 1;
      ParseRegion(close, prefix, nullptr);
      i_ = saved;
      return;
    }
    if (HeadHasIdent(head, "enum")) return;
    size_t ckw = ClassKeyword(head);
    size_t paren = TopLevelParen(head);
    if (ckw != kNpos && paren == kNpos) {
      // Class/struct/union definition. Name = next identifier after the
      // keyword (anonymous aggregates are skipped but their body is still
      // scanned so nested named classes are found).
      std::string name;
      size_t name_at = kNpos;
      for (size_t h = ckw + 1; h < head.size(); ++h) {
        if (IsIdentTok(t_[head[h]]) && !IsAttrMacroName(t_[head[h]].text) &&
            t_[head[h]].text != "alignas" && t_[head[h]].text != "final") {
          name = t_[head[h]].text;
          name_at = h;
          break;
        }
      }
      if (name.empty()) return;
      std::string qualified = prefix.empty() ? name : prefix + "::" + name;
      ClassInfo* info = GetClass(qualified);
      // Bases: tokens after a ':' following the name.
      for (size_t h = name_at + 1; h < head.size(); ++h) {
        if (!t_[head[h]].IsPunct(":")) continue;
        std::string last;
        int angle = 0;
        for (size_t b = h + 1; b < head.size(); ++b) {
          const Token& tok = t_[head[b]];
          if (tok.kind == TokenKind::kPunct) {
            if (tok.text == "<" && b > 0 && IsIdentTok(t_[head[b - 1]])) {
              if (angle == 0 && !last.empty()) {
                info->bases.push_back(last);
                last.clear();
              }
              ++angle;
            } else if (angle > 0) {
              angle -= std::min(angle, CloseAngleCount(tok));
            } else if (tok.text == ",") {
              if (!last.empty()) info->bases.push_back(last);
              last.clear();
            }
            continue;
          }
          if (angle != 0 || !IsIdentTok(tok)) continue;
          const std::string& s = tok.text;
          if (IsAccessSpecifier(s) || s == "virtual" || s == "std") {
            continue;
          }
          last = s;
        }
        if (!last.empty()) info->bases.push_back(last);
        break;
      }
      size_t saved = i_;
      i_ = open + 1;
      ParseRegion(close, qualified, info);
      i_ = saved;
      return;
    }
    if (paren != kNpos) {
      std::string name = FunctionName(head, paren);
      if (name.empty()) return;
      Function fn;
      fn.name = name;
      fn.line = t_[head[paren]].line;
      fn.file = file_;
      fn.has_body = true;
      fn.body_idents = BodyIdents(head, paren + 1, open, close);
      if (cls != nullptr) {
        cls->functions.push_back(std::move(fn));
        return;
      }
      std::string qual = Qualifier(head, paren);
      if (!qual.empty()) {
        pending_->push_back({std::move(qual), std::move(fn)});
      }
      return;
    }
    if (cls != nullptr) {
      // Member with a brace initializer: "std::atomic<int> hits_{0};".
      for (auto& [name, line] : MemberNames(head, true)) {
        Member m;
        m.name = name;
        m.line = line;
        m.file = file_;
        cls->members.push_back(std::move(m));
      }
    }
    // Anything else at namespace scope (free function, initializer) is
    // opaque to the class model.
  }

  void ParseRegion(size_t end, const std::string& prefix, ClassInfo* cls) {
    std::vector<size_t> head;
    while (i_ < end) {
      const Token& tok = t_[i_];
      if (tok.IsPunct("{")) {
        size_t close = MatchBrace(i_, end);
        HandleBlock(head, i_, close, prefix, cls);
        head.clear();
        i_ = close < end ? close + 1 : end;
        continue;
      }
      if (tok.IsPunct("}")) {
        ++i_;
        continue;
      }
      if (tok.IsPunct(";")) {
        if (cls != nullptr) ClassifySemicolonDecl(head, cls);
        head.clear();
        ++i_;
        continue;
      }
      if (tok.IsPunct(":") && cls != nullptr && head.size() == 1 &&
          IsIdentTok(t_[head[0]]) && IsAccessSpecifier(t_[head[0]].text)) {
        head.clear();
        ++i_;
        continue;
      }
      head.push_back(i_);
      ++i_;
    }
  }

  const std::vector<Token>& t_;
  size_t i_ = 0;
  std::string file_;
  std::map<std::string, ClassInfo>* classes_;
  std::vector<PendingFunction>* pending_;
};

void ResolvePending(const std::vector<PendingFunction>& pending,
                    std::map<std::string, ClassInfo>* classes) {
  auto matches = [](const std::string& key, const std::string& qual) {
    if (key == qual) return true;
    if (qual.size() > key.size() + 2 &&
        qual.compare(qual.size() - key.size() - 2, 2, "::") == 0 &&
        qual.compare(qual.size() - key.size(), key.size(), key) == 0) {
      return true;  // qualifier carries namespace prefixes
    }
    if (key.size() > qual.size() + 2 &&
        key.compare(key.size() - qual.size() - 2, 2, "::") == 0 &&
        key.compare(key.size() - qual.size(), qual.size(), qual) == 0) {
      return true;  // class nested deeper than the qualifier spells
    }
    return false;
  };
  for (const PendingFunction& p : pending) {
    ClassInfo* best = nullptr;
    size_t best_len = 0;
    for (auto& [key, info] : *classes) {
      if (matches(key, p.qualifier) && key.size() >= best_len) {
        best = &info;
        best_len = key.size();
      }
    }
    if (best != nullptr) best->functions.push_back(p.fn);
  }
}

// ---------------------------------------------------------------------------
// sig-skip comments
// ---------------------------------------------------------------------------

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

struct SkipComment {
  int start_line = 0;
  int end_line = 0;
  std::vector<std::string> groups;  // validated slugs only
  std::string reason;
  bool malformed = false;
  std::string malformed_why;
};

/// Parses every "sig-skip" occurrence in one comment token.
std::vector<SkipComment> ParseSkipComments(const Token& comment) {
  std::vector<SkipComment> out;
  const std::string& text = comment.text;
  int newlines = static_cast<int>(
      std::count(text.begin(), text.end(), '\n'));
  size_t pos = 0;
  while ((pos = text.find("sig-skip", pos)) != std::string::npos) {
    SkipComment sc;
    sc.start_line = comment.line;
    sc.end_line = comment.line + newlines;
    size_t p = pos + 8;  // past "sig-skip"
    pos = p;
    // Prose mentioning "sig-skips" or "sig-skipped" is not a marker; only
    // a bare "sig-skip" (ideally followed by '(') is.
    if (p < text.size() && IsIdentChar(text[p])) continue;
    if (p >= text.size() || text[p] != '(') {
      sc.malformed = true;
      sc.malformed_why = "expected 'sig-skip(<group>[, <group>]): <why>'";
      out.push_back(std::move(sc));
      continue;
    }
    size_t close = text.find(')', p);
    if (close == std::string::npos) {
      sc.malformed = true;
      sc.malformed_why = "unterminated sig-skip group list";
      out.push_back(std::move(sc));
      continue;
    }
    std::string list = text.substr(p + 1, close - p - 1);
    std::istringstream groups(list);
    std::string item;
    bool any_unknown = false;
    while (std::getline(groups, item, ',')) {
      std::string slug = Trim(item);
      if (slug.empty()) continue;
      if (FindGroup(slug) == nullptr) {
        sc.malformed = true;
        sc.malformed_why = "unknown invariant group '" + slug +
                           "' (known: hash, equals, clone, rebind, "
                           "serialize)";
        any_unknown = true;
        break;
      }
      sc.groups.push_back(slug);
    }
    if (!any_unknown) {
      if (sc.groups.empty()) {
        sc.malformed = true;
        sc.malformed_why = "sig-skip lists no group";
      } else {
        size_t after = close + 1;
        while (after < text.size() &&
               std::isspace(static_cast<unsigned char>(text[after]))) {
          ++after;
        }
        if (after >= text.size() || text[after] != ':') {
          sc.malformed = true;
          sc.malformed_why = "sig-skip needs a reason: 'sig-skip(" + list +
                             "): <why>'";
        } else {
          size_t eol = text.find('\n', after);
          std::string reason = text.substr(
              after + 1,
              eol == std::string::npos ? std::string::npos
                                       : eol - after - 1);
          sc.reason = Trim(reason);
          if (sc.reason.empty()) {
            sc.malformed = true;
            sc.malformed_why = "sig-skip reason is empty";
          }
        }
      }
    }
    out.push_back(std::move(sc));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Determinism lint: unordered iteration
// ---------------------------------------------------------------------------

bool IsUnorderedContainerName(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

/// Skips a template-argument list starting at the '<' at `j`; returns the
/// index just past the matching close.
size_t SkipAngles(const std::vector<Token>& t, size_t j) {
  int depth = 0;
  for (; j < t.size(); ++j) {
    if (t[j].kind != TokenKind::kPunct) continue;
    if (t[j].text == "<") ++depth;
    int close = CloseAngleCount(t[j]);
    if (close > 0) {
      depth -= close;
      if (depth <= 0) return j + 1;
    }
  }
  return j;
}

// ---------------------------------------------------------------------------
// Coverage
// ---------------------------------------------------------------------------

std::string SimpleName(const std::string& qualified) {
  size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

/// Classes reachable through base-class edges (suffix-matched against the
/// class map), including `c` itself.
std::vector<const ClassInfo*> ClassAndAncestors(
    const ClassInfo& c, const std::map<std::string, ClassInfo>& classes) {
  std::vector<const ClassInfo*> out;
  std::set<const ClassInfo*> seen;
  std::vector<const ClassInfo*> frontier = {&c};
  while (!frontier.empty()) {
    const ClassInfo* cur = frontier.back();
    frontier.pop_back();
    if (!seen.insert(cur).second) continue;
    out.push_back(cur);
    for (const std::string& base : cur->bases) {
      for (const auto& [key, info] : classes) {
        if (SimpleName(key) == base) frontier.push_back(&info);
      }
    }
  }
  return out;
}

/// Expands `idents` (the identifiers of some invariant functions' bodies)
/// through the methods of `sides` and their ancestors, so delegation like
/// operator== -> Compare counts. Constructors and destructors are left
/// out: a Clone that merely names the class for make_shared<T>(...) must
/// not inherit coverage from T's constructor.
std::set<std::string> Closure(std::set<std::string> idents,
                              const std::vector<const ClassInfo*>& sides,
                              const std::map<std::string, ClassInfo>& classes) {
  std::map<std::string, std::vector<const Function*>> methods;
  for (const ClassInfo* side : sides) {
    for (const ClassInfo* k : ClassAndAncestors(*side, classes)) {
      std::string simple = SimpleName(k->name);
      for (const Function& fn : k->functions) {
        if (!fn.has_body) continue;
        if (fn.name == simple || fn.name.rfind('~', 0) == 0) continue;
        methods[fn.name].push_back(&fn);
      }
    }
  }
  std::vector<std::string> frontier(idents.begin(), idents.end());
  std::set<std::string> expanded;
  while (!frontier.empty()) {
    std::string name = frontier.back();
    frontier.pop_back();
    if (!expanded.insert(name).second) continue;
    auto it = methods.find(name);
    if (it == methods.end()) continue;
    for (const Function* fn : it->second) {
      for (const std::string& ident : fn->body_idents) {
        if (idents.insert(ident).second) frontier.push_back(ident);
      }
    }
  }
  return idents;
}

/// External hash functors: a class named `<Target>Hasher` (possibly nested,
/// e.g. PlanCache::KeyHasher hashing PlanCache::Key) whose operator() has a
/// body is treated as the hash implementation of Target. This is the
/// std::unordered_* support idiom: identity-bearing keys of shared state
/// (caches, in-flight registries) keep their hash in a sibling functor, which
/// the plain field-coverage audit cannot see. Target resolves by stripping
/// the "Hasher" suffix from the qualified name; when that exact name is
/// unknown, a unique simple-name match is accepted (ambiguity disables the
/// pairing rather than guessing).
std::map<const ClassInfo*, std::vector<const ClassInfo*>> FindExternalHashers(
    const std::map<std::string, ClassInfo>& classes) {
  std::map<const ClassInfo*, std::vector<const ClassInfo*>> out;
  const std::string kSuffix = "Hasher";
  for (const auto& [key, info] : classes) {
    if (key.size() <= kSuffix.size() ||
        key.compare(key.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    bool has_call_body = false;
    for (const Function& fn : info.functions) {
      if (fn.name == "operator()" && fn.has_body) has_call_body = true;
    }
    if (!has_call_body) continue;
    std::string target_name = key.substr(0, key.size() - kSuffix.size());
    const ClassInfo* target = nullptr;
    auto exact = classes.find(target_name);
    if (exact != classes.end()) {
      target = &exact->second;
    } else {
      std::string simple = SimpleName(target_name);
      if (!simple.empty()) {
        for (const auto& [other_key, other] : classes) {
          if (SimpleName(other_key) != simple) continue;
          if (target != nullptr) {
            target = nullptr;  // ambiguous: don't guess
            break;
          }
          target = &other;
        }
      }
    }
    if (target != nullptr && target != &info) out[target].push_back(&info);
  }
  return out;
}

/// How one class meets one invariant group, resolved once per tree so the
/// coverage and staleness rules read the same closure.
struct GroupAudit {
  enum class How {
    kNone,            // the class implements no function of the group
    kInClass,         // group functions with a visible body or = default
    kExternalHasher,  // hash lives in <Name>Hasher::operator()
  };
  const ClassInfo* cls = nullptr;
  const char* group = nullptr;
  How how = How::kNone;
  bool all_covered = false;  // a defaulted group function
  std::set<std::string> closure;
  std::string by;  // "Hash/HashInto" or "KeyHasher::operator()"

  bool Covers(const std::string& member) const {
    return all_covered || closure.count(member) > 0;
  }
};

GroupAudit ResolveGroup(
    const ClassInfo& c, const GroupDef& group,
    const std::map<std::string, ClassInfo>& classes,
    const std::map<const ClassInfo*, std::vector<const ClassInfo*>>&
        hashers) {
  GroupAudit audit;
  audit.cls = &c;
  audit.group = group.name;
  std::set<std::string> idents;
  bool any_body = false;
  for (const Function& fn : c.functions) {
    for (const char* g : group.functions) {
      if (fn.name != g || (!fn.has_body && !fn.defaulted)) continue;
      any_body |= fn.has_body;
      audit.all_covered |= fn.defaulted;
      if (fn.has_body) {
        idents.insert(fn.body_idents.begin(), fn.body_idents.end());
      }
      if (!audit.by.empty()) audit.by += "/";
      audit.by += fn.name;
    }
  }
  if (any_body || audit.all_covered) {
    audit.how = GroupAudit::How::kInClass;
    if (!audit.all_covered) audit.closure = Closure(idents, {&c}, classes);
    return audit;
  }
  auto hit = hashers.find(&c);
  if (std::string("hash") != group.name || hit == hashers.end()) {
    return audit;  // kNone
  }
  // Hashing is implemented externally (<Name>Hasher functor): audit the
  // functor's operator() closure, expanded through the methods of both the
  // functor and its target.
  audit.how = GroupAudit::How::kExternalHasher;
  for (const ClassInfo* h : hit->second) {
    idents.clear();
    for (const Function& fn : h->functions) {
      if (fn.name == "operator()" && fn.has_body) {
        idents.insert(fn.body_idents.begin(), fn.body_idents.end());
      }
    }
    std::set<std::string> one = Closure(idents, {h, &c}, classes);
    audit.closure.insert(one.begin(), one.end());
    if (!audit.by.empty()) audit.by += "/";
    audit.by += SimpleName(h->name) + "::operator()";
  }
  return audit;
}

/// The member's last sig-skip naming `group`, or null.
const MemberSkip* SkipFor(const Member& m, const char* group) {
  const MemberSkip* skip = nullptr;
  for (const MemberSkip& s : m.skips) {
    if (s.group == group) skip = &s;
  }
  return skip;
}

/// Attaches each file's sig-skips to the member on the comment's own line,
/// or the first member at most two lines below it. Malformed skips attach
/// to nothing and become unknown-sig-skip findings; well-formed skips that
/// find no member are stale.
void AttachSkips(const FileCtx& file,
                 std::map<std::string, ClassInfo>* classes,
                 std::vector<Violation>* malformed,
                 std::vector<Violation>* dangling) {
  std::vector<Member*> file_members;
  for (auto& [key, info] : *classes) {
    for (Member& m : info.members) {
      if (m.file == file.display_path) file_members.push_back(&m);
    }
  }
  for (const Token& comment : file.comments) {
    for (SkipComment& sc : ParseSkipComments(comment)) {
      if (sc.malformed) {
        malformed->push_back({file.display_path, sc.start_line,
                              "unknown-sig-skip", sc.malformed_why});
        continue;
      }
      Member* target = nullptr;
      for (Member* m : file_members) {
        if (m->line == sc.start_line) {
          target = m;
          break;
        }
      }
      if (target == nullptr) {
        for (Member* m : file_members) {
          if (m->line > sc.end_line && m->line <= sc.end_line + 2 &&
              (target == nullptr || m->line < target->line)) {
            target = m;
          }
        }
      }
      if (target == nullptr) {
        dangling->push_back(
            {file.display_path, sc.start_line, "stale-sig-skip",
             "sig-skip comment attaches to no member declaration (the "
             "member may have been renamed or removed)"});
        continue;
      }
      for (const std::string& g : sc.groups) {
        target->skips.push_back({g, sc.start_line});
      }
    }
  }
}

/// Reports every member `audit` neither covers nor sig-skips, through
/// `message(member)`.
template <typename Message>
void ReportUncovered(const GroupAudit& audit, const char* rule,
                     const Message& message, std::vector<Violation>* out) {
  for (const Member& m : audit.cls->members) {
    if (audit.Covers(m.name) || SkipFor(m, audit.group) != nullptr) continue;
    out->push_back({m.file, m.line, rule, message(m)});
  }
}

}  // namespace

struct TreeCtx {
  const std::vector<FileCtx>* files = nullptr;
  std::map<std::string, ClassInfo> classes;
  std::vector<GroupAudit> audits;  // one per (class, group)
  std::vector<Violation> malformed_skips;
  std::vector<Violation> dangling_skips;
};

std::shared_ptr<const TreeCtx> BuildTree(const std::vector<FileCtx>& files) {
  auto tree = std::make_shared<TreeCtx>();
  tree->files = &files;
  std::vector<PendingFunction> pending;
  for (const FileCtx& f : files) {
    DeclParser parser(f.decl_code, f.display_path, &tree->classes, &pending);
    parser.Parse();
  }
  ResolvePending(pending, &tree->classes);
  for (const FileCtx& f : files) {
    AttachSkips(f, &tree->classes, &tree->malformed_skips,
                &tree->dangling_skips);
  }
  auto hashers = FindExternalHashers(tree->classes);
  for (const auto& [key, info] : tree->classes) {
    for (const GroupDef& group : Groups()) {
      tree->audits.push_back(
          ResolveGroup(info, group, tree->classes, hashers));
    }
  }
  return tree;
}

void RuleFieldCoverage(const TreeCtx& tree, std::vector<Violation>* out) {
  for (const GroupAudit& a : tree.audits) {
    if (a.how != GroupAudit::How::kInClass) continue;
    ReportUncovered(
        a, "field-coverage",
        [&a](const Member& m) {
          return "member '" + m.name + "' of " + a.cls->name +
                 " is not referenced by " + a.by +
                 " — include it, or annotate '// sig-skip(" + a.group +
                 "): <why identity is preserved>'";
        },
        out);
  }
}

void RuleHasherCoverage(const TreeCtx& tree, std::vector<Violation>* out) {
  for (const GroupAudit& a : tree.audits) {
    if (a.how != GroupAudit::How::kExternalHasher) continue;
    ReportUncovered(
        a, "hasher-coverage",
        [&a](const Member& m) {
          return "member '" + m.name + "' of " + a.cls->name +
                 " is not referenced by its external hash functor " + a.by +
                 " — two keys differing only in this member would collide "
                 "in shared state; include it, or annotate '// "
                 "sig-skip(hash): <why identity is preserved>'";
        },
        out);
  }
}

void RuleUnknownSigSkip(const TreeCtx& tree, std::vector<Violation>* out) {
  out->insert(out->end(), tree.malformed_skips.begin(),
              tree.malformed_skips.end());
}

void RuleStaleSigSkip(const TreeCtx& tree, std::vector<Violation>* out) {
  out->insert(out->end(), tree.dangling_skips.begin(),
              tree.dangling_skips.end());
  for (const GroupAudit& a : tree.audits) {
    for (const Member& m : a.cls->members) {
      if (a.how == GroupAudit::How::kNone) {
        for (const MemberSkip& s : m.skips) {
          if (s.group != a.group) continue;
          out->push_back(
              {m.file, s.line, "stale-sig-skip",
               "member '" + m.name + "' of " + a.cls->name +
                   " skips group '" + a.group +
                   "' but the class implements no function of that group"});
        }
        continue;
      }
      const MemberSkip* skip = SkipFor(m, a.group);
      if (skip == nullptr || !a.Covers(m.name)) continue;
      out->push_back({m.file, skip->line, "stale-sig-skip",
                      "member '" + m.name + "' of " + a.cls->name +
                          " IS referenced by " + a.by + "; drop the sig-skip(" +
                          a.group + ")"});
    }
  }
}

void RuleUnorderedIteration(const TreeCtx& tree,
                            std::vector<Violation>* out) {
  for (const FileCtx& f : *tree.files) {
    const std::vector<Token>& code = f.decl_code;
    // Pass 1: type aliases of unordered containers.
    std::set<std::string> unordered_types;
    for (size_t j = 0; j + 3 < code.size(); ++j) {
      if (!code[j].IsIdent("using") || !IsIdentTok(code[j + 1]) ||
          !code[j + 2].IsPunct("=")) {
        continue;
      }
      for (size_t k = j + 3; k < code.size(); ++k) {
        if (code[k].IsPunct(";")) break;
        if (IsIdentTok(code[k]) && IsUnorderedContainerName(code[k].text)) {
          unordered_types.insert(code[j + 1].text);
          break;
        }
      }
    }
    // Pass 2: variables (members, locals, params) of unordered type.
    std::set<std::string> unordered_vars;
    for (size_t j = 0; j < code.size(); ++j) {
      if (!IsIdentTok(code[j])) continue;
      if (!IsUnorderedContainerName(code[j].text) &&
          unordered_types.count(code[j].text) == 0) {
        continue;
      }
      size_t k = j + 1;
      if (k < code.size() && code[k].IsPunct("<")) k = SkipAngles(code, k);
      while (k < code.size() &&
             (code[k].IsPunct("&") || code[k].IsPunct("*") ||
              code[k].IsIdent("const"))) {
        ++k;
      }
      if (k < code.size() && IsIdentTok(code[k]) &&
          !IsAttrMacroName(code[k].text) &&
          !IsUnorderedContainerName(code[k].text)) {
        unordered_vars.insert(code[k].text);
      }
    }
    if (unordered_vars.empty()) continue;
    // Pass 3: range-for loops whose range expression names one of them.
    for (size_t j = 0; j + 1 < code.size(); ++j) {
      if (!code[j].IsIdent("for") || !code[j + 1].IsPunct("(")) continue;
      int depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t k = j + 1; k < code.size(); ++k) {
        if (code[k].kind != TokenKind::kPunct) continue;
        if (code[k].text == "(") ++depth;
        if (code[k].text == ")") {
          --depth;
          if (depth == 0) {
            close = k;
            break;
          }
        }
        if (code[k].text == ":" && depth == 1 && colon == 0) colon = k;
        if (code[k].text == ";" && depth == 1) {
          colon = 0;  // classic for loop, not range-for
          break;
        }
      }
      if (colon == 0 || close == 0) continue;
      std::string hit;
      for (size_t k = colon + 1; k < close; ++k) {
        if (IsIdentTok(code[k]) && unordered_vars.count(code[k].text) > 0) {
          hit = code[k].text;
          break;
        }
      }
      if (hit.empty()) continue;
      if (JustifiedNearby(f, "order-insensitive", code[j].line, 3)) continue;
      out->push_back(
          {f.display_path, code[j].line, "unordered-iteration",
           "range-for over unordered container '" + hit +
               "': hash order must never reach signatures or results — "
               "sort first, or add a nearby '// order-insensitive: <why>' "
               "comment"});
    }
  }
}

}  // namespace lint
}  // namespace cloudviews
