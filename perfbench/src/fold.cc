#include "fold.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace cloudviews {
namespace perfbench {

namespace {

std::vector<const obs::SpanRecord*> Children(const obs::SpanRecord& span) {
  std::vector<const obs::SpanRecord*> out;
  for (const auto& child : span.children) out.push_back(child.get());
  return out;
}

/// Folds the interval [start, end], already clipped to its parent.
void Fold(const std::string& name, double start, double end,
          std::vector<const obs::SpanRecord*> children, FoldResult* out) {
  std::stable_sort(children.begin(), children.end(),
                   [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
                     return a->start_seconds < b->start_seconds;
                   });
  double cursor = start;
  double covered = 0;
  for (const obs::SpanRecord* child : children) {
    const double child_start =
        std::min(std::max(child->start_seconds, cursor), end);
    const double child_end =
        std::max(child_start, std::min(child->end_seconds, end));
    Fold(child->name, child_start, child_end, Children(*child), out);
    covered += child_end - child_start;
    cursor = std::max(cursor, child_end);
  }
  out->self[name] += (end - start) - covered;
  out->total[name] += end - start;
}

/// Minimal reader for the JSON subset SpanToJson emits: objects, arrays,
/// strings with simple escapes, numbers, true/false/null.
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  Status ReadSpan(obs::SpanRecord* span) {
    if (!Eat('{')) return Error("expected '{'");
    if (Eat('}')) return Status::OK();
    do {
      std::string key;
      Status st = ReadString(&key);
      if (!st.ok()) return st;
      if (!Eat(':')) return Error("expected ':'");
      if (key == "name") {
        st = ReadString(&span->name);
      } else if (key == "start_seconds") {
        st = ReadNumber(&span->start_seconds);
      } else if (key == "end_seconds") {
        st = ReadNumber(&span->end_seconds);
      } else if (key == "attributes") {
        st = ReadAttributes(span);
      } else if (key == "children") {
        st = ReadChildren(span);
      } else {
        st = SkipValue();
      }
      if (!st.ok()) return st;
    } while (Eat(','));
    return Eat('}') ? Status::OK() : Error("expected '}'");
  }

  Status ExpectEnd() {
    SkipSpace();
    return pos_ == s_.size() ? Status::OK() : Error("trailing bytes");
  }

 private:
  Status ReadAttributes(obs::SpanRecord* span) {
    if (!Eat('{')) return Error("expected attributes object");
    if (Eat('}')) return Status::OK();
    do {
      std::pair<std::string, std::string> kv;
      Status st = ReadString(&kv.first);
      if (st.ok() && !Eat(':')) st = Error("expected ':'");
      if (st.ok()) st = ReadString(&kv.second);
      if (!st.ok()) return st;
      span->attributes.push_back(std::move(kv));
    } while (Eat(','));
    return Eat('}') ? Status::OK() : Error("expected '}'");
  }

  Status ReadChildren(obs::SpanRecord* span) {
    if (!Eat('[')) return Error("expected children array");
    if (Eat(']')) return Status::OK();
    do {
      auto child = std::make_unique<obs::SpanRecord>();
      Status st = ReadSpan(child.get());
      if (!st.ok()) return st;
      span->children.push_back(std::move(child));
    } while (Eat(','));
    return Eat(']') ? Status::OK() : Error("expected ']'");
  }

  Status ReadString(std::string* out) {
    if (!Eat('"')) return Error("expected string");
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Control characters only (the writer escapes nothing else).
            if (pos_ + 4 > s_.size()) return Error("short \\u escape");
            c = static_cast<char>(std::strtol(
                std::string(s_.substr(pos_, 4)).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          default: c = e; break;
        }
      }
      out->push_back(c);
    }
    return Eat('"') ? Status::OK() : Error("unterminated string");
  }

  Status ReadNumber(double* out) {
    SkipSpace();
    if (s_.substr(pos_, 4) == "null") {  // non-finite doubles
      pos_ += 4;
      *out = 0;
      return Status::OK();
    }
    size_t end = pos_;
    while (end < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[end]) !=
               std::string_view::npos) {
      ++end;
    }
    if (end == pos_) return Error("expected number");
    *out = std::strtod(std::string(s_.substr(pos_, end - pos_)).c_str(),
                       nullptr);
    pos_ = end;
    return Status::OK();
  }

  Status SkipValue() {
    SkipSpace();
    if (pos_ >= s_.size()) return Error("unexpected end");
    char c = s_[pos_];
    if (c == '"') {
      std::string ignored;
      return ReadString(&ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      if (Eat(close)) return Status::OK();
      do {
        if (close == '}') {
          std::string key;
          Status st = ReadString(&key);
          if (st.ok() && !Eat(':')) st = Error("expected ':'");
          if (!st.ok()) return st;
        }
        Status st = SkipValue();
        if (!st.ok()) return st;
      } while (Eat(','));
      return Eat(close) ? Status::OK() : Error("unbalanced container");
    }
    for (std::string_view word : {"true", "false", "null"}) {
      if (s_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        return Status::OK();
      }
    }
    double ignored = 0;
    return ReadNumber(&ignored);
  }

  void SkipSpace() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Error(const char* what) const {
    return Status(StatusCode::kParseError,
                  std::string("span json: ") + what + " at byte " +
                      std::to_string(pos_));
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

void FoldSelfTimes(const std::string& name, double start, double end,
                   std::vector<const obs::SpanRecord*> children,
                   FoldResult* out) {
  end = std::max(start, end);
  Fold(name, start, end, std::move(children), out);
  out->root_seconds += end - start;
}

Result<std::unique_ptr<obs::SpanRecord>> ParseSpanJson(std::string_view json) {
  auto root = std::make_unique<obs::SpanRecord>();
  Reader reader(json);
  Status st = reader.ReadSpan(root.get());
  if (st.ok()) st = reader.ExpectEnd();
  if (!st.ok()) return st;
  return root;
}

}  // namespace perfbench
}  // namespace cloudviews
