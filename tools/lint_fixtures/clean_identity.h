// Fixture: a fully covered identity class — direct references, coverage
// through same-class delegation (operator== -> Compare), an out-of-line
// hash body, reasoned sig-skips for intentional omissions, and a defaulted
// equality operator covering everything. Must produce zero violations.
#ifndef CLOUDVIEWS_TOOLS_LINT_FIXTURES_CLEAN_IDENTITY_H_
#define CLOUDVIEWS_TOOLS_LINT_FIXTURES_CLEAN_IDENTITY_H_

#include <memory>
#include <string>

namespace fixture {

class HashBuilder {
 public:
  void Add(const std::string& s) { (void)s; }
};

class CleanNode {
 public:
  void HashInto(HashBuilder* b) const;

  bool operator==(const CleanNode& o) const { return Compare(o) == 0; }

  std::shared_ptr<CleanNode> Clone() const {
    auto n = std::make_shared<CleanNode>();
    n->template_name_ = template_name_;
    n->stream_name_ = stream_name_;
    n->cached_display_ = cached_display_;
    return n;
  }

 private:
  int Compare(const CleanNode& o) const {
    if (template_name_ != o.template_name_) return 1;
    if (stream_name_ != o.stream_name_) return 1;
    return 0;
  }

  std::string template_name_;
  std::string stream_name_;
  // sig-skip(hash, equals): derived display cache, rebuilt on demand; it
  // never affects results
  std::string cached_display_;
};

inline void CleanNode::HashInto(HashBuilder* b) const {
  b->Add(template_name_);
  b->Add(stream_name_);
}

struct DefaultedPair {
  int lo = 0;
  int hi = 0;
  bool operator==(const DefaultedPair& o) const = default;
};

}  // namespace fixture

#endif  // CLOUDVIEWS_TOOLS_LINT_FIXTURES_CLEAN_IDENTITY_H_
