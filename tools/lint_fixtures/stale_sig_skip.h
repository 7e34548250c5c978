// Fixture: three stale sig-skips — one on a member the hash function DOES
// reference, one naming a group the class never implements, and one
// dangling comment attached to no member at all.
#ifndef CLOUDVIEWS_TOOLS_LINT_FIXTURES_STALE_SIG_SKIP_H_
#define CLOUDVIEWS_TOOLS_LINT_FIXTURES_STALE_SIG_SKIP_H_

#include <string>

namespace fixture {

class HashBuilder;

class StaleSkipNode {
 public:
  void HashInto(HashBuilder* b) const {
    (void)b;
    (void)name_;
    (void)cost_;
  }

 private:
  std::string name_;  // sig-skip(hash): stale — HashInto references name_
  // sig-skip(clone): stale — the class implements no Clone
  double cost_ = 0.0;
};

// sig-skip(hash): dangling — no member declaration follows this comment

}  // namespace fixture

#endif  // CLOUDVIEWS_TOOLS_LINT_FIXTURES_STALE_SIG_SKIP_H_
