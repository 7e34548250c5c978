// Fixture: malformed sig-skips — an unknown group slug and a skip with no
// reason. Both are errors regardless of coverage.
#ifndef CLOUDVIEWS_TOOLS_LINT_FIXTURES_UNKNOWN_SIG_SKIP_H_
#define CLOUDVIEWS_TOOLS_LINT_FIXTURES_UNKNOWN_SIG_SKIP_H_

#include <string>

namespace fixture {

class HashBuilder;

class UnknownSkipNode {
 public:
  void HashInto(HashBuilder* b) const {
    (void)b;
    (void)covered_;
  }

 private:
  std::string covered_;
  std::string a_;  // sig-skip(hsah): typo'd group name
  std::string b_;  // sig-skip(hash)
};

}  // namespace fixture

#endif  // CLOUDVIEWS_TOOLS_LINT_FIXTURES_UNKNOWN_SIG_SKIP_H_
