// Fixture: `guid_` is omitted from HashInto, so two nodes differing only
// in guid collide to one signature. repo_lint must flag it.
#ifndef CLOUDVIEWS_TOOLS_LINT_FIXTURES_MISSING_HASH_FIELD_H_
#define CLOUDVIEWS_TOOLS_LINT_FIXTURES_MISSING_HASH_FIELD_H_

#include <string>

namespace fixture {

class HashBuilder;

class BadHashNode {
 public:
  void HashInto(HashBuilder* b) const;

 private:
  std::string stream_name_;
  std::string guid_;
};

inline void BadHashNode::HashInto(HashBuilder* b) const {
  (void)b;
  (void)stream_name_;  // guid_ is never touched
}

}  // namespace fixture

#endif  // CLOUDVIEWS_TOOLS_LINT_FIXTURES_MISSING_HASH_FIELD_H_
