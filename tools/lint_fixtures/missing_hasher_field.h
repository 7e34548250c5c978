// Fixture: ShareKey's hashing lives in the external ShareKeyHasher functor
// (std::unordered_map key idiom), but operator() folds in only `normalized`
// — two keys differing in `mode` collide, so concurrent submissions that
// must NOT share an execution would be batched together. repo_lint must
// flag `mode` under the hasher-coverage rule; `tag` carries a reasoned
// skip annotation and must stay silent, and `normalized` is covered.
#ifndef CLOUDVIEWS_TOOLS_LINT_FIXTURES_MISSING_HASHER_FIELD_H_
#define CLOUDVIEWS_TOOLS_LINT_FIXTURES_MISSING_HASHER_FIELD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace fixture {

struct ShareKey {
  uint64_t normalized = 0;
  int mode = 0;
  // sig-skip(hash, equals): display label only, never compared for identity
  std::string tag;

  bool operator==(const ShareKey& other) const {
    return normalized == other.normalized && mode == other.mode;
  }
};

struct ShareKeyHasher {
  size_t operator()(const ShareKey& key) const {
    return static_cast<size_t>(key.normalized * 0x9e3779b97f4a7c15ULL);
  }
};

}  // namespace fixture

#endif  // CLOUDVIEWS_TOOLS_LINT_FIXTURES_MISSING_HASHER_FIELD_H_
