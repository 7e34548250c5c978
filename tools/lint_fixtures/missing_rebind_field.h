// Fixture: RebindInstance rebinds the stream name but drops the guid — a
// skeleton-tier cache hit would run with a stale instance guid.
#ifndef CLOUDVIEWS_TOOLS_LINT_FIXTURES_MISSING_REBIND_FIELD_H_
#define CLOUDVIEWS_TOOLS_LINT_FIXTURES_MISSING_REBIND_FIELD_H_

#include <string>
#include <utility>

namespace fixture {

class BadRebindNode {
 public:
  void RebindInstance(std::string stream_name, std::string guid) {
    stream_name_ = std::move(stream_name);
    (void)guid;  // guid_ silently keeps the template's value
  }

 private:
  std::string stream_name_;
  std::string guid_;
};

}  // namespace fixture

#endif  // CLOUDVIEWS_TOOLS_LINT_FIXTURES_MISSING_REBIND_FIELD_H_
