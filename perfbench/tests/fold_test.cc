// Self-time fold over hand-built span trees: nested, overlapping and
// out-of-bounds children, and the profile-JSON round trip the wire
// workload relies on.
#include <gtest/gtest.h>

#include "fold.h"
#include "obs/export.h"
#include "obs/json.h"

namespace cloudviews {
namespace perfbench {
namespace {

obs::SpanRecord* AddChild(obs::SpanRecord* parent, const std::string& name,
                          double start, double end) {
  auto child = std::make_unique<obs::SpanRecord>();
  child->name = name;
  child->start_seconds = start;
  child->end_seconds = end;
  parent->children.push_back(std::move(child));
  return parent->children.back().get();
}

obs::SpanRecord Root(double start, double end) {
  obs::SpanRecord root;
  root.name = "root";
  root.start_seconds = start;
  root.end_seconds = end;
  return root;
}

/// Folds a hand-built tree: its root stands for the benchmark interval and
/// the root's children for the program's traces.
void FoldTree(const obs::SpanRecord& root, FoldResult* out) {
  std::vector<const obs::SpanRecord*> children;
  for (const auto& child : root.children) children.push_back(child.get());
  FoldSelfTimes(root.name, root.start_seconds, root.end_seconds, children,
                out);
}

double SumSelf(const FoldResult& r) {
  double sum = 0;
  for (const auto& [name, seconds] : r.self) sum += seconds;
  return sum;
}

TEST(FoldTest, LeafIsAllSelf) {
  obs::SpanRecord root = Root(1, 3);
  FoldResult r;
  FoldTree(root, &r);
  EXPECT_DOUBLE_EQ(r.self["root"], 2);
  EXPECT_DOUBLE_EQ(r.total["root"], 2);
  EXPECT_DOUBLE_EQ(r.root_seconds, 2);
}

TEST(FoldTest, NestedChildrenSubtractFromEachLevel) {
  // root [0,10] > job [1,9] > {optimize [2,5] > physical [3,4], execute
  // [5,8]}
  obs::SpanRecord root = Root(0, 10);
  obs::SpanRecord* job = AddChild(&root, "job", 1, 9);
  obs::SpanRecord* optimize = AddChild(job, "optimize", 2, 5);
  AddChild(optimize, "physical", 3, 4);
  AddChild(job, "execute", 5, 8);
  FoldResult r;
  FoldTree(root, &r);
  EXPECT_DOUBLE_EQ(r.self["root"], 2);
  EXPECT_DOUBLE_EQ(r.self["job"], 2);
  EXPECT_DOUBLE_EQ(r.self["optimize"], 2);
  EXPECT_DOUBLE_EQ(r.self["physical"], 1);
  EXPECT_DOUBLE_EQ(r.self["execute"], 3);
  EXPECT_DOUBLE_EQ(r.total["optimize"], 3);
  EXPECT_DOUBLE_EQ(SumSelf(r), 10);
}

TEST(FoldTest, OverlappingSiblingsCreditTheEarlierStart) {
  // a [1,6] and b [4,9] overlap on [4,6]: a keeps it, b is trimmed to
  // [6,9]; b's child [5,7] is clipped to [6,7].
  obs::SpanRecord root = Root(0, 10);
  AddChild(&root, "a", 1, 6);
  obs::SpanRecord* b = AddChild(&root, "b", 4, 9);
  AddChild(b, "b_child", 5, 7);
  FoldResult r;
  FoldTree(root, &r);
  EXPECT_DOUBLE_EQ(r.self["a"], 5);
  EXPECT_DOUBLE_EQ(r.total["b"], 3);
  EXPECT_DOUBLE_EQ(r.self["b"], 2);
  EXPECT_DOUBLE_EQ(r.self["b_child"], 1);
  EXPECT_DOUBLE_EQ(r.self["root"], 2);
  EXPECT_DOUBLE_EQ(SumSelf(r), 10);
}

TEST(FoldTest, ChildrenListedOutOfOrderAndFullyShadowed) {
  // Children arrive in any order; one wholly inside an earlier sibling
  // gets zero time, and one sticking out of its parent is clipped.
  obs::SpanRecord root = Root(0, 10);
  AddChild(&root, "late", 8, 12);
  AddChild(&root, "early", 0, 6);
  AddChild(&root, "shadowed", 2, 3);
  FoldResult r;
  FoldTree(root, &r);
  EXPECT_DOUBLE_EQ(r.self["early"], 6);
  EXPECT_DOUBLE_EQ(r.self["shadowed"], 0);
  EXPECT_DOUBLE_EQ(r.self["late"], 2);
  EXPECT_DOUBLE_EQ(r.self["root"], 2);
  EXPECT_DOUBLE_EQ(SumSelf(r), 10);
}

TEST(FoldTest, RepeatedNamesAccumulateAcrossTrees) {
  FoldResult r;
  for (int i = 0; i < 3; ++i) {
    obs::SpanRecord root = Root(i * 10.0, i * 10.0 + 4);
    AddChild(&root, "execute", i * 10.0 + 1, i * 10.0 + 2);
    FoldTree(root, &r);
  }
  EXPECT_DOUBLE_EQ(r.self["execute"], 3);
  EXPECT_DOUBLE_EQ(r.self["root"], 9);
  EXPECT_DOUBLE_EQ(r.root_seconds, 12);
}

TEST(FoldTest, ProfileJsonRoundTripsThroughTheExporter) {
  obs::SpanRecord root = Root(100.25, 100.75);
  root.name = "net.request";
  root.attributes = {{"template_id", "wire \"A\"\n"}, {"ticket", "7"}};
  obs::SpanRecord* job = AddChild(&root, "job", 100.3, 100.7);
  AddChild(job, "execute", 100.4, 100.6);
  obs::JsonWriter w;
  obs::SpanToJson(root, &w);

  auto parsed = ParseSpanJson(w.Take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::SpanRecord& back = **parsed;
  EXPECT_EQ(back.name, "net.request");
  EXPECT_DOUBLE_EQ(back.start_seconds, 100.25);
  EXPECT_EQ(back.attributes, root.attributes);
  ASSERT_EQ(back.children.size(), 1u);
  ASSERT_EQ(back.children[0]->children.size(), 1u);
  EXPECT_EQ(back.children[0]->children[0]->name, "execute");
  EXPECT_DOUBLE_EQ(back.children[0]->children[0]->end_seconds, 100.6);

  FoldResult r;
  FoldTree(back, &r);
  EXPECT_NEAR(r.self["execute"], 0.2, 1e-9);
  EXPECT_NEAR(SumSelf(r), 0.5, 1e-9);
}

TEST(FoldTest, MalformedProfileJsonIsAnError) {
  EXPECT_FALSE(ParseSpanJson("{\"name\": \"x\"").ok());
  EXPECT_FALSE(ParseSpanJson("[1]").ok());
  EXPECT_FALSE(ParseSpanJson("{\"name\": \"x\"} trailing").ok());
}

}  // namespace
}  // namespace perfbench
}  // namespace cloudviews
