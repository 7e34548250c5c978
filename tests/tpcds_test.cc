#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analyzer/analyzer.h"
#include "core/cloudviews.h"
#include "net/outcome.h"
#include "signature/signature.h"
#include "tpcds/tpcds.h"

namespace cloudviews {
namespace {

using tpcds::kNumQueries;
using tpcds::TableStream;
using tpcds::TpcdsGenerator;
using tpcds::TpcdsOptions;

TpcdsOptions SmallOptions() {
  TpcdsOptions options;
  options.store_sales_rows = 2000;
  options.web_sales_rows = 800;
  options.catalog_sales_rows = 1000;
  options.customers = 200;
  return options;
}

TEST(TpcdsGeneratorTest, WritesAllTablesWithExpectedCardinalities) {
  CloudViews cv;
  TpcdsGenerator gen(SmallOptions());
  ASSERT_TRUE(gen.WriteTables(cv.storage()).ok());
  auto expect_rows = [&](const char* table, int64_t rows) {
    auto handle = cv.storage()->OpenStream(TableStream(table));
    ASSERT_TRUE(handle.ok()) << table;
    EXPECT_EQ((*handle)->total_rows, rows) << table;
  };
  expect_rows("date_dim", 730);
  expect_rows("item", 200);
  expect_rows("customer", 200);
  expect_rows("store", 12);
  expect_rows("promotion", 30);
  expect_rows("store_sales", 2000);
  expect_rows("web_sales", 800);
  expect_rows("catalog_sales", 1000);
}

TEST(TpcdsGeneratorTest, DeterministicAcrossRuns) {
  CloudViews cv1, cv2;
  TpcdsGenerator gen(SmallOptions());
  ASSERT_TRUE(gen.WriteTables(cv1.storage()).ok());
  ASSERT_TRUE(gen.WriteTables(cv2.storage()).ok());
  auto a = *cv1.storage()->OpenStream(TableStream("store_sales"));
  auto b = *cv2.storage()->OpenStream(TableStream("store_sales"));
  ASSERT_EQ(a->total_rows, b->total_rows);
  Batch ba = CombineBatches(a->schema, a->batches);
  Batch bb = CombineBatches(b->schema, b->batches);
  for (size_t r = 0; r < 50; ++r) {
    EXPECT_EQ(ba.GetRow(r)[1].int64_value(), bb.GetRow(r)[1].int64_value());
  }
}

TEST(TpcdsQueriesTest, AllQueriesBuildAndBind) {
  for (int q = 1; q <= kNumQueries; ++q) {
    auto plan = tpcds::BuildQuery(q);
    ASSERT_NE(plan, nullptr) << "q" << q;
    Status st = plan->Bind();
    ASSERT_TRUE(st.ok()) << "q" << q << ": " << st.ToString();
  }
}

TEST(TpcdsQueriesTest, QueriesAreDeterministic) {
  for (int q : {1, 17, 42, 99}) {
    auto a = tpcds::BuildQuery(q);
    auto b = tpcds::BuildQuery(q);
    ASSERT_TRUE(a->Bind().ok());
    ASSERT_TRUE(b->Bind().ok());
    EXPECT_EQ(a->SubtreeHash(SignatureMode::kPrecise),
              b->SubtreeHash(SignatureMode::kPrecise));
  }
}

TEST(TpcdsQueriesTest, QueriesShareSubexpressions) {
  // Count distinct year-sliced channel bases: far fewer than 99 queries.
  std::set<std::string> distinct_base;
  std::unordered_map<Hash128, int, Hash128Hasher> prefix_freq;
  for (int q = 1; q <= kNumQueries; ++q) {
    auto plan = tpcds::BuildQuery(q);
    ASSERT_TRUE(plan->Bind().ok());
    for (const auto& entry : EnumerateSubgraphs(plan)) {
      if (entry.node->kind() == OpKind::kJoin) {
        ++prefix_freq[entry.sigs.normalized];
      }
    }
  }
  int shared = 0, max_freq = 0;
  // order-insensitive: a count and a max do not depend on visit order
  for (const auto& [sig, freq] : prefix_freq) {
    if (freq >= 3) ++shared;
    max_freq = std::max(max_freq, freq);
  }
  EXPECT_GE(shared, 6);     // several heavily shared join prefixes
  EXPECT_GE(max_freq, 10);  // the hottest base appears in many queries
}

TEST(TpcdsQueriesTest, FullBenchmarkExecutes) {
  CloudViews cv;
  TpcdsGenerator gen(SmallOptions());
  ASSERT_TRUE(gen.WriteTables(cv.storage()).ok());
  for (int q = 1; q <= kNumQueries; ++q) {
    auto result = cv.Submit(tpcds::MakeQueryJob(q), false);
    ASSERT_TRUE(result.ok()) << "q" << q << ": "
                             << result.status().ToString();
    EXPECT_TRUE(cv.storage()->StreamExists(
        "tpcds_q" + std::to_string(q) + "_out"))
        << q;
  }
  EXPECT_EQ(cv.repository()->NumJobs(), 99u);
}

// Pins every query's output, row order included, across commits: the
// in-build identity gates compare CloudViews on against off, so only a
// committed fingerprint shows that an execution kernel left the answers
// (and their order) unchanged. Generator defaults, CloudViews off, one
// worker.
std::string FingerprintGoldenPath() {
  return std::string(CV_TEST_GOLDEN_DIR) + "/tpcds99_fingerprints.txt";
}

TEST(TpcdsQueriesTest, OutputsMatchGoldenFingerprints) {
  CloudViewsConfig config;
  config.exec.worker_threads = 1;
  CloudViews cv(config);
  ASSERT_TRUE(TpcdsGenerator(TpcdsOptions()).WriteTables(cv.storage()).ok());
  std::string actual;
  for (int q = 1; q <= kNumQueries; ++q) {
    auto result = cv.Submit(tpcds::MakeQueryJob(q), false);
    ASSERT_TRUE(result.ok()) << "q" << q << ": "
                             << result.status().ToString();
    auto handle =
        cv.storage()->OpenStream("tpcds_q" + std::to_string(q) + "_out");
    ASSERT_TRUE(handle.ok()) << "q" << q;
    actual += "q" + std::to_string(q) + " " +
              net::FingerprintStream(**handle).ToHex() + "\n";
  }

  if (std::getenv("CV_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(FingerprintGoldenPath(), std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to update " << FingerprintGoldenPath();
    return;
  }
  std::ifstream in(FingerprintGoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << FingerprintGoldenPath()
      << "; run with CV_UPDATE_GOLDEN=1 to (re)generate";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "a TPC-DS query output changed; rerun with CV_UPDATE_GOLDEN=1 only "
         "if the new answers are intended";
}

TEST(TpcdsQueriesTest, CloudViewsLifecycleImprovesReuse) {
  CloudViews cv = [] {
    CloudViewsConfig config;
    config.analyzer.selection.top_k = 10;
    config.analyzer.selection.min_frequency = 3;
    return CloudViews(config);
  }();
  TpcdsGenerator gen(SmallOptions());
  ASSERT_TRUE(gen.WriteTables(cv.storage()).ok());
  for (int q = 1; q <= kNumQueries; ++q) {
    ASSERT_TRUE(cv.Submit(tpcds::MakeQueryJob(q), false).ok());
  }
  auto analysis = cv.RunAnalyzerAndLoad();
  EXPECT_EQ(analysis.annotations.size(), 10u);

  int reused = 0, built = 0;
  for (int q = 1; q <= kNumQueries; ++q) {
    auto r = cv.Submit(tpcds::MakeQueryJob(q));
    ASSERT_TRUE(r.ok()) << "q" << q;
    reused += r->views_reused;
    built += r->views_materialized;
  }
  EXPECT_GT(built, 0);
  // A large share of the 99 queries hit at least one of the ten views.
  EXPECT_GT(reused, 30);
}

}  // namespace
}  // namespace cloudviews
