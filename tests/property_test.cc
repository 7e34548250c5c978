// Property-based tests (parameterized sweeps over plan generators and
// engine configurations) for the system's core invariants:
//  - logical rewrites never change query results
//  - CloudViews reuse never changes query results (correctness goal, Sec 4)
//  - partitioning preserves the row multiset for every scheme
//  - signatures are deterministic and normalization is sound
#include <gtest/gtest.h>

#include "core/cloudviews.h"
#include "exec/executor.h"
#include "tests/test_util.h"
#include "tpcds/tpcds.h"
#include "workload/synthetic.h"

namespace cloudviews {
namespace {

/// Canonical string rendering of a batch with rows sorted, for
/// order-insensitive result comparison.
std::string CanonicalRows(const Batch& batch) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      row += batch.column(c).GetValue(r).ToString();
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (auto& r : rows) {
    out += r;
    out += "\n";
  }
  return out;
}

std::string OutputOf(CloudViews* cv, const std::string& stream) {
  auto handle = cv->storage()->OpenStream(stream);
  EXPECT_TRUE(handle.ok()) << stream;
  if (!handle.ok()) return "";
  return CanonicalRows(CombineBatches((*handle)->schema, (*handle)->batches));
}

// --- Rewrite equivalence over all 99 TPC-DS queries ---------------------------

class TpcdsRewriteEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TpcdsRewriteEquivalence, LogicalRewritesPreserveResults) {
  int q = GetParam();
  tpcds::TpcdsOptions options;
  options.store_sales_rows = 1500;
  options.web_sales_rows = 600;
  options.catalog_sales_rows = 700;
  options.customers = 150;

  auto run = [&](bool rewrites) {
    CloudViewsConfig config;
    config.optimizer.enable_logical_rewrites = rewrites;
    CloudViews cv(config);
    tpcds::TpcdsGenerator gen(options);
    EXPECT_TRUE(gen.WriteTables(cv.storage()).ok());
    auto r = cv.Submit(tpcds::MakeQueryJob(q), false);
    EXPECT_TRUE(r.ok()) << "q" << q << ": " << r.status().ToString();
    return OutputOf(&cv, "tpcds_q" + std::to_string(q) + "_out");
  };

  std::string with = run(true);
  std::string without = run(false);
  // Some queries legitimately produce zero rows (aggressive HAVING-style
  // tails); equivalence of empty results still counts.
  EXPECT_EQ(with, without) << "q" << q;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpcdsRewriteEquivalence,
                         ::testing::Range(1, tpcds::kNumQueries + 1));

// --- Reuse equivalence over synthetic recurring templates ----------------------

class ReuseEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ReuseEquivalence, ViewReuseNeverChangesResults) {
  int seed = GetParam();
  ClusterProfile profile;
  profile.name = "prop";
  profile.num_templates = 12;
  profile.num_shared_fragments = 3;
  profile.p_share = 1.0;
  profile.isolated_vc_fraction = 0;
  profile.rows_per_input = 250;
  profile.seed = static_cast<uint64_t>(seed);
  SyntheticWorkloadGenerator gen(profile);

  CloudViewsConfig config;
  config.analyzer.selection.top_k = 3;
  config.analyzer.selection.min_frequency = 2;
  config.optimizer.max_materialized_views_per_job = 2;
  CloudViews cv(config);

  gen.WriteInputs(cv.storage(), "2018-01-01");
  for (const auto& def : gen.Instance("2018-01-01")) {
    ASSERT_TRUE(cv.Submit(def, false).ok()) << def.template_id;
  }
  cv.RunAnalyzerAndLoad();

  // Day 2: baseline pass first (recording outputs), then the CloudViews
  // pass over the same inputs; every job's output must be identical.
  gen.WriteInputs(cv.storage(), "2018-01-02");
  auto day2 = gen.Instance("2018-01-02");
  std::vector<std::string> baseline;
  for (const auto& def : day2) {
    ASSERT_TRUE(cv.Submit(def, false).ok());
    auto* output = static_cast<OutputNode*>(def.logical_plan.get());
    baseline.push_back(OutputOf(&cv, output->stream_name()));
  }
  int reused = 0;
  for (size_t i = 0; i < day2.size(); ++i) {
    auto r = cv.Submit(day2[i], true);
    ASSERT_TRUE(r.ok()) << day2[i].template_id;
    reused += r->views_reused;
    auto* output = static_cast<OutputNode*>(day2[i].logical_plan.get());
    EXPECT_EQ(OutputOf(&cv, output->stream_name()), baseline[i])
        << day2[i].template_id;
  }
  EXPECT_GT(reused, 0);  // the property run must actually exercise reuse
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseEquivalence, ::testing::Range(1, 9));

// --- Partitioning invariants -----------------------------------------------------

struct PartitionCase {
  PartitionScheme scheme;
  int count;
};

class PartitionProperty : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionProperty, PreservesRowMultiset) {
  PartitionCase param = GetParam();
  Schema schema({{"k", DataType::kInt64}, {"s", DataType::kString}});
  Rng rng(99);
  Batch data(schema);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        data.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(40))),
                        Value::String(rng.Identifier(3))})
            .ok());
  }
  Partitioning partitioning;
  partitioning.scheme = param.scheme;
  partitioning.partition_count = param.count;
  if (param.scheme == PartitionScheme::kHash) {
    partitioning.columns = {"k"};
  }
  auto parts = PartitionBatch(data, partitioning);
  ASSERT_TRUE(parts.ok());
  if (param.scheme == PartitionScheme::kHash) {
    EXPECT_EQ(parts->size(), static_cast<size_t>(std::max(param.count, 1)));
  }
  Batch recombined = CombineBatches(schema, *parts);
  EXPECT_EQ(CanonicalRows(recombined), CanonicalRows(data));

  // Hash partitions must agree on keys: the same key never lands in two
  // partitions.
  if (param.scheme == PartitionScheme::kHash) {
    std::map<int64_t, size_t> owner;
    for (size_t p = 0; p < parts->size(); ++p) {
      const Batch& part = (*parts)[p];
      for (size_t r = 0; r < part.num_rows(); ++r) {
        int64_t k = part.column(0).GetValue(r).int64_value();
        auto [it, inserted] = owner.emplace(k, p);
        EXPECT_EQ(it->second, p) << "key " << k << " split across partitions";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PartitionProperty,
    ::testing::Values(PartitionCase{PartitionScheme::kSingleton, 1},
                      PartitionCase{PartitionScheme::kHash, 1},
                      PartitionCase{PartitionScheme::kHash, 4},
                      PartitionCase{PartitionScheme::kHash, 16}));

// --- Sort invariants --------------------------------------------------------------

class SortProperty : public ::testing::TestWithParam<int> {};

TEST_P(SortProperty, SortedOutputIsOrderedPermutation) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kString},
                 {"c", DataType::kDouble}});
  Batch data(schema);
  size_t n = 50 + rng.Uniform(300);
  for (size_t i = 0; i < n; ++i) {
    // Sprinkle nulls: they must sort first, consistently.
    std::vector<Value> row{Value::Int64(static_cast<int64_t>(rng.Uniform(9))),
                           Value::String(rng.Identifier(2)),
                           Value::Double(rng.NextDouble())};
    if (rng.Bernoulli(0.05)) row[0] = Value::Null(DataType::kInt64);
    ASSERT_TRUE(data.AppendRow(row).ok());
  }
  std::vector<SortKey> keys{{"a", true}, {"b", false}, {"c", true}};
  Batch sorted = SortBatch(data, keys);
  ASSERT_EQ(sorted.num_rows(), data.num_rows());
  EXPECT_EQ(CanonicalRows(sorted), CanonicalRows(data));  // permutation
  for (size_t r = 1; r < sorted.num_rows(); ++r) {
    // Lexicographic comparison under the key directions.
    int cmp_a = sorted.column(0).GetValue(r - 1).Compare(
        sorted.column(0).GetValue(r));
    ASSERT_LE(cmp_a, 0);
    if (cmp_a != 0) continue;
    int cmp_b = sorted.column(1).GetValue(r - 1).Compare(
        sorted.column(1).GetValue(r));
    ASSERT_GE(cmp_b, 0);  // b is descending
    if (cmp_b != 0) continue;
    ASSERT_LE(sorted.column(2).GetValue(r - 1).Compare(
                  sorted.column(2).GetValue(r)),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortProperty, ::testing::Range(1, 6));

// --- Signature determinism over the synthetic generator ---------------------------

class SignatureProperty : public ::testing::TestWithParam<int> {};

TEST_P(SignatureProperty, TemplatesNormalizeAcrossInstancesAndProcesses) {
  ClusterProfile profile;
  profile.num_templates = 15;
  profile.seed = static_cast<uint64_t>(GetParam());
  SyntheticWorkloadGenerator gen(profile);
  auto a = gen.Instance("2018-03-01");
  auto b = gen.Instance("2018-03-02");
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].logical_plan->Bind().ok());
    ASSERT_TRUE(b[i].logical_plan->Bind().ok());
    EXPECT_EQ(a[i].logical_plan->SubtreeHash(SignatureMode::kNormalized),
              b[i].logical_plan->SubtreeHash(SignatureMode::kNormalized));
    EXPECT_NE(a[i].logical_plan->SubtreeHash(SignatureMode::kPrecise),
              b[i].logical_plan->SubtreeHash(SignatureMode::kPrecise));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureProperty, ::testing::Range(1, 6));

}  // namespace
}  // namespace cloudviews
