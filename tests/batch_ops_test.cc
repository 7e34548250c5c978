// Equivalence tests for the typed key kernels in exec/batch_ops and
// types/batch: each kernel is checked against the per-row Value path it
// replaces, over seeded random batches of all five types with NULL-heavy
// columns, -0.0 and 0.0, empty strings and strings past the small-string
// buffer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/batch_ops.h"
#include "exec/executor.h"
#include "plan/plan_builder.h"
#include "storage/storage_manager.h"

namespace cloudviews {
namespace {

Schema AllTypesSchema() {
  return Schema({{"b", DataType::kBool},
                 {"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"t", DataType::kDate}});
}

enum class Nulls { kNone, kSome, kAll };

/// A cell drawn from a small domain, so that keys repeat and compare equal.
Value RandomCell(Rng* rng, DataType type) {
  static const double kDoubles[] = {0.0, -0.0, 1.5, -2.25, 1e300, 3.0};
  static const char* const kStrings[] = {
      "", "a", "b", "a string longer than fifteen bytes",
      "another string well past the small-string buffer"};
  switch (type) {
    case DataType::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case DataType::kInt64:
      return Value::Int64(rng->UniformRange(-3, 3));
    case DataType::kDouble:
      return Value::Double(kDoubles[rng->Uniform(6)]);
    case DataType::kString:
      return Value::String(kStrings[rng->Uniform(5)]);
    case DataType::kDate:
      return Value::Date(rng->UniformRange(0, 4));
  }
  return Value();
}

/// Random batch whose columns each get their own NULL pattern: none, a
/// heavy share, or all.
Batch RandomBatch(Rng* rng, size_t rows) {
  Schema schema = AllTypesSchema();
  Batch batch(schema);
  std::vector<Nulls> nulls;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    nulls.push_back(static_cast<Nulls>(rng->Uniform(3)));
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      DataType type = schema.field(c).type;
      bool null = nulls[c] == Nulls::kAll ||
                  (nulls[c] == Nulls::kSome && rng->Bernoulli(0.4));
      batch.column(c).AppendValue(null ? Value::Null(type)
                                       : RandomCell(rng, type));
    }
  }
  return batch;
}

std::vector<int> RandomKeyColumns(Rng* rng) {
  std::vector<int> cols;
  size_t n = 1 + rng->Uniform(3);
  for (size_t k = 0; k < n; ++k) {
    cols.push_back(static_cast<int>(rng->Uniform(5)));
  }
  return cols;
}

Hash128 ReferenceKey(const Batch& batch, size_t row,
                     const std::vector<int>& cols) {
  HashBuilder hb;
  for (int c : cols) {
    batch.column(static_cast<size_t>(c)).GetValue(row).HashInto(&hb);
  }
  return hb.Finish();
}

/// Same rows, NULL flags, payloads (NULL slots included, doubles by bits)
/// and byte size, which also counts the validity vector.
void ExpectSameBatch(const Batch& a, const Batch& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  EXPECT_EQ(a.ByteSize(), b.ByteSize());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(ca.IsNull(r), cb.IsNull(r)) << "col " << c << " row " << r;
    }
    switch (ca.type()) {
      case DataType::kBool:
        EXPECT_EQ(ca.bool_data(), cb.bool_data()) << "col " << c;
        break;
      case DataType::kInt64:
      case DataType::kDate:
        EXPECT_EQ(ca.int64_data(), cb.int64_data()) << "col " << c;
        break;
      case DataType::kDouble:
        if (!ca.double_data().empty()) {
          EXPECT_EQ(0, std::memcmp(ca.double_data().data(),
                                   cb.double_data().data(),
                                   ca.double_data().size() * sizeof(double)))
              << "col " << c;
        }
        break;
      case DataType::kString:
        EXPECT_EQ(ca.string_data(), cb.string_data()) << "col " << c;
        break;
    }
  }
}

int Sign(int v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }

// --- HashRowKeys --------------------------------------------------------------

TEST(HashRowKeysTest, MatchesValueHashIntoOnRandomBatches) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Batch batch = RandomBatch(&rng, rng.Uniform(60));
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<int> cols = RandomKeyColumns(&rng);
      std::vector<Hash128> keys;
      HashRowKeys(batch, cols, &keys);
      ASSERT_EQ(keys.size(), batch.num_rows());
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        ASSERT_EQ(keys[r], ReferenceKey(batch, r, cols))
            << "seed " << seed << " row " << r;
      }
    }
  }
}

TEST(HashRowKeysTest, NullsNegativeZeroAndLongStrings) {
  Batch batch(AllTypesSchema());
  ASSERT_TRUE(batch
                  .AppendRow({Value::Null(DataType::kBool), Value::Int64(7),
                              Value::Double(-0.0), Value::String(""),
                              Value::Null(DataType::kDate)})
                  .ok());
  ASSERT_TRUE(batch
                  .AppendRow({Value::Null(DataType::kBool), Value::Int64(7),
                              Value::Double(0.0),
                              Value::String("a string longer than fifteen"),
                              Value::Null(DataType::kDate)})
                  .ok());
  std::vector<Hash128> keys;
  HashRowKeys(batch, {0, 1, 2, 4}, &keys);  // all-NULL bool and date columns
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], keys[1]);  // -0.0 and 0.0 hash alike
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(keys[r], ReferenceKey(batch, r, {0, 1, 2, 4}));
  }
  HashRowKeys(batch, {3}, &keys);
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_EQ(keys[1], ReferenceKey(batch, 1, {3}));

  Batch empty(AllTypesSchema());
  HashRowKeys(empty, {0, 3}, &keys);
  EXPECT_TRUE(keys.empty());
}

// --- AppendGather ---------------------------------------------------------------

TEST(AppendGatherTest, MatchesPerRowAppendFrom) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Batch src = RandomBatch(&rng, 1 + rng.Uniform(40));
    // The destination may start empty, or hold rows with or without a
    // validity vector of its own.
    Batch dst = RandomBatch(&rng, rng.Uniform(3) == 0 ? 0 : rng.Uniform(10));
    std::vector<uint32_t> rows(rng.Uniform(2 * src.num_rows() + 1));
    for (auto& r : rows) r = static_cast<uint32_t>(rng.Uniform(src.num_rows()));

    Batch expected = dst;
    for (uint32_t r : rows) expected.AppendRowFrom(src, r);
    dst.AppendGather(src, rows.data(), rows.size());
    ExpectSameBatch(dst, expected);
  }
}

TEST(AppendGatherTest, EmptyIndexListAppendsNothing) {
  Rng rng(7);
  Batch src = RandomBatch(&rng, 10);
  Batch dst = RandomBatch(&rng, 4);
  Batch before = dst;
  dst.AppendGather(src, nullptr, 0);
  ExpectSameBatch(dst, before);
}

TEST(AppendGatherTest, NullRowsCreateValidityOnlyWhenGathered) {
  Column src(DataType::kString);
  src.AppendString("x");
  src.AppendNull();
  src.AppendString("a string longer than fifteen bytes");

  Column valid_only(DataType::kString);
  const uint32_t valid_rows[] = {0, 2, 0};
  valid_only.AppendGather(src, valid_rows, 3);
  EXPECT_FALSE(valid_only.HasNulls());
  EXPECT_EQ(valid_only.ByteSize(), 1 + 8 + 34 + 8 + 1 + 8);  // no validity

  // NULL rows landing in a column that has no validity vector yet.
  Column dst(DataType::kString);
  dst.AppendString("keep");
  const uint32_t rows[] = {1, 0, 1};
  dst.AppendGather(src, rows, 3);
  ASSERT_EQ(dst.size(), 4u);
  EXPECT_FALSE(dst.IsNull(0));
  EXPECT_TRUE(dst.IsNull(1));
  EXPECT_FALSE(dst.IsNull(2));
  EXPECT_TRUE(dst.IsNull(3));
  EXPECT_EQ(dst.string_data()[1], "");  // default payload, as AppendNull
  EXPECT_EQ(dst.string_data()[2], "x");
}

// --- Typed compare --------------------------------------------------------------

TEST(CompareKernelTest, MatchesValueCompare) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Batch a = RandomBatch(&rng, 1 + rng.Uniform(30));
    Batch b = RandomBatch(&rng, 1 + rng.Uniform(30));
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<int> cols = RandomKeyColumns(&rng);
      ResolvedSortKeys keys;
      keys.cols = cols;
      for (size_t k = 0; k < cols.size(); ++k) {
        keys.ascending.push_back(rng.Bernoulli(0.5));
      }
      size_t ra = rng.Uniform(a.num_rows());
      size_t rb = rng.Uniform(b.num_rows());
      int plain = 0;
      int sorted = 0;
      for (size_t k = 0; k < cols.size(); ++k) {
        size_t c = static_cast<size_t>(cols[k]);
        int cmp = Sign(a.column(c).GetValue(ra).Compare(
            b.column(c).GetValue(rb)));
        if (plain == 0) plain = cmp;
        if (sorted == 0) sorted = keys.ascending[k] ? cmp : -cmp;
      }
      ASSERT_EQ(Sign(CompareRowsOnColumns(a, ra, cols, b, rb, cols)), plain)
          << "seed " << seed;
      ASSERT_EQ(Sign(CompareRowsSorted(a, ra, b, rb, keys)), sorted)
          << "seed " << seed;
    }
  }
}

TEST(CompareKernelTest, Int64AndDateColumnsCompareAsIntegers) {
  Schema schema({{"i", DataType::kInt64}, {"t", DataType::kDate}});
  Batch batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value::Int64(3), Value::Date(3)}).ok());
  ASSERT_TRUE(batch.AppendRow({Value::Int64(4), Value::Date(2)}).ok());
  EXPECT_EQ(CompareRowsOnColumns(batch, 0, {0}, batch, 0, {1}), 0);
  EXPECT_GT(CompareRowsOnColumns(batch, 1, {0}, batch, 1, {1}), 0);
}

// --- Exchange vs PartitionBatch ----------------------------------------------

class ExchangeEquivalenceTest : public ::testing::Test {
 protected:
  ExchangeEquivalenceTest() : storage_(&clock_) {}

  void SetUp() override {
    Rng rng(11);
    // Several stored batches, so morsels straddle batch boundaries.
    std::vector<Batch> batches;
    for (size_t rows : {120u, 1u, 0u, 200u}) {
      batches.push_back(RandomBatch(&rng, rows));
    }
    data_ = CombineBatches(AllTypesSchema(), batches);
    ASSERT_TRUE(storage_
                    .WriteStream(MakeStreamData("rows", "g-rows",
                                                AllTypesSchema(), batches,
                                                clock_.Now()))
                    .ok());
  }

  Batch RunExchange(const Partitioning& p, int workers, int morsel_rows) {
    PlanNodePtr plan =
        PlanBuilder::Extract("rows", "rows", "g-rows", AllTypesSchema())
            .Exchange(p)
            .Output("exchanged")
            .Build();
    EXPECT_TRUE(plan->Bind().ok());
    AssignNodeIds(plan.get());
    ThreadPool pool(4);
    ExecContext ctx;
    ctx.storage = &storage_;
    ctx.pool = &pool;
    ctx.options.worker_threads = workers;
    ctx.options.morsel_rows = morsel_rows;
    Executor exec(ctx);
    auto result = exec.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    auto handle = storage_.OpenStream("exchanged");
    EXPECT_TRUE(handle.ok());
    return CombineBatches((*handle)->schema, (*handle)->batches);
  }

  SimulatedClock clock_;
  StorageManager storage_;
  Batch data_;
};

TEST_F(ExchangeEquivalenceTest, MatchesPartitionBatchThenCombine) {
  const std::vector<Partitioning> schemes = {
      Partitioning::Hash({"s"}, 16),
      Partitioning::Hash({"b", "d"}, 3),
      Partitioning::Hash({"t", "i", "s"}, 1),
      Partitioning::Singleton(),
  };
  for (const Partitioning& p : schemes) {
    auto parts = PartitionBatch(data_, p);
    ASSERT_TRUE(parts.ok());
    Batch expected = CombineBatches(data_.schema(), *parts);
    for (int workers : {1, 4}) {
      for (int morsel_rows : {1, 7, 4096}) {
        SCOPED_TRACE(p.ToString() + " workers=" + std::to_string(workers) +
                     " morsel_rows=" + std::to_string(morsel_rows));
        ExpectSameBatch(RunExchange(p, workers, morsel_rows), expected);
      }
    }
  }
}

// --- Exchanges absorbed by hash join and hash aggregate -----------------------
//
// The executor skips a hash Exchange keyed exactly on its consumer's hash
// keys, and the consumer reproduces the exchanged order.
// The reference runs the same consumer over the input passed through
// PartitionBatch + CombineBatches (what ExchangeOperator emits, per the
// test above) and stored as its own stream, so no Exchange is left to
// absorb. Outputs must match byte for byte, rows in the same order.

/// Advances one second on every reading: every operator that runs reports a
/// positive exclusive time, and a skipped Exchange exactly 0.
class TickingClock final : public MonotonicClock {
 public:
  double NowSeconds() override {
    return static_cast<double>(ticks_.fetch_add(1) + 1);
  }

 private:
  std::atomic<int64_t> ticks_{0};
};

class ExchangeAbsorptionTest : public ::testing::Test {
 protected:
  ExchangeAbsorptionTest() : storage_(&clock_) {}

  void SetUp() override {
    Rng rng(23);
    left_ = Store("left", {"k", "ks", "v", "s"}, {90, 1, 0, 140}, &rng);
    right_ = Store("right", {"rk", "rks", "w", "rs"}, {40, 0, 35}, &rng);
  }

  /// Key-heavy rows: duplicate and NULL-heavy int64 and string keys, an
  /// order-sensitive double (1e16 + 1 - 1e16 depends on the order) and a
  /// string payload, across several stored batches.
  Batch Store(const std::string& name, const std::vector<std::string>& cols,
              const std::vector<size_t>& batch_rows, Rng* rng) {
    static const double kDoubles[] = {1e16, 1.0, -1e16, 0.1, 3.3, -0.0};
    static const char* const kStrings[] = {
        "", "a", "b", "a string longer than fifteen bytes"};
    Schema schema({{cols[0], DataType::kInt64},
                   {cols[1], DataType::kString},
                   {cols[2], DataType::kDouble},
                   {cols[3], DataType::kString}});
    std::vector<Batch> batches;
    for (size_t rows : batch_rows) {
      Batch b(schema);
      for (size_t r = 0; r < rows; ++r) {
        b.column(0).AppendValue(rng->Bernoulli(0.3)
                                    ? Value::Null(DataType::kInt64)
                                    : Value::Int64(rng->UniformRange(-3, 3)));
        b.column(1).AppendValue(rng->Bernoulli(0.3)
                                    ? Value::Null(DataType::kString)
                                    : Value::String(kStrings[rng->Uniform(4)]));
        b.column(2).AppendValue(rng->Bernoulli(0.1)
                                    ? Value::Null(DataType::kDouble)
                                    : Value::Double(kDoubles[rng->Uniform(6)]));
        b.column(3).AppendValue(rng->Bernoulli(0.2)
                                    ? Value::Null(DataType::kString)
                                    : Value::String(kStrings[rng->Uniform(4)]));
      }
      batches.push_back(std::move(b));
    }
    EXPECT_TRUE(storage_
                    .WriteStream(MakeStreamData(name, "g-" + name, schema,
                                                batches, clock_.Now()))
                    .ok());
    return CombineBatches(schema, batches);
  }

  static PlanNodePtr Scan(const std::string& name, const Schema& schema) {
    return PlanBuilder::Extract(name, name, "g-" + name, schema).Build();
  }

  static PlanNodePtr Exchanged(const std::string& name, const Batch& data,
                               const Partitioning& p) {
    return std::make_shared<ExchangeNode>(Scan(name, data.schema()), p);
  }

  /// The reference input: `data` as the Exchange would emit it, stored as a
  /// stream of its own.
  PlanNodePtr PreExchanged(const Batch& data, const Partitioning& p) {
    auto parts = PartitionBatch(data, p);
    EXPECT_TRUE(parts.ok());
    std::string name = "pre" + std::to_string(streams_++);
    EXPECT_TRUE(storage_
                    .WriteStream(MakeStreamData(
                        name, "g-" + name, data.schema(),
                        {CombineBatches(data.schema(), *parts)},
                        clock_.Now()))
                    .ok());
    return Scan(name, data.schema());
  }

  struct RunResult {
    Batch out;
    PlanRuntimeStats stats;
  };

  RunResult Execute(const PlanNodePtr& root, int workers, int morsel_rows) {
    std::string name = "out" + std::to_string(streams_++);
    PlanNodePtr plan = std::make_shared<OutputNode>(root, name);
    EXPECT_TRUE(plan->Bind().ok());
    AssignNodeIds(plan.get());
    TickingClock clock;
    ExecContext ctx;
    ctx.storage = &storage_;
    ctx.clock = &clock;
    ctx.pool = &pool_;
    ctx.options.worker_threads = workers;
    ctx.options.morsel_rows = morsel_rows;
    Executor exec(ctx);
    auto result = exec.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return {};
    auto handle = storage_.OpenStream(name);
    EXPECT_TRUE(handle.ok());
    if (!handle.ok()) return {};
    // One stats row per distinct plan node, skipped Exchanges included.
    std::set<const PlanNode*> nodes;
    CollectNodes(plan.get(), &nodes);
    EXPECT_EQ(result->operators.size(), nodes.size());
    return {CombineBatches((*handle)->schema, (*handle)->batches),
            result->operators};
  }

  static void CollectNodes(const PlanNode* node,
                           std::set<const PlanNode*>* out) {
    if (!out->insert(node).second) return;
    for (const auto& c : node->children()) CollectNodes(c.get(), out);
  }

  /// Runs `fused` at every worker count and morsel size against `reference`
  /// and checks each Exchange in `fused`: those in `absorbed` did no work
  /// and report their input's rows and bytes; all others ran.
  void Check(const PlanNodePtr& fused, const PlanNodePtr& reference,
             const std::set<const PlanNode*>& absorbed) {
    RunResult expected = Execute(reference, 1, 4096);
    std::set<const PlanNode*> nodes;
    CollectNodes(fused.get(), &nodes);
    for (int workers : {1, 4}) {
      for (int morsel_rows : {1, 7, 4096}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " morsel_rows=" + std::to_string(morsel_rows));
        RunResult got = Execute(fused, workers, morsel_rows);
        ExpectSameBatch(got.out, expected.out);
        for (const PlanNode* node : nodes) {
          if (node->kind() != OpKind::kExchange) continue;
          const OperatorRuntimeStats& ex = got.stats.at(node->id());
          const OperatorRuntimeStats& in =
              got.stats.at(node->children()[0]->id());
          EXPECT_EQ(ex.rows, in.rows);
          if (absorbed.count(node) == 0) {
            EXPECT_GT(ex.exclusive_seconds, 0) << node->Label();
            continue;
          }
          EXPECT_EQ(ex.exclusive_seconds, 0) << node->Label();
          EXPECT_EQ(ex.cpu_seconds, 0) << node->Label();
          EXPECT_EQ(ex.bytes, in.bytes) << node->Label();
          EXPECT_GE(ex.inclusive_seconds, in.inclusive_seconds);
        }
      }
    }
  }

  static std::vector<AggregateSpec> Aggregates() {
    return {{AggFunc::kSum, Col("v"), "sum_v"},
            {AggFunc::kAvg, Col("v"), "avg_v"},
            {AggFunc::kMin, Col("s"), "min_s"},
            {AggFunc::kMax, Col("s"), "max_s"},
            {AggFunc::kCount, nullptr, "n"}};
  }

  SimulatedClock clock_;
  StorageManager storage_;
  ThreadPool pool_{4};
  Batch left_;
  Batch right_;
  int streams_ = 0;
};

TEST_F(ExchangeAbsorptionTest, HashJoinMatchesExchangedInput) {
  using Keys = std::vector<std::pair<std::string, std::string>>;
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
    for (const Keys& keys :
         {Keys{{"k", "rk"}}, Keys{{"k", "rk"}, {"ks", "rks"}}}) {
      std::vector<std::string> lkeys, rkeys;
      for (const auto& [l, r] : keys) {
        lkeys.push_back(l);
        rkeys.push_back(r);
      }
      for (int parts : {1, 3, 16}) {
        SCOPED_TRACE(
            std::string(type == JoinType::kInner ? "INNER" : "LEFT") +
            " keys=" + std::to_string(keys.size()) +
            " parts=" + std::to_string(parts));
        Partitioning lp = Partitioning::Hash(lkeys, parts);
        Partitioning rp = Partitioning::Hash(rkeys, parts);
        PlanNodePtr lex = Exchanged("left", left_, lp);
        PlanNodePtr rex = Exchanged("right", right_, rp);
        Check(std::make_shared<JoinNode>(lex, rex, type, keys),
              std::make_shared<JoinNode>(PreExchanged(left_, lp),
                                         PreExchanged(right_, rp), type,
                                         keys),
              {lex.get(), rex.get()});
      }
    }
  }
}

TEST_F(ExchangeAbsorptionTest, HashAggregateMatchesExchangedInput) {
  using Keys = std::vector<std::string>;
  for (const Keys& keys : {Keys{"k"}, Keys{"k", "ks"}, Keys{"s"}}) {
    for (int parts : {1, 3, 16}) {
      SCOPED_TRACE("keys=" + std::to_string(keys.size()) +
                   " parts=" + std::to_string(parts));
      Partitioning p = Partitioning::Hash(keys, parts);
      PlanNodePtr ex = Exchanged("left", left_, p);
      Check(std::make_shared<AggregateNode>(ex, keys, Aggregates()),
            std::make_shared<AggregateNode>(PreExchanged(left_, p), keys,
                                            Aggregates()),
            {ex.get()});
    }
  }
}

TEST_F(ExchangeAbsorptionTest, OtherExchangesStillRun) {
  const std::vector<std::string> k = {"k"};
  const std::vector<std::string> k_ks = {"k", "ks"};
  const Partitioning swapped = Partitioning::Hash({"ks", "k"}, 3);
  const Partitioning by_k = Partitioning::Hash(k, 3);
  const Partitioning by_rk = Partitioning::Hash({"rk"}, 3);
  {
    SCOPED_TRACE("aggregate over keys in a different order");
    PlanNodePtr ex = Exchanged("left", left_, swapped);
    Check(std::make_shared<AggregateNode>(ex, k_ks, Aggregates()),
          std::make_shared<AggregateNode>(PreExchanged(left_, swapped), k_ks,
                                          Aggregates()),
          {});
  }
  {
    SCOPED_TRACE("join probe side keyed in a different order");
    const std::vector<std::pair<std::string, std::string>> keys = {
        {"k", "rk"}, {"ks", "rks"}};
    Partitioning rp = Partitioning::Hash({"rk", "rks"}, 3);
    PlanNodePtr lex = Exchanged("left", left_, swapped);
    PlanNodePtr rex = Exchanged("right", right_, rp);
    Check(std::make_shared<JoinNode>(lex, rex, JoinType::kLeftOuter, keys),
          std::make_shared<JoinNode>(PreExchanged(left_, swapped),
                                     PreExchanged(right_, rp),
                                     JoinType::kLeftOuter, keys),
          {rex.get()});
  }
  {
    SCOPED_TRACE("singleton");
    PlanNodePtr ex = Exchanged("left", left_, Partitioning::Singleton());
    Check(std::make_shared<AggregateNode>(ex, k, Aggregates()),
          std::make_shared<AggregateNode>(
              PreExchanged(left_, Partitioning::Singleton()), k,
              Aggregates()),
          {});
  }
  {
    SCOPED_TRACE("merge join");
    auto make = [](PlanNodePtr l, PlanNodePtr r) {
      auto join = std::make_shared<JoinNode>(
          std::move(l), std::move(r), JoinType::kInner,
          std::vector<std::pair<std::string, std::string>>{{"k", "rk"}});
      join->set_algorithm(JoinAlgorithm::kMerge);
      return join;
    };
    Check(make(Exchanged("left", left_, by_k),
               Exchanged("right", right_, by_rk)),
          make(PreExchanged(left_, by_k), PreExchanged(right_, by_rk)), {});
  }
  {
    SCOPED_TRACE("stream aggregate");
    auto make = [&](PlanNodePtr in) {
      auto agg = std::make_shared<AggregateNode>(std::move(in), k,
                                                 Aggregates());
      agg->set_algorithm(AggAlgorithm::kStream);
      return agg;
    };
    Check(make(Exchanged("left", left_, by_k)),
          make(PreExchanged(left_, by_k)), {});
  }
}

}  // namespace
}  // namespace cloudviews
