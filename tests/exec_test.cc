#include <gtest/gtest.h>

#include <set>

#include "exec/executor.h"
#include "exec/processor_registry.h"
#include "plan/plan_builder.h"
#include "signature/signature.h"

namespace cloudviews {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : storage_(&clock_) {}

  void SetUp() override {
    Schema sales({{"region", DataType::kString},
                  {"product", DataType::kInt64},
                  {"amount", DataType::kDouble},
                  {"qty", DataType::kInt64}});
    Batch b(sales);
    auto add = [&](const char* r, int64_t p, double a, int64_t q) {
      ASSERT_TRUE(b.AppendRow({Value::String(r), Value::Int64(p),
                               Value::Double(a), Value::Int64(q)})
                      .ok());
    };
    add("east", 1, 10.0, 1);
    add("west", 2, 20.0, 2);
    add("east", 1, 30.0, 3);
    add("north", 3, 40.0, 4);
    add("west", 1, 50.0, 5);
    ASSERT_TRUE(storage_
                    .WriteStream(MakeStreamData("sales", "g-sales", sales,
                                                {b}, clock_.Now()))
                    .ok());
    sales_schema_ = sales;

    Schema products({{"pid", DataType::kInt64},
                     {"category", DataType::kString}});
    Batch p(products);
    ASSERT_TRUE(p.AppendRow({Value::Int64(1), Value::String("toys")}).ok());
    ASSERT_TRUE(p.AppendRow({Value::Int64(2), Value::String("books")}).ok());
    ASSERT_TRUE(
        storage_
            .WriteStream(MakeStreamData("products", "g-prod", products, {p},
                                        clock_.Now()))
            .ok());
    products_schema_ = products;
  }

  PlanBuilder Sales() {
    return PlanBuilder::Extract("sales", "sales", "g-sales", sales_schema_);
  }
  PlanBuilder Products() {
    return PlanBuilder::Extract("products", "products", "g-prod",
                                products_schema_);
  }

  /// Binds, ids, and executes; expects success.
  JobRunStats Run(PlanNodePtr plan, ExecContext ctx = {}) {
    EXPECT_TRUE(plan->Bind().ok());
    AssignNodeIds(plan.get());
    ctx.storage = &storage_;
    Executor exec(ctx);
    auto result = exec.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  /// Runs a plan ending in Output and returns the written stream.
  StreamHandle RunToStream(PlanNodePtr plan, const std::string& out_name) {
    Run(std::move(plan));
    auto handle = storage_.OpenStream(out_name);
    EXPECT_TRUE(handle.ok());
    return *handle;
  }

  SimulatedClock clock_;
  StorageManager storage_;
  Schema sales_schema_;
  Schema products_schema_;
};

TEST_F(ExecTest, ExtractReadsAllRows) {
  auto stats = Run(Sales().Build());
  EXPECT_EQ(stats.output_rows, 5);
  EXPECT_GT(stats.output_bytes, 0);
}

TEST_F(ExecTest, ExtractMissingStreamFails) {
  auto plan = PlanBuilder::Extract("ghost", "ghost", "g", sales_schema_)
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  AssignNodeIds(plan.get());
  ExecContext ctx;
  ctx.storage = &storage_;
  Executor exec(ctx);
  EXPECT_TRUE(exec.Execute(plan).status().IsNotFound());
}

TEST_F(ExecTest, ExtractSchemaMismatchFails) {
  Schema wrong({{"region", DataType::kString}});
  auto plan = PlanBuilder::Extract("sales", "sales", "g", wrong).Build();
  ASSERT_TRUE(plan->Bind().ok());
  AssignNodeIds(plan.get());
  ExecContext ctx;
  ctx.storage = &storage_;
  Executor exec(ctx);
  EXPECT_TRUE(exec.Execute(plan).status().IsTypeError());
}

TEST_F(ExecTest, FilterSelectsMatchingRows) {
  auto stats = Run(Sales().Filter(Gt(Col("amount"), Lit(25.0))).Build());
  EXPECT_EQ(stats.output_rows, 3);
}

TEST_F(ExecTest, ProjectComputesExpressions) {
  auto handle = RunToStream(
      Sales()
          .Project({{Col("region"), "region"},
                    {Mul(Col("amount"), Lit(2.0)), "double_amount"}})
          .Output("proj_out")
          .Build(),
      "proj_out");
  Batch out = CombineBatches(handle->schema, handle->batches);
  ASSERT_EQ(out.num_rows(), 5u);
  EXPECT_DOUBLE_EQ(out.GetRow(0)[1].double_value(), 20.0);
}

TEST_F(ExecTest, HashJoinInner) {
  auto stats = Run(Sales()
                       .Join(Products(), JoinType::kInner,
                             {{"product", "pid"}})
                       .Build());
  EXPECT_EQ(stats.output_rows, 4);  // products 1 and 2 only
}

TEST_F(ExecTest, HashJoinLeftOuterPadsNulls) {
  auto handle = RunToStream(Sales()
                                .Join(Products(), JoinType::kLeftOuter,
                                      {{"product", "pid"}})
                                .Output("lo_out")
                                .Build(),
                            "lo_out");
  Batch out = CombineBatches(handle->schema, handle->batches);
  EXPECT_EQ(out.num_rows(), 5u);
  bool found_null = false;
  int cat_idx = out.schema().FieldIndex("category");
  ASSERT_GE(cat_idx, 0);
  for (size_t r = 0; r < out.num_rows(); ++r) {
    found_null |= out.column(static_cast<size_t>(cat_idx)).IsNull(r);
  }
  EXPECT_TRUE(found_null);  // product 3 has no match
}

TEST_F(ExecTest, MergeJoinMatchesHashJoin) {
  auto make = [&](JoinAlgorithm alg) {
    auto left = Sales().Sort({{"product", true}}).Build();
    auto right = Products().Sort({{"pid", true}}).Build();
    auto join = std::make_shared<JoinNode>(
        left, right, JoinType::kInner,
        std::vector<std::pair<std::string, std::string>>{
            {"product", "pid"}});
    join->set_algorithm(alg);
    return PlanBuilder::From(join)
        .Aggregate({}, {{AggFunc::kCount, nullptr, "n"},
                        {AggFunc::kSum, Col("amount"), "total"}})
        .Build();
  };
  auto h = RunToStream(PlanBuilder::From(make(JoinAlgorithm::kHash))
                           .Output("h_out")
                           .Build(),
                       "h_out");
  auto m = RunToStream(PlanBuilder::From(make(JoinAlgorithm::kMerge))
                           .Output("m_out")
                           .Build(),
                       "m_out");
  Batch hb = CombineBatches(h->schema, h->batches);
  Batch mb = CombineBatches(m->schema, m->batches);
  ASSERT_EQ(hb.num_rows(), 1u);
  ASSERT_EQ(mb.num_rows(), 1u);
  EXPECT_EQ(hb.GetRow(0)[0].int64_value(), mb.GetRow(0)[0].int64_value());
  EXPECT_DOUBLE_EQ(hb.GetRow(0)[1].double_value(),
                   mb.GetRow(0)[1].double_value());
}

TEST_F(ExecTest, JoinRejectsKeysOfDifferentTypes) {
  // Hash join hashes typed cells (1 and 1.0 differ) while merge join
  // compares numerically (1 == 1.0), so mixed-type keys are refused at
  // bind rather than answered differently by the two algorithms.
  Schema prices({{"price_key", DataType::kDouble}});
  auto mixed = Sales()
                   .Join(PlanBuilder::Extract("prices", "prices", "g-prices",
                                              prices),
                         JoinType::kInner, {{"product", "price_key"}})
                   .Build();
  Status bind = mixed->Bind();
  EXPECT_TRUE(bind.IsInvalidArgument()) << bind.ToString();

  // Int64 and date share storage and hashing, so they may be joined.
  Schema days({{"day", DataType::kDate}});
  auto dated = Sales()
                   .Join(PlanBuilder::Extract("days", "days", "g-days", days),
                         JoinType::kInner, {{"product", "day"}})
                   .Build();
  EXPECT_TRUE(dated->Bind().ok());
}

TEST_F(ExecTest, MergeJoinMatchesHashJoinOnNullKeys) {
  Schema ls({{"lk", DataType::kString}, {"lv", DataType::kInt64}});
  Schema rs({{"rk", DataType::kString}, {"rv", DataType::kInt64}});
  Batch lb(ls);
  Batch rb(rs);
  const char* const lkeys[] = {"b", nullptr, "a", "b", nullptr, "c", "a"};
  const char* const rkeys[] = {nullptr, "b", "a", "b", "d", nullptr, "a"};
  for (int64_t i = 0; i < 7; ++i) {
    auto key = [](const char* k) {
      return k == nullptr ? Value::Null(DataType::kString) : Value::String(k);
    };
    ASSERT_TRUE(lb.AppendRow({key(lkeys[i]), Value::Int64(i)}).ok());
    ASSERT_TRUE(rb.AppendRow({key(rkeys[i]), Value::Int64(10 + i)}).ok());
  }
  ASSERT_TRUE(storage_
                  .WriteStream(MakeStreamData("lnull", "g-l", ls, {lb},
                                              clock_.Now()))
                  .ok());
  ASSERT_TRUE(storage_
                  .WriteStream(MakeStreamData("rnull", "g-r", rs, {rb},
                                              clock_.Now()))
                  .ok());
  auto run = [&](JoinAlgorithm alg, const std::string& out_name) {
    auto left = PlanBuilder::Extract("lnull", "lnull", "g-l", ls)
                    .Sort({{"lk", true}})
                    .Build();
    auto right = PlanBuilder::Extract("rnull", "rnull", "g-r", rs)
                     .Sort({{"rk", true}})
                     .Build();
    auto join = std::make_shared<JoinNode>(
        left, right, JoinType::kInner,
        std::vector<std::pair<std::string, std::string>>{{"lk", "rk"}});
    join->set_algorithm(alg);
    auto handle =
        RunToStream(PlanBuilder::From(join).Output(out_name).Build(), out_name);
    Batch out = CombineBatches(handle->schema, handle->batches);
    std::vector<std::string> rows;
    for (size_t r = 0; r < out.num_rows(); ++r) {
      std::string row;
      for (const Value& v : out.GetRow(r)) row += v.ToString() + "|";
      rows.push_back(row);
    }
    return rows;
  };
  std::vector<std::string> hash = run(JoinAlgorithm::kHash, "hash_out");
  std::vector<std::string> merge = run(JoinAlgorithm::kMerge, "merge_out");
  // NULL keys pair with NULL keys under both algorithms: 2x2 NULL pairs,
  // 2x2 "a", 2x2 "b"; "c" and "d" find nothing.
  EXPECT_EQ(hash.size(), 12u);
  EXPECT_EQ(hash, merge);
}

TEST_F(ExecTest, HashAggregateGroups) {
  auto handle = RunToStream(
      Sales()
          .Aggregate({"region"}, {{AggFunc::kCount, nullptr, "n"},
                                  {AggFunc::kSum, Col("amount"), "total"}})
          .Sort({{"region", true}})
          .Output("agg_out")
          .Build(),
      "agg_out");
  Batch out = CombineBatches(handle->schema, handle->batches);
  ASSERT_EQ(out.num_rows(), 3u);
  // Sorted: east, north, west.
  EXPECT_EQ(out.GetRow(0)[0].string_value(), "east");
  EXPECT_EQ(out.GetRow(0)[1].int64_value(), 2);
  EXPECT_DOUBLE_EQ(out.GetRow(0)[2].double_value(), 40.0);
  EXPECT_EQ(out.GetRow(2)[0].string_value(), "west");
  EXPECT_DOUBLE_EQ(out.GetRow(2)[2].double_value(), 70.0);
}

TEST_F(ExecTest, StreamAggregateMatchesHashAggregate) {
  auto make = [&](AggAlgorithm alg) {
    auto sorted = Sales().Sort({{"region", true}}).Build();
    auto agg = std::make_shared<AggregateNode>(
        sorted, std::vector<std::string>{"region"},
        std::vector<AggregateSpec>{{AggFunc::kSum, Col("qty"), "q"}});
    agg->set_algorithm(alg);
    return PlanBuilder::From(agg).Sort({{"region", true}}).Build();
  };
  auto h = RunToStream(
      PlanBuilder::From(make(AggAlgorithm::kHash)).Output("ha").Build(),
      "ha");
  auto s = RunToStream(
      PlanBuilder::From(make(AggAlgorithm::kStream)).Output("sa").Build(),
      "sa");
  Batch hb = CombineBatches(h->schema, h->batches);
  Batch sb = CombineBatches(s->schema, s->batches);
  ASSERT_EQ(hb.num_rows(), sb.num_rows());
  for (size_t r = 0; r < hb.num_rows(); ++r) {
    EXPECT_EQ(hb.GetRow(r)[0].string_value(), sb.GetRow(r)[0].string_value());
    EXPECT_EQ(hb.GetRow(r)[1].int64_value(), sb.GetRow(r)[1].int64_value());
  }
}

TEST_F(ExecTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  auto handle = RunToStream(
      Sales()
          .Filter(Gt(Col("amount"), Lit(1e9)))  // nothing passes
          .Aggregate({}, {{AggFunc::kCount, nullptr, "n"},
                          {AggFunc::kMax, Col("amount"), "m"}})
          .Output("empty_agg")
          .Build(),
      "empty_agg");
  Batch out = CombineBatches(handle->schema, handle->batches);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.GetRow(0)[0].int64_value(), 0);
  EXPECT_TRUE(out.GetRow(0)[1].is_null());
}

TEST_F(ExecTest, GroupedAggregateOnEmptyInputYieldsNoRows) {
  auto stats = Run(Sales()
                       .Filter(Gt(Col("amount"), Lit(1e9)))
                       .Aggregate({"region"}, {{AggFunc::kCount, nullptr,
                                                "n"}})
                       .Build());
  EXPECT_EQ(stats.output_rows, 0);
}

TEST_F(ExecTest, SortOrdersRows) {
  auto handle = RunToStream(
      Sales().Sort({{"amount", false}}).Output("sorted").Build(), "sorted");
  Batch out = CombineBatches(handle->schema, handle->batches);
  int amount_idx = out.schema().FieldIndex("amount");
  double prev = 1e18;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    double v = out.GetRow(r)[static_cast<size_t>(amount_idx)].double_value();
    EXPECT_LE(v, prev);
    prev = v;
  }
}

TEST_F(ExecTest, ExchangePreservesMultiset) {
  auto handle = RunToStream(Sales()
                                .Exchange(Partitioning::Hash({"region"}, 4))
                                .Output("exch")
                                .Build(),
                            "exch");
  Batch out = CombineBatches(handle->schema, handle->batches);
  EXPECT_EQ(out.num_rows(), 5u);
  std::multiset<double> amounts;
  int idx = out.schema().FieldIndex("amount");
  for (size_t r = 0; r < out.num_rows(); ++r) {
    amounts.insert(out.GetRow(r)[static_cast<size_t>(idx)].double_value());
  }
  EXPECT_EQ(amounts, (std::multiset<double>{10, 20, 30, 40, 50}));
}

TEST_F(ExecTest, PartitionBatchHashIsDeterministicAndComplete) {
  auto handle = *storage_.OpenStream("sales");
  Batch data = CombineBatches(handle->schema, handle->batches);
  auto parts = PartitionBatch(data, Partitioning::Hash({"region"}, 3));
  ASSERT_TRUE(parts.ok());
  size_t total = 0;
  for (const auto& p : *parts) total += p.num_rows();
  EXPECT_EQ(total, 5u);
  // Same region always lands in the same partition.
  auto parts2 = PartitionBatch(data, Partitioning::Hash({"region"}, 3));
  for (size_t i = 0; i < parts->size(); ++i) {
    EXPECT_EQ((*parts)[i].num_rows(), (*parts2)[i].num_rows());
  }
}

TEST_F(ExecTest, UnionAllConcatenates) {
  auto stats =
      Run(Sales().UnionAll(Sales()).Build());
  EXPECT_EQ(stats.output_rows, 10);
}

TEST_F(ExecTest, TopLimitsRows) {
  EXPECT_EQ(Run(Sales().Top(3).Build()).output_rows, 3);
  EXPECT_EQ(Run(Sales().Top(100).Build()).output_rows, 5);
}

TEST_F(ExecTest, ProcessAppliesRegisteredUdo) {
  auto stats = Run(Sales()
                       .Process("identity", "userlib", "1.0", sales_schema_)
                       .Build());
  EXPECT_EQ(stats.output_rows, 5);
}

TEST_F(ExecTest, ProcessUnknownProcessorFails) {
  auto plan =
      Sales().Process("missing_udo", "lib", "1.0", sales_schema_).Build();
  ASSERT_TRUE(plan->Bind().ok());
  AssignNodeIds(plan.get());
  ExecContext ctx;
  ctx.storage = &storage_;
  Executor exec(ctx);
  EXPECT_TRUE(exec.Execute(plan).status().IsNotFound());
}

TEST_F(ExecTest, SpoolWritesViewAndPassesThrough) {
  auto base = Sales().Filter(Gt(Col("amount"), Lit(15.0))).Build();
  ASSERT_TRUE(base->Bind().ok());
  auto sigs = ComputeSignatures(*base);
  std::string path = EncodeViewPath(sigs.normalized, sigs.precise, 42);
  PhysicalProperties design{Partitioning::Hash({"region"}, 2),
                            {{{"amount", true}}}};
  auto plan = PlanBuilder::From(std::make_shared<SpoolNode>(
                  base, path, sigs.normalized, sigs.precise, design))
                  .Aggregate({}, {{AggFunc::kCount, nullptr, "n"}})
                  .Output("spool_job_out")
                  .Build();

  bool published = false;
  ExecContext ctx;
  ctx.view_expiry = 12345;
  ctx.on_view_materialized = [&](const SpoolNode& node,
                                 const StreamData& view) {
    published = true;
    EXPECT_EQ(node.view_path(), path);
    EXPECT_EQ(view.name, path);
  };
  Run(plan, ctx);
  EXPECT_TRUE(published);

  auto view = storage_.OpenStream(path);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->total_rows, 4);
  EXPECT_EQ((*view)->expires_at, 12345);
  EXPECT_EQ((*view)->batches.size(), 2u);  // two hash partitions
  // Each partition is sorted by amount per the design.
  for (const auto& p : (*view)->batches) {
    double prev = -1;
    int idx = p.schema().FieldIndex("amount");
    for (size_t r = 0; r < p.num_rows(); ++r) {
      double v = p.GetRow(r)[static_cast<size_t>(idx)].double_value();
      EXPECT_GE(v, prev);
      prev = v;
    }
  }

  // The enclosing job still sees all 4 rows (pass-through).
  auto out = storage_.OpenStream("spool_job_out");
  ASSERT_TRUE(out.ok());
  Batch ob = CombineBatches((*out)->schema, (*out)->batches);
  EXPECT_EQ(ob.GetRow(0)[0].int64_value(), 4);
}

TEST_F(ExecTest, ViewReadConsumesMaterializedView) {
  // Materialize manually, then read through a ViewReadNode.
  auto base = Sales().Filter(Gt(Col("amount"), Lit(15.0))).Build();
  ASSERT_TRUE(base->Bind().ok());
  auto sigs = ComputeSignatures(*base);
  std::string path = EncodeViewPath(sigs.normalized, sigs.precise, 1);
  auto spool_plan = std::make_shared<SpoolNode>(base, path, sigs.normalized,
                                                sigs.precise,
                                                PhysicalProperties{});
  Run(PlanBuilder::From(spool_plan).Build());

  auto view_read = std::make_shared<ViewReadNode>(
      path, sigs.normalized, sigs.precise, base->output_schema(),
      PhysicalProperties{}, 4, 100);
  auto stats = Run(PlanBuilder::From(view_read)
                       .Aggregate({"region"}, {{AggFunc::kCount, nullptr,
                                                "n"}})
                       .Build());
  EXPECT_EQ(stats.output_rows, 3);  // east, north, west survive the filter
}

TEST_F(ExecTest, StatsCoverEveryOperator) {
  auto plan = Sales()
                  .Filter(Gt(Col("qty"), Lit(int64_t{1})))
                  .Aggregate({"region"}, {{AggFunc::kCount, nullptr, "n"}})
                  .Output("stats_out")
                  .Build();
  ASSERT_TRUE(plan->Bind().ok());
  int n = AssignNodeIds(plan.get());
  ExecContext ctx;
  ctx.storage = &storage_;
  Executor exec(ctx);
  auto stats = *exec.Execute(plan);
  EXPECT_EQ(stats.operators.size(), static_cast<size_t>(n));
  // Inclusive time of the root covers children.
  const auto& root = stats.operators.at(0);
  for (const auto& [id, op] : stats.operators) {
    EXPECT_GE(root.inclusive_seconds, op.exclusive_seconds);
    EXPECT_GE(op.inclusive_seconds, op.exclusive_seconds);
  }
  EXPECT_GT(stats.cpu_seconds, 0);
  EXPECT_GE(stats.latency_seconds, root.inclusive_seconds);
}

TEST_F(ExecTest, ReduceAppliesProcessorPerGroup) {
  // first_of_group under REDUCE = dedup by key; input must arrive sorted.
  auto sorted = Sales().Sort({{"region", true}}).Build();
  auto reduce = std::make_shared<ReduceNode>(
      sorted, std::vector<std::string>{"region"}, "first_of_group",
      "dedup", "1.0", Schema());
  auto stats = Run(PlanBuilder::From(reduce).Build());
  EXPECT_EQ(stats.output_rows, 3);  // east, north, west
}

TEST_F(ExecTest, ReduceMatchesDistinctAggregate) {
  auto make_reduce = [&] {
    auto sorted = Sales().Sort({{"product", true}}).Build();
    auto reduce = std::make_shared<ReduceNode>(
        sorted, std::vector<std::string>{"product"}, "first_of_group",
        "dedup", "1.0", Schema());
    return Run(PlanBuilder::From(reduce).Build()).output_rows;
  };
  auto agg_rows = Run(Sales()
                          .Aggregate({"product"},
                                     {{AggFunc::kCount, nullptr, "n"}})
                          .Build())
                      .output_rows;
  EXPECT_EQ(make_reduce(), agg_rows);
}

TEST_F(ExecTest, OutputRecordsDeliveredLayout) {
  auto handle = RunToStream(Sales()
                                .Exchange(Partitioning::Hash({"region"}, 4))
                                .Sort({{"amount", true}})
                                .Output("laid_out")
                                .Build(),
                            "laid_out");
  EXPECT_EQ(handle->props.partitioning.scheme, PartitionScheme::kHash);
  EXPECT_TRUE(handle->props.sort_order.IsSorted());
}

TEST_F(ExecTest, CombineBatchesHandlesEmptyAndSingleRow) {
  Schema s({{"x", DataType::kInt64}});
  EXPECT_EQ(CombineBatches(s, {}).num_rows(), 0u);

  Batch empty(s);
  Batch one(s);
  ASSERT_TRUE(one.AppendRow({Value::Int64(7)}).ok());
  Batch combined = CombineBatches(s, {empty, one, empty});
  ASSERT_EQ(combined.num_rows(), 1u);
  EXPECT_EQ(combined.GetRow(0)[0].int64_value(), 7);
}

TEST_F(ExecTest, CombineBatchesPreservesNulls) {
  Schema s({{"x", DataType::kInt64}});
  Batch a(s), b(s);
  ASSERT_TRUE(a.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Null(DataType::kInt64)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(3)}).ok());
  Batch combined = CombineBatches(s, {a, b});
  ASSERT_EQ(combined.num_rows(), 3u);
  EXPECT_FALSE(combined.column(0).IsNull(0));
  EXPECT_TRUE(combined.column(0).IsNull(1));
  EXPECT_EQ(combined.GetRow(2)[0].int64_value(), 3);
}

TEST_F(ExecTest, SortBatchEmptyAndSingleRow) {
  Schema s({{"k", DataType::kInt64}});
  Batch empty(s);
  EXPECT_EQ(SortBatch(empty, {{"k", true}}).num_rows(), 0u);

  Batch one(s);
  ASSERT_TRUE(one.AppendRow({Value::Int64(5)}).ok());
  Batch sorted = SortBatch(one, {{"k", false}});
  ASSERT_EQ(sorted.num_rows(), 1u);
  EXPECT_EQ(sorted.GetRow(0)[0].int64_value(), 5);
}

TEST_F(ExecTest, SortBatchIsStableOnDuplicateKeys) {
  Schema s({{"k", DataType::kInt64}, {"seq", DataType::kInt64}});
  Batch in(s);
  int64_t keys[] = {1, 0, 1, 0, 1};
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(in.AppendRow({Value::Int64(keys[i]), Value::Int64(i)}).ok());
  }
  Batch sorted = SortBatch(in, {{"k", true}});
  // Equal keys keep their input order.
  int64_t expected_seq[] = {1, 3, 0, 2, 4};
  ASSERT_EQ(sorted.num_rows(), 5u);
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_EQ(sorted.GetRow(r)[1].int64_value(), expected_seq[r]) << r;
  }
}

TEST_F(ExecTest, PartitionBatchHandlesEmptyAndSingleRow) {
  Schema s({{"k", DataType::kString}});
  Batch empty(s);
  auto parts = PartitionBatch(empty, Partitioning::Hash({"k"}, 3));
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);
  for (const auto& p : *parts) EXPECT_EQ(p.num_rows(), 0u);

  Batch one(s);
  ASSERT_TRUE(one.AppendRow({Value::String("x")}).ok());
  auto one_parts = PartitionBatch(one, Partitioning::Hash({"k"}, 3));
  ASSERT_TRUE(one_parts.ok());
  size_t total = 0;
  for (const auto& p : *one_parts) total += p.num_rows();
  EXPECT_EQ(total, 1u);
}

TEST_F(ExecTest, UnboundPlanRejected) {
  auto plan = Sales().Build();
  ExecContext ctx;
  ctx.storage = &storage_;
  Executor exec(ctx);
  EXPECT_TRUE(exec.Execute(plan).status().IsInvalidArgument());
}

}  // namespace
}  // namespace cloudviews
