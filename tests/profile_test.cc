// Integration tests for the observability subsystem: job lifecycle span
// trees (deterministic under a fake clock), the metrics the stack emits end
// to end, and per-job profile rendering.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/cloudviews.h"
#include "core/explain.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "plan/plan_builder.h"
#include "tests/test_util.h"
#include "tpcds/tpcds.h"

namespace cloudviews {
namespace {

using testing_util::SharedAggPlan;
using testing_util::WriteClickStream;

double CounterValue(obs::MetricsRegistry* registry, const std::string& name,
                    obs::Labels labels = {}) {
  return static_cast<double>(
      registry->GetCounter(name, std::move(labels))->value());
}

// ---------------------------------------------------------------------------
// Span-tree shape over one TPC-DS job, with an injected fake clock so the
// trace is byte-deterministic.
// ---------------------------------------------------------------------------

class TpcdsProfileTest : public ::testing::Test {
 protected:
  TpcdsProfileTest() {
    CloudViewsConfig config;
    config.exec.worker_threads = 2;
    config.wall_clock = &wall_clock_;
    cv_ = std::make_unique<CloudViews>(config);
    tpcds::TpcdsOptions options;
    options.store_sales_rows = 500;
    options.web_sales_rows = 200;
    options.catalog_sales_rows = 200;
    options.customers = 50;
    tpcds::TpcdsGenerator gen(options);
    EXPECT_TRUE(gen.WriteTables(cv_->storage()).ok());
  }

  FakeMonotonicClock wall_clock_{5.0};
  std::unique_ptr<CloudViews> cv_;
};

TEST_F(TpcdsProfileTest, JobTraceHasTheDocumentedShape) {
  auto result = cv_->Submit(tpcds::MakeQueryJob(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);

  const obs::SpanRecord& job = *result->trace;
  EXPECT_EQ(job.name, "job");
  // The fake clock never advances, so every timestamp is the injected
  // start value — this is what makes profile output deterministic.
  EXPECT_DOUBLE_EQ(job.start_seconds, 5.0);
  EXPECT_DOUBLE_EQ(job.end_seconds, 5.0);

  ASSERT_EQ(job.children.size(), 4u);
  EXPECT_EQ(job.children[0]->name, "metadata_lookup");
  EXPECT_EQ(job.children[1]->name, "optimize");
  EXPECT_EQ(job.children[2]->name, "execute");
  EXPECT_EQ(job.children[3]->name, "record");

  const obs::SpanRecord& optimize = *job.children[1];
  ASSERT_EQ(optimize.children.size(), 4u);
  EXPECT_EQ(optimize.children[0]->name, "logical_rewrite");
  EXPECT_EQ(optimize.children[1]->name, "physical_plan");
  EXPECT_EQ(optimize.children[2]->name, "reuse");
  EXPECT_EQ(optimize.children[3]->name, "materialize");

  // Root attributes identify the job.
  bool saw_job_id = false, saw_template = false;
  for (const auto& [key, value] : job.attributes) {
    saw_job_id |= key == "job_id";
    saw_template |= key == "template_id";
  }
  EXPECT_TRUE(saw_job_id);
  EXPECT_TRUE(saw_template);

  // The execute span carries the run statistics.
  const obs::SpanRecord* execute = job.Find("execute");
  ASSERT_NE(execute, nullptr);
  bool saw_rows = false;
  for (const auto& [key, value] : execute->attributes) {
    saw_rows |= key == "output_rows";
  }
  EXPECT_TRUE(saw_rows);

  // The tracer retains the same finished trace.
  EXPECT_EQ(cv_->tracer()->LatestTrace().get(), result->trace.get());
}

TEST_F(TpcdsProfileTest, RegistryReflectsTheWorkload) {
  obs::MetricsRegistry* m = cv_->metrics();
  constexpr int kJobs = 3;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(cv_->Submit(tpcds::MakeQueryJob(1 + i)).ok());
  }
  EXPECT_EQ(CounterValue(m, "cv_jobs_submitted_total"), kJobs);
  EXPECT_EQ(CounterValue(m, "cv_jobs_succeeded_total"), kJobs);
  EXPECT_EQ(CounterValue(m, "cv_jobs_failed_total"), 0);
  EXPECT_DOUBLE_EQ(m->GetGauge("cv_jobs_active")->value(), 0.0);
  EXPECT_GE(CounterValue(m, "cv_metadata_lookups_total"), kJobs);
  EXPECT_GT(CounterValue(m, "cv_exec_rows_total"), 0);
  EXPECT_EQ(m->GetHistogram("cv_job_latency_seconds")->count(),
            static_cast<uint64_t>(kJobs));
  for (const char* stage :
       {"metadata_lookup", "optimize", "execute", "record"}) {
    EXPECT_EQ(m->GetHistogram("cv_job_stage_seconds", {{"stage", stage}})
                  ->count(),
              static_cast<uint64_t>(kJobs))
        << stage;
  }
  // worker_threads=2 gives a one-worker shared pool named "exec".
  EXPECT_DOUBLE_EQ(
      m->GetGauge("cv_threadpool_threads", {{"pool", "exec"}})->value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      m->GetGauge("cv_threadpool_busy_workers", {{"pool", "exec"}})->value(),
      0.0);
  EXPECT_GT(
      m->GetCounter("cv_threadpool_tasks_total", {{"pool", "exec"}})->value(),
      0u);

  // The whole registry renders in both exposition formats.
  std::string prom = obs::RenderPrometheus(*m);
  EXPECT_NE(prom.find("# TYPE cv_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("cv_job_stage_seconds_bucket{stage=\"execute\",le="),
            std::string::npos);
  std::string json = obs::RenderMetricsJson(*m);
  EXPECT_NE(json.find("\"cv_threadpool_tasks_total\""), std::string::npos);
}

TEST_F(TpcdsProfileTest, ExplainAnalyzeAndJsonProfileRender) {
  auto result = cv_->Submit(tpcds::MakeQueryJob(2));
  ASSERT_TRUE(result.ok());

  std::string text = ExplainAnalyze(*result);
  EXPECT_NE(text.find("EXPLAIN ANALYZE job"), std::string::npos) << text;
  EXPECT_NE(text.find("lifecycle:"), std::string::npos) << text;
  EXPECT_NE(text.find("optimize"), std::string::npos) << text;
  EXPECT_NE(text.find("plan:"), std::string::npos) << text;
  EXPECT_NE(text.find("actual:"), std::string::npos) << text;

  std::string json = JobProfileJson(*result);
  EXPECT_NE(json.find("\"job_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":{"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\":{"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_seconds\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The reuse feedback loop shows up in the registry: materializations and
// reuses land in the cv_rewrite_* counters.
// ---------------------------------------------------------------------------

TEST(ReuseMetricsTest, RewriteDecisionsReachTheRegistry) {
  CloudViewsConfig config;
  config.analyzer.selection.top_k = 1;
  config.analyzer.selection.min_frequency = 2;
  CloudViews cv(config);
  WriteClickStream(cv.storage(), "clicks_2018-01-01", 1500, 1, "2018-01-01");

  auto job = [&](const std::string& id, PlanNodePtr plan) {
    JobDefinition def;
    def.template_id = id;
    def.vc = "vc";
    def.user = "u-" + id;
    def.logical_plan = std::move(plan);
    return def;
  };
  auto plan_a = [&] {
    return PlanBuilder::From(SharedAggPlan("2018-01-01"))
        .Sort({{"n", false}})
        .Output("A")
        .Build();
  };
  auto plan_b = [&] {
    return PlanBuilder::From(SharedAggPlan("2018-01-01"))
        .Filter(Gt(Col("n"), Lit(int64_t{0})))
        .Output("B")
        .Build();
  };
  // Day 1: plain runs feed the repository; then analyze.
  ASSERT_TRUE(cv.Submit(job("jobA", plan_a()), false).ok());
  ASSERT_TRUE(cv.Submit(job("jobB", plan_b()), false).ok());
  cv.RunAnalyzerAndLoad();

  // Day 2: first job materializes the shared aggregate, second reuses it.
  auto first = cv.Submit(job("jobA", plan_a()));
  ASSERT_TRUE(first.ok());
  auto second = cv.Submit(job("jobB", plan_b()));
  ASSERT_TRUE(second.ok());
  ASSERT_GE(first->views_materialized, 1);
  ASSERT_GE(second->views_reused, 1);

  obs::MetricsRegistry* m = cv.metrics();
  EXPECT_GE(CounterValue(m, "cv_rewrite_views_materialized_total"), 1);
  EXPECT_GE(CounterValue(m, "cv_rewrite_views_reused_total"), 1);
  EXPECT_GE(CounterValue(m, "cv_metadata_views_registered_total"), 1);
  EXPECT_GE(m->GetGauge("cv_metadata_registered_views")->value(), 1.0);
  EXPECT_GE(m->GetGauge("cv_storage_views")->value(), 1.0);
  EXPECT_GT(m->GetGauge("cv_storage_view_bytes")->value(), 0.0);
  EXPECT_GE(m->GetHistogram("cv_metadata_lock_wait_seconds")->count(), 1u);
}

}  // namespace
}  // namespace cloudviews
