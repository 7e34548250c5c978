#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "storage/storage_manager.h"

namespace cloudviews {
namespace {

Schema SimpleSchema() { return Schema({{"v", DataType::kInt64}}); }

Batch SimpleBatch(int n) {
  Batch b(SimpleSchema());
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(b.AppendRow({Value::Int64(i)}).ok());
  }
  return b;
}

TEST(ViewPathTest, EncodeParseRoundTrip) {
  Hash128 norm{0x1111, 0x2222}, precise{0x3333, 0x4444};
  std::string path = EncodeViewPath(norm, precise, 777);
  Hash128 n2, p2;
  uint64_t job = 0;
  ASSERT_TRUE(ParseViewPath(path, &n2, &p2, &job));
  EXPECT_EQ(n2, norm);
  EXPECT_EQ(p2, precise);
  EXPECT_EQ(job, 777u);
}

TEST(ViewPathTest, RejectsNonViewPaths) {
  Hash128 n, p;
  uint64_t job;
  EXPECT_FALSE(ParseViewPath("/data/foo.ss", &n, &p, &job));
  EXPECT_FALSE(ParseViewPath("/views/zz/bad", &n, &p, &job));
}

TEST(StorageTest, WriteOpenDelete) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("s1", "g1", SimpleSchema(),
                                              {SimpleBatch(10)}, clock.Now()))
                  .ok());
  ASSERT_TRUE(storage.StreamExists("s1"));
  auto handle = storage.OpenStream("s1");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ((*handle)->total_rows, 10);
  EXPECT_EQ((*handle)->guid, "g1");
  ASSERT_TRUE(storage.DeleteStream("s1").ok());
  EXPECT_FALSE(storage.StreamExists("s1"));
  EXPECT_TRUE(storage.OpenStream("s1").status().IsNotFound());
  EXPECT_TRUE(storage.DeleteStream("s1").IsNotFound());
}

TEST(StorageTest, EmptyNameRejected) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  EXPECT_TRUE(storage
                  .WriteStream(MakeStreamData("", "g", SimpleSchema(), {},
                                              clock.Now()))
                  .IsInvalidArgument());
}

TEST(StorageTest, ReplaceInstallsNewVersion) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("s", "g1", SimpleSchema(),
                                              {SimpleBatch(1)}, clock.Now()))
                  .ok());
  // An old reader holds the first version; a rewrite must not disturb it.
  auto old_handle = *storage.OpenStream("s");
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("s", "g2", SimpleSchema(),
                                              {SimpleBatch(5)}, clock.Now()))
                  .ok());
  EXPECT_EQ(old_handle->guid, "g1");
  EXPECT_EQ((*storage.OpenStream("s"))->guid, "g2");
  EXPECT_EQ((*storage.OpenStream("s"))->total_rows, 5);
}

TEST(StorageTest, PurgeExpiredHonorsClock) {
  SimulatedClock clock(1000);
  StorageManager storage(&clock);
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("keeps", "g", SimpleSchema(),
                                              {SimpleBatch(1)}, clock.Now(),
                                              /*expires_at=*/0))
                  .ok());
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("hourly", "g", SimpleSchema(),
                                              {SimpleBatch(1)}, clock.Now(),
                                              clock.Now() + kSecondsPerHour))
                  .ok());
  ASSERT_TRUE(storage
                  .WriteStream(MakeStreamData("weekly", "g", SimpleSchema(),
                                              {SimpleBatch(1)}, clock.Now(),
                                              clock.Now() + kSecondsPerWeek))
                  .ok());
  EXPECT_EQ(storage.PurgeExpired(), 0u);
  clock.AdvanceSeconds(kSecondsPerDay);
  EXPECT_EQ(storage.PurgeExpired(), 1u);  // hourly gone
  EXPECT_TRUE(storage.StreamExists("weekly"));
  clock.AdvanceSeconds(kSecondsPerWeek);
  EXPECT_EQ(storage.PurgeExpired(), 1u);  // weekly gone
  EXPECT_TRUE(storage.StreamExists("keeps"));
}

TEST(StorageTest, ListByPrefixAndTotals) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  for (const char* name : {"/views/a", "/views/b", "/data/c"}) {
    ASSERT_TRUE(storage
                    .WriteStream(MakeStreamData(name, "g", SimpleSchema(),
                                                {SimpleBatch(3)},
                                                clock.Now()))
                    .ok());
  }
  EXPECT_EQ(storage.ListStreams("/views/").size(), 2u);
  EXPECT_EQ(storage.ListStreams().size(), 3u);
  EXPECT_EQ(storage.NumStreams(), 3u);
  EXPECT_GT(storage.TotalBytes(), 0);
}

TEST(StorageTest, ConcurrentWritersAndReaders) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&storage, &clock, t] {
      for (int i = 0; i < 50; ++i) {
        std::string name = "s" + std::to_string(t) + "_" + std::to_string(i);
        ASSERT_TRUE(storage
                        .WriteStream(MakeStreamData(name, "g", SimpleSchema(),
                                                    {SimpleBatch(2)},
                                                    clock.Now()))
                        .ok());
        ASSERT_TRUE(storage.OpenStream(name).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(storage.NumStreams(), 200u);
}

/// The storage gauges and TotalBytes() are running totals; after every
/// kind of mutation they must equal a recount of what the store holds.
TEST(StorageTest, GaugesMatchARecountAfterEveryMutation) {
  SimulatedClock clock;
  StorageManager storage(&clock);
  obs::MetricsRegistry metrics;
  fault::FaultInjector fault;
  storage.SetFaultInjector(&fault);
  // name -> bytes of what the store should hold, maintained by the test.
  std::map<std::string, int64_t> expected;
  auto bytes_of = [](const std::vector<Batch>& batches) {
    int64_t bytes = 0;
    for (const auto& b : batches) bytes += b.ByteSize();
    return bytes;
  };
  auto write = [&](const std::string& name, std::vector<Batch> batches,
                   LogicalTime expires_at = 0) {
    expected[name] = bytes_of(batches);
    return storage.WriteStream(MakeStreamData(name, "g", SimpleSchema(),
                                              std::move(batches), clock.Now(),
                                              expires_at));
  };
  auto expect_recount = [&](const char* step) {
    SCOPED_TRACE(step);
    int64_t total = 0, view_bytes = 0, views = 0;
    std::vector<std::string> names;
    for (const auto& [name, bytes] : expected) {
      names.push_back(name);
      total += bytes;
      Hash128 normalized, precise;
      uint64_t producer = 0;
      if (ParseViewPath(name, &normalized, &precise, &producer)) {
        view_bytes += bytes;
        ++views;
      }
    }
    ASSERT_EQ(storage.ListStreams(), names);
    EXPECT_EQ(storage.TotalBytes(), total);
    EXPECT_DOUBLE_EQ(metrics.GetGauge("cv_storage_streams")->value(),
                     static_cast<double>(names.size()));
    EXPECT_DOUBLE_EQ(metrics.GetGauge("cv_storage_total_bytes")->value(),
                     static_cast<double>(total));
    EXPECT_DOUBLE_EQ(metrics.GetGauge("cv_storage_view_bytes")->value(),
                     static_cast<double>(view_bytes));
    EXPECT_DOUBLE_EQ(metrics.GetGauge("cv_storage_views")->value(),
                     static_cast<double>(views));
  };
  const std::string view_a = EncodeViewPath({1, 1}, {2, 2}, 7);
  const std::string view_b = EncodeViewPath({1, 1}, {3, 3}, 8);

  // A stream written before SetMetrics is counted when it is wired.
  ASSERT_TRUE(write("/data/early", {SimpleBatch(2)}).ok());
  storage.SetMetrics(&metrics);
  expect_recount("set metrics");

  ASSERT_TRUE(write("/data/a", {SimpleBatch(3)}).ok());
  ASSERT_TRUE(write(view_a, {SimpleBatch(5), SimpleBatch(1)}, 100).ok());
  expect_recount("writes");

  ASSERT_TRUE(write("/data/a", {SimpleBatch(9)}).ok());
  ASSERT_TRUE(write(view_a, {SimpleBatch(2)}, 100).ok());
  expect_recount("same-name replacements");

  // A torn view write leaves the first half of its batches behind.
  fault::FaultSpec torn;
  torn.trigger_every = 1;
  fault.Arm(fault::points::kStorageViewWriteTorn, torn);
  std::vector<Batch> four = {SimpleBatch(1), SimpleBatch(2), SimpleBatch(3),
                             SimpleBatch(4)};
  EXPECT_FALSE(write(view_b, four).ok());
  expected[view_b] = bytes_of({SimpleBatch(1), SimpleBatch(2)});
  expect_recount("torn write");
  EXPECT_FALSE(write(view_a, four, 100).ok());
  expected[view_a] = bytes_of({SimpleBatch(1), SimpleBatch(2)});
  expect_recount("torn replacement");
  fault.Disarm(fault::points::kStorageViewWriteTorn);

  ASSERT_TRUE(storage.DeleteStream("/data/a").ok());
  expected.erase("/data/a");
  ASSERT_TRUE(storage.DeleteStream(view_b).ok());
  expected.erase(view_b);
  expect_recount("deletes");
  EXPECT_TRUE(storage.DeleteStream("/data/missing").IsNotFound());
  expect_recount("missing-name delete");

  ASSERT_TRUE(write("/data/hourly", {SimpleBatch(4)}, 50).ok());
  expect_recount("expiring write");
  clock.AdvanceSeconds(101);
  EXPECT_EQ(storage.PurgeExpired(), 2u);  // view_a and /data/hourly
  expected.erase(view_a);
  expected.erase("/data/hourly");
  expect_recount("purge");
}

}  // namespace
}  // namespace cloudviews
