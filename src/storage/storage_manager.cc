#include "storage/storage_manager.h"

#include <utility>

#include "common/string_util.h"

namespace cloudviews {

std::string EncodeViewPath(const Hash128& normalized, const Hash128& precise,
                           uint64_t producer_job_id) {
  return StrFormat("/views/%s/%s_%llu.ss", normalized.ToHex().c_str(),
                   precise.ToHex().c_str(),
                   static_cast<unsigned long long>(producer_job_id));
}

bool ParseViewPath(const std::string& path, Hash128* normalized,
                   Hash128* precise, uint64_t* producer_job_id) {
  if (!StartsWith(path, "/views/")) return false;
  auto parts = Split(path.substr(7), '/');
  if (parts.size() != 2) return false;
  if (!Hash128::FromHex(parts[0], normalized)) return false;
  auto file = parts[1];
  auto us = file.find('_');
  auto dot = file.rfind(".ss");
  if (us == std::string::npos || dot == std::string::npos || dot < us) {
    return false;
  }
  if (!Hash128::FromHex(std::string_view(file).substr(0, us), precise)) {
    return false;
  }
  char* end = nullptr;
  std::string id_str = file.substr(us + 1, dot - us - 1);
  *producer_job_id = std::strtoull(id_str.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !id_str.empty();
}

namespace {

bool IsViewPath(const std::string& name) {
  Hash128 normalized, precise;
  uint64_t producer = 0;
  return ParseViewPath(name, &normalized, &precise, &producer);
}

}  // namespace

void StorageManager::SetMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  Instruments inst;
  inst.bytes_written = metrics->GetCounter(
      "cv_storage_bytes_written_total", {}, "Bytes written to the store");
  inst.streams =
      metrics->GetGauge("cv_storage_streams", {}, "Stored streams");
  inst.total_bytes = metrics->GetGauge("cv_storage_total_bytes", {},
                                       "Bytes across all stored streams");
  inst.view_bytes =
      metrics->GetGauge("cv_storage_view_bytes", {},
                        "Bytes held by materialized views (the storage "
                        "cost side of the reuse trade-off)");
  inst.view_count = metrics->GetGauge("cv_storage_views", {},
                                      "Stored materialized-view streams");
  MutexLock lock(mu_);
  obs_ = inst;
  Account(nullptr, nullptr);  // publish the current totals
}

void StorageManager::Account(const StreamData* removed,
                             const StreamData* added) {
  const std::pair<const StreamData*, int64_t> deltas[] = {{removed, -1},
                                                          {added, 1}};
  for (const auto& [data, sign] : deltas) {
    if (data == nullptr) continue;
    total_bytes_ += sign * data->total_bytes;
    if (IsViewPath(data->name)) {
      view_bytes_ += sign * data->total_bytes;
      view_count_ += sign;
    }
  }
  if (obs_.streams == nullptr) return;
  obs_.streams->Set(static_cast<double>(streams_.size()));
  obs_.total_bytes->Set(static_cast<double>(total_bytes_));
  obs_.view_bytes->Set(static_cast<double>(view_bytes_));
  obs_.view_count->Set(static_cast<double>(view_count_));
}

Status StorageManager::WriteStream(StreamData data) {
  if (data.name.empty()) {
    return Status::InvalidArgument("stream name must not be empty");
  }
  if (fault_ != nullptr) {
    const bool is_view = StartsWith(data.name, "/views/");
    CV_RETURN_NOT_OK(fault_->MaybeInject(
        is_view ? fault::points::kStorageViewWrite
                : fault::points::kStorageWrite,
        data.name));
    if (is_view) {
      Status torn =
          fault_->MaybeInject(fault::points::kStorageViewWriteTorn, data.name);
      if (!torn.ok()) {
        // Model a writer dying mid-write: a truncated, incomplete-flagged
        // partial is left in the store and the write still reports failure.
        data.batches.resize(data.batches.size() / 2);
        data.total_rows = 0;
        data.total_bytes = 0;
        for (const auto& b : data.batches) {
          data.total_rows += static_cast<int64_t>(b.num_rows());
          data.total_bytes += b.ByteSize();
        }
        data.complete = false;
        auto partial = std::make_shared<StreamData>(std::move(data));
        MutexLock lock(mu_);
        StreamHandle replaced = std::exchange(streams_[partial->name], partial);
        Account(replaced.get(), partial.get());
        return torn;
      }
    }
  }
  auto handle = std::make_shared<StreamData>(std::move(data));
  MutexLock lock(mu_);
  if (obs_.bytes_written != nullptr) {
    obs_.bytes_written->Increment(
        static_cast<uint64_t>(handle->total_bytes));
  }
  StreamHandle replaced = std::exchange(streams_[handle->name], handle);
  Account(replaced.get(), handle.get());
  return Status::OK();
}

Result<StreamHandle> StorageManager::OpenStream(
    const std::string& name) const {
  if (fault_ != nullptr) {
    CV_RETURN_NOT_OK(fault_->MaybeInject(
        StartsWith(name, "/views/") ? fault::points::kStorageViewRead
                                    : fault::points::kStorageRead,
        name));
  }
  MutexLock lock(mu_);
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("stream '" + name + "' does not exist");
  }
  if (!it->second->complete) {
    return Status::IOError("stream '" + name +
                           "' is incomplete (torn write); refusing to read");
  }
  return it->second;
}

bool StorageManager::StreamExists(const std::string& name) const {
  MutexLock lock(mu_);
  return streams_.count(name) > 0;
}

Status StorageManager::DeleteStream(const std::string& name) {
  MutexLock lock(mu_);
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("stream '" + name + "' does not exist");
  }
  StreamHandle removed = std::move(it->second);
  streams_.erase(it);
  Account(removed.get(), nullptr);
  return Status::OK();
}

size_t StorageManager::PurgeExpired() {
  LogicalTime now = clock_->Now();
  MutexLock lock(mu_);
  size_t purged = 0;
  for (auto it = streams_.begin(); it != streams_.end();) {
    if (it->second->expires_at != 0 && it->second->expires_at <= now) {
      StreamHandle removed = std::move(it->second);
      it = streams_.erase(it);
      Account(removed.get(), nullptr);
      ++purged;
    } else {
      ++it;
    }
  }
  return purged;
}

std::vector<std::string> StorageManager::ListStreams(
    const std::string& prefix) const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, data] : streams_) {
    if (StartsWith(name, prefix)) out.push_back(name);
  }
  return out;
}

int64_t StorageManager::TotalBytes() const {
  MutexLock lock(mu_);
  return total_bytes_;
}

size_t StorageManager::NumStreams() const {
  MutexLock lock(mu_);
  return streams_.size();
}

StreamData MakeStreamData(std::string name, std::string guid, Schema schema,
                          std::vector<Batch> batches, LogicalTime now,
                          LogicalTime expires_at, PhysicalProperties props) {
  StreamData data;
  data.name = std::move(name);
  data.guid = std::move(guid);
  data.schema = std::move(schema);
  data.created_at = now;
  data.expires_at = expires_at;
  data.props = std::move(props);
  for (const auto& b : batches) {
    data.total_rows += static_cast<int64_t>(b.num_rows());
    data.total_bytes += b.ByteSize();
  }
  data.batches = std::move(batches);
  return data;
}

}  // namespace cloudviews
