#include "plan/physical_properties.h"

#include "common/string_util.h"

namespace cloudviews {

const char* PartitionSchemeToString(PartitionScheme s) {
  switch (s) {
    case PartitionScheme::kAny:
      return "any";
    case PartitionScheme::kSingleton:
      return "singleton";
    case PartitionScheme::kHash:
      return "hash";
  }
  return "?";
}

bool Partitioning::Satisfies(const Partitioning& required) const {
  if (required.scheme == PartitionScheme::kAny) return true;
  if (scheme != required.scheme) return false;
  if (scheme == PartitionScheme::kHash && columns != required.columns) {
    return false;
  }
  if (required.partition_count != 0 &&
      partition_count != required.partition_count) {
    return false;
  }
  return true;
}

bool Partitioning::operator==(const Partitioning& o) const {
  return scheme == o.scheme && columns == o.columns &&
         partition_count == o.partition_count;
}

void Partitioning::HashInto(HashBuilder* hb) const {
  hb->Add(static_cast<int>(scheme));
  hb->Add(static_cast<uint64_t>(columns.size()));
  for (const auto& c : columns) hb->Add(std::string_view(c));
  hb->Add(partition_count);
}

std::string Partitioning::ToString() const {
  if (scheme == PartitionScheme::kAny) return "any";
  std::string out = PartitionSchemeToString(scheme);
  if (!columns.empty()) {
    out += "(" + Join(columns, ",") + ")";
  }
  if (partition_count > 0) out += StrFormat(" x%d", partition_count);
  return out;
}

bool SortOrder::Satisfies(const SortOrder& required) const {
  if (required.keys.empty()) return true;
  if (keys.size() < required.keys.size()) return false;
  for (size_t i = 0; i < required.keys.size(); ++i) {
    if (!(keys[i] == required.keys[i])) return false;
  }
  return true;
}

void SortOrder::HashInto(HashBuilder* hb) const {
  hb->Add(static_cast<uint64_t>(keys.size()));
  for (const auto& k : keys) {
    hb->Add(std::string_view(k.column));
    hb->Add(k.ascending);
  }
}

std::string SortOrder::ToString() const {
  if (keys.empty()) return "unsorted";
  std::vector<std::string> parts;
  for (const auto& k : keys) {
    parts.push_back(k.column + (k.ascending ? " ASC" : " DESC"));
  }
  return Join(parts, ", ");
}

std::string PhysicalProperties::ToString() const {
  return "[" + partitioning.ToString() + "; " + sort_order.ToString() + "]";
}

}  // namespace cloudviews
