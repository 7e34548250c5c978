#ifndef CLOUDVIEWS_PLAN_PHYSICAL_PROPERTIES_H_
#define CLOUDVIEWS_PLAN_PHYSICAL_PROPERTIES_H_

#include <string>
#include <vector>

#include "common/hash.h"

namespace cloudviews {

/// How rows are distributed across partitions at an operator's output.
enum class PartitionScheme : int {
  kAny = 0,        // unspecified / inherited
  kSingleton = 1,  // all rows in one partition
  kHash = 2,       // hash-partitioned on columns
};

const char* PartitionSchemeToString(PartitionScheme s);

/// \brief Output partitioning of an operator.
struct Partitioning {
  PartitionScheme scheme = PartitionScheme::kAny;
  std::vector<std::string> columns;
  int partition_count = 0;  // 0 = unspecified

  static Partitioning Hash(std::vector<std::string> cols, int count) {
    return {PartitionScheme::kHash, std::move(cols), count};
  }
  static Partitioning Singleton() {
    return {PartitionScheme::kSingleton, {}, 1};
  }

  bool IsSpecified() const { return scheme != PartitionScheme::kAny; }

  /// True if data with this partitioning also satisfies `required`
  /// (e.g. hash(a) satisfies a requirement of hash(a) with any count when
  /// the required count is unspecified).
  bool Satisfies(const Partitioning& required) const;

  bool operator==(const Partitioning& o) const;
  void HashInto(HashBuilder* hb) const;
  std::string ToString() const;
};

/// One sort key: column name + direction.
struct SortKey {
  std::string column;
  bool ascending = true;

  bool operator==(const SortKey& o) const {
    return column == o.column && ascending == o.ascending;
  }
};

/// \brief Output sort order of an operator (empty = unsorted).
struct SortOrder {
  std::vector<SortKey> keys;

  bool IsSorted() const { return !keys.empty(); }

  /// True if this order is a prefix-compatible refinement of `required`.
  bool Satisfies(const SortOrder& required) const;

  bool operator==(const SortOrder& o) const { return keys == o.keys; }
  void HashInto(HashBuilder* hb) const;
  std::string ToString() const;
};

/// \brief Partitioning + sort order together; this is what the analyzer
/// mines for view physical design (Sec 5.3).
struct PhysicalProperties {
  Partitioning partitioning;
  SortOrder sort_order;

  bool IsSpecified() const {
    return partitioning.IsSpecified() || sort_order.IsSorted();
  }
  bool Satisfies(const PhysicalProperties& required) const {
    return partitioning.Satisfies(required.partitioning) &&
           sort_order.Satisfies(required.sort_order);
  }
  bool operator==(const PhysicalProperties& o) const {
    return partitioning == o.partitioning && sort_order == o.sort_order;
  }
  void HashInto(HashBuilder* hb) const {
    partitioning.HashInto(hb);
    sort_order.HashInto(hb);
  }
  std::string ToString() const;

  /// Stable key for grouping identical designs (analyzer "most popular
  /// set" policy).
  Hash128 Fingerprint() const {
    HashBuilder hb;
    HashInto(&hb);
    return hb.Finish();
  }
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_PLAN_PHYSICAL_PROPERTIES_H_
