#ifndef CLOUDVIEWS_EXPR_FUNCTION_REGISTRY_H_
#define CLOUDVIEWS_EXPR_FUNCTION_REGISTRY_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace cloudviews {

/// Implementation of a builtin scalar function over already-evaluated
/// argument values.
using ScalarFunction = std::function<Value(const std::vector<Value>&)>;

/// Signature of a builtin: infers the output type from argument types, or
/// errors for unsupported argument types/arity.
using TypeInferenceFn =
    std::function<Result<DataType>(const std::vector<DataType>&)>;

struct FunctionEntry {
  ScalarFunction fn;
  TypeInferenceFn infer;
};

/// \brief Catalog of builtin scalar functions (year, month, substr, lower,
/// concat, abs, round, strlen, hash64, if, ...).
///
/// Builtins are engine code: unlike UDFs they carry no library version and
/// hash only by name in signatures.
class FunctionRegistry {
 public:
  /// Process-wide registry populated with the builtins on first use.
  static FunctionRegistry* Global();

  /// Adds `name`, or replaces its entry in place: entry pointers returned
  /// by Lookup (which bound expressions keep) stay valid and see the new
  /// function.
  void Register(const std::string& name, FunctionEntry entry);
  bool Contains(const std::string& name) const;
  Result<const FunctionEntry*> Lookup(const std::string& name) const;

  std::vector<std::string> FunctionNames() const;

 private:
  FunctionRegistry();

  std::unordered_map<std::string, FunctionEntry> entries_;
};

/// \brief Catalog of user-defined scalar functions with library provenance.
///
/// Re-registering the same name with a different version models a library
/// republish; precise signatures change and stale views stop matching.
class UdfRegistry {
 public:
  static UdfRegistry* Global();

  struct UdfEntry {
    ScalarFunction fn;
    DataType output_type;
    std::string library;
    std::string version;
  };

  /// Adds `name`, or replaces its entry in place (a republish): entry
  /// pointers returned by Lookup (which bound expressions keep) stay valid
  /// and see the new function and version.
  void Register(const std::string& name, UdfEntry entry);
  Result<const UdfEntry*> Lookup(const std::string& name) const;
  bool Contains(const std::string& name) const;

 private:
  std::unordered_map<std::string, UdfEntry> entries_;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXPR_FUNCTION_REGISTRY_H_
