#ifndef CLOUDVIEWS_EXPR_EXPR_H_
#define CLOUDVIEWS_EXPR_EXPR_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "expr/function_registry.h"
#include "types/batch.h"
#include "types/schema.h"
#include "types/value.h"

namespace cloudviews {

/// Controls how much of a plan/expression feeds a signature hash (Sec 3):
/// precise signatures include recurring parameter values, input GUIDs, and
/// user-code versions; normalized signatures abstract them away so the same
/// template matches across recurring instances.
enum class SignatureMode { kPrecise = 0, kNormalized = 1 };

enum class ExprKind : int {
  kColumnRef = 0,
  kLiteral = 1,
  kParameter = 2,
  kComparison = 3,
  kArithmetic = 4,
  kLogical = 5,
  kFunctionCall = 6,
  kUdfCall = 7,
};

enum class CompareOp : int { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithmeticOp : int { kAdd, kSub, kMul, kDiv, kMod };
enum class LogicalOp : int { kAnd, kOr, kNot };

const char* CompareOpToString(CompareOp op);
const char* ArithmeticOpToString(ArithmeticOp op);
const char* LogicalOpToString(LogicalOp op);

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// \brief Base class of scalar expression trees.
///
/// Expressions are immutable after Bind(). Bind resolves column references
/// against an input schema and infers output types; Evaluate produces a
/// column over a batch (default implementation loops EvaluateRow).
class Expr {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }
  DataType output_type() const { return output_type_; }
  bool bound() const { return bound_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Resolves column references and infers output types, recursively.
  virtual Status Bind(const Schema& input);

  /// Evaluates the expression for a single row.
  virtual Value EvaluateRow(const Batch& input, size_t row) const = 0;

  /// Evaluates over all rows of a batch into a fresh column.
  virtual Status Evaluate(const Batch& input, Column* out) const;

  /// Adds this node (and children) to a signature hash. Parameter values
  /// and recurring literals are skipped in normalized mode.
  virtual void HashInto(HashBuilder* hb, SignatureMode mode) const;

  virtual std::string ToString() const = 0;

  /// Deep copy (unbound state is copied as-is).
  virtual ExprPtr Clone() const = 0;

 protected:
  Expr(ExprKind kind, std::vector<ExprPtr> children)
      : kind_(kind), children_(std::move(children)) {}

  ExprKind kind_;
  std::vector<ExprPtr> children_;
  // sig-skip(hash): binding state derived from the input schema at Bind
  // time; the signature identifies the unbound computation
  DataType output_type_ = DataType::kInt64;
  // sig-skip(hash): binding progress flag, derived, never identity
  bool bound_ = false;
};

/// Reference to an input column by name; index resolved at Bind time.
class ColumnRefExpr : public Expr {
 public:
  explicit ColumnRefExpr(std::string name)
      : Expr(ExprKind::kColumnRef, {}), name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  int index() const { return index_; }

  Status Bind(const Schema& input) override;
  Value EvaluateRow(const Batch& input, size_t row) const override;
  Status Evaluate(const Batch& input, Column* out) const override;
  void HashInto(HashBuilder* hb, SignatureMode mode) const override;
  std::string ToString() const override { return name_; }
  ExprPtr Clone() const override;

 private:
  std::string name_;
  // sig-skip(hash, clone): resolved from name_ against the input schema at
  // Bind time; Clone returns an unbound expr the serve paths re-Bind
  int index_ = -1;
};

/// Constant value.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral, {}), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Status Bind(const Schema& input) override;
  Value EvaluateRow(const Batch& input, size_t row) const override;
  void HashInto(HashBuilder* hb, SignatureMode mode) const override;
  std::string ToString() const override { return value_.ToString(); }
  ExprPtr Clone() const override;

 private:
  Value value_;
};

/// \brief A recurring-template hole (e.g. `{date}`) bound to a concrete
/// value for one recurring instance.
///
/// Normalized signatures hash only the parameter name; precise signatures
/// also hash the bound value, which is what invalidates reuse when data or
/// predicates change (Sec 3, Sec 8 "Updates & privacy regulations").
class ParameterExpr : public Expr {
 public:
  ParameterExpr(std::string name, Value bound_value)
      : Expr(ExprKind::kParameter, {}),
        name_(std::move(name)),
        value_(std::move(bound_value)) {}

  const std::string& name() const { return name_; }
  const Value& value() const { return value_; }

  Status Bind(const Schema& input) override;
  Value EvaluateRow(const Batch& input, size_t row) const override;
  void HashInto(HashBuilder* hb, SignatureMode mode) const override;
  std::string ToString() const override {
    return "{" + name_ + "=" + value_.ToString() + "}";
  }
  ExprPtr Clone() const override;

 private:
  std::string name_;
  Value value_;
};

class ComparisonExpr : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kComparison, {std::move(left), std::move(right)}),
        op_(op) {}

  CompareOp op() const { return op_; }

  Status Bind(const Schema& input) override;
  Value EvaluateRow(const Batch& input, size_t row) const override;
  void HashInto(HashBuilder* hb, SignatureMode mode) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override;

 private:
  CompareOp op_;
};

class ArithmeticExpr : public Expr {
 public:
  ArithmeticExpr(ArithmeticOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kArithmetic, {std::move(left), std::move(right)}),
        op_(op) {}

  ArithmeticOp op() const { return op_; }

  Status Bind(const Schema& input) override;
  Value EvaluateRow(const Batch& input, size_t row) const override;
  void HashInto(HashBuilder* hb, SignatureMode mode) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override;

 private:
  ArithmeticOp op_;
};

class LogicalExpr : public Expr {
 public:
  /// kNot takes one child; kAnd/kOr take two.
  LogicalExpr(LogicalOp op, std::vector<ExprPtr> children)
      : Expr(ExprKind::kLogical, std::move(children)), op_(op) {}

  LogicalOp op() const { return op_; }

  Status Bind(const Schema& input) override;
  Value EvaluateRow(const Batch& input, size_t row) const override;
  void HashInto(HashBuilder* hb, SignatureMode mode) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override;

 private:
  LogicalOp op_;
};

/// Built-in scalar function call; see FunctionRegistry for the catalog.
class FunctionCallExpr : public Expr {
 public:
  FunctionCallExpr(std::string name, std::vector<ExprPtr> args)
      : Expr(ExprKind::kFunctionCall, std::move(args)),
        name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Status Bind(const Schema& input) override;
  Value EvaluateRow(const Batch& input, size_t row) const override;
  void HashInto(HashBuilder* hb, SignatureMode mode) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override;

 private:
  std::string name_;
  // sig-skip(hash, clone): resolved from name_ at Bind time; Clone returns
  // an unbound expr the serve paths re-Bind
  const FunctionEntry* entry_ = nullptr;
};

/// \brief Call into registered user code (Sec 1.4: correctness in the
/// presence of user code).
///
/// The owning library and its version are part of the *precise* signature:
/// republishing a library invalidates previously materialized views built
/// from it.
class UdfCallExpr : public Expr {
 public:
  UdfCallExpr(std::string udf_name, std::string library,
              std::string library_version, std::vector<ExprPtr> args)
      : Expr(ExprKind::kUdfCall, std::move(args)),
        udf_name_(std::move(udf_name)),
        library_(std::move(library)),
        library_version_(std::move(library_version)) {}

  const std::string& udf_name() const { return udf_name_; }
  const std::string& library() const { return library_; }
  const std::string& library_version() const { return library_version_; }

  Status Bind(const Schema& input) override;
  Value EvaluateRow(const Batch& input, size_t row) const override;
  void HashInto(HashBuilder* hb, SignatureMode mode) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override;

 private:
  std::string udf_name_;
  std::string library_;
  std::string library_version_;
  // A republish replaces the registry entry in place, so this stays current.
  // sig-skip(hash, clone): resolved from udf_name_ at Bind time; Clone
  // returns an unbound expr the serve paths re-Bind
  const UdfRegistry::UdfEntry* entry_ = nullptr;
};

// ---------------------------------------------------------------------------
// Construction helpers (used heavily by plan builders and tests).
// ---------------------------------------------------------------------------

ExprPtr Col(std::string name);
ExprPtr Lit(Value v);
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(const char* s);
ExprPtr Lit(bool v);
ExprPtr DateLit(const std::string& iso);
ExprPtr Param(std::string name, Value v);
ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);
ExprPtr Mod(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
ExprPtr Func(std::string name, std::vector<ExprPtr> args);
ExprPtr Udf(std::string name, std::string library, std::string version,
            std::vector<ExprPtr> args);

// ---------------------------------------------------------------------------
// Analysis / rewrite utilities (used by optimizer rules).
// ---------------------------------------------------------------------------

/// Adds the names of all columns referenced by `expr` to `out`.
void CollectColumnRefs(const Expr& expr, std::set<std::string>* out);

/// Rebuilds the expression with every column reference replaced by
/// `replace(name)`; non-reference nodes are deep-copied. Returns nullptr if
/// `replace` returns nullptr for any referenced column (substitution not
/// possible).
ExprPtr SubstituteColumnRefs(
    const Expr& expr,
    const std::function<ExprPtr(const std::string&)>& replace);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXPR_EXPR_H_
