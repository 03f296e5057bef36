// Value: the dynamically-typed cell of the relational engine.
//
// Supported types: NULL, BOOL, INT64, DOUBLE, STRING. Numeric comparisons
// and arithmetic coerce INT64 and DOUBLE; NULL follows SQL three-valued
// semantics at the expression layer (db/expr.h) — a bare Value only knows
// whether it is null.

#ifndef PB_DB_VALUE_H_
#define PB_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace pb::db {

enum class ValueType { kNull = 0, kBool, kInt, kDouble, kString };

/// Returns "NULL", "BOOL", "INT", "DOUBLE", or "STRING".
const char* ValueTypeToString(ValueType t);

/// INT or DOUBLE: the types Value::Compare orders as numbers.
inline bool IsNumericType(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble;
}

// Value::Compare's ordering of two numbers and of two strings, shared with
// the typed-column paths (Column::Compare, the WHERE column kernel) so that
// every route orders cells the same way.

/// Three-way order of two numbers; an INT operand is cast to double first.
/// NaN is neither less nor greater than anything, so it compares equal.
inline int CompareDoubles(double a, double b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Three-way order of two strings: the sign of std::string::compare.
inline int CompareStrings(const std::string& a, const std::string& b) {
  const int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// A single dynamically-typed value.
class Value {
 public:
  /// NULL value.
  Value() : var_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Var(b)); }
  static Value Int(int64_t i) { return Value(Var(i)); }
  static Value Double(double d) { return Value(Var(d)); }
  static Value String(std::string s) { return Value(Var(std::move(s))); }

  ValueType type() const {
    return static_cast<ValueType>(var_.index());
  }

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  /// INT or DOUBLE.
  bool is_numeric() const { return IsNumericType(type()); }

  /// Requires the matching type.
  bool AsBool() const { return std::get<bool>(var_); }
  int64_t AsInt() const { return std::get<int64_t>(var_); }
  double AsDoubleExact() const { return std::get<double>(var_); }
  const std::string& AsString() const { return std::get<std::string>(var_); }

  /// Numeric coercion: INT and DOUBLE both convert; others are an error.
  Result<double> ToDouble() const;

  /// Three-way comparison for ORDER BY and predicate evaluation.
  /// NULL sorts before everything; numerics compare cross-type; mixed
  /// non-numeric types compare by type rank (stable but arbitrary).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Display form: NULL, true/false, numbers, raw string (no quotes).
  std::string ToString() const;

  /// SQL-literal form: strings quoted and escaped.
  std::string ToSqlLiteral() const;

 private:
  using Var = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Var v) : var_(std::move(v)) {}
  Var var_;
};

}  // namespace pb::db

#endif  // PB_DB_VALUE_H_
