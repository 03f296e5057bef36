#include "db/value.h"

#include <cmath>

#include "common/strings.h"

namespace pb::db {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

Result<double> Value::ToDouble() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDoubleExact();
    default:
      return Status::TypeError(std::string("cannot convert ") +
                               ValueTypeToString(type()) + " to DOUBLE");
  }
}

int Value::Compare(const Value& other) const {
  // NULL sorts first.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Cross-type numeric comparison.
  if (is_numeric() && other.is_numeric()) {
    double a = is_int() ? static_cast<double>(AsInt()) : AsDoubleExact();
    double b = other.is_int() ? static_cast<double>(other.AsInt())
                              : other.AsDoubleExact();
    return CompareDoubles(a, b);
  }
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kBool: {
      int a = AsBool() ? 1 : 0, b = other.AsBool() ? 1 : 0;
      return a - b;
    }
    case ValueType::kString:
      return CompareStrings(AsString(), other.AsString());
    default:
      return 0;  // unreachable: numerics and nulls handled above
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble:
      return FormatDouble(AsDoubleExact());
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  if (is_string()) {
    std::string out = "'";
    for (char c : AsString()) {
      if (c == '\'') out += "''";
      else out += c;
    }
    out += "'";
    return out;
  }
  return ToString();
}

}  // namespace pb::db
