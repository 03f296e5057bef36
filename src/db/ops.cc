#include "db/ops.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace pb::db {

namespace {

/// True when `bound` is a bound reference to a column of `table` with
/// contiguous numeric (INT/DOUBLE) storage.
bool IsNumericColumnRef(const ExprPtr& bound, const Table& table) {
  return bound && bound->kind == ExprKind::kColumnRef &&
         bound->column_index >= 0 &&
         static_cast<size_t>(bound->column_index) <
             table.schema().num_columns() &&
         table.column_data(bound->column_index).numeric_storage();
}

}  // namespace

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum:   return "SUM";
    case AggFunc::kAvg:   return "AVG";
    case AggFunc::kMin:   return "MIN";
    case AggFunc::kMax:   return "MAX";
  }
  return "?";
}

namespace {

/// Every row index of `table`, in order.
std::vector<size_t> AllRows(const Table& table) {
  std::vector<size_t> out(table.num_rows());
  for (size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

Result<std::vector<size_t>> MatchingRowsRowwise(const Table& table,
                                                const Expr& bound) {
  std::vector<size_t> out;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    PB_ASSIGN_OR_RETURN(bool keep, bound.Matches(table, i));
    if (keep) out.push_back(i);
  }
  return out;
}

}  // namespace

Result<Table> Select(const Table& table, const ExprPtr& pred,
                     const std::string& result_name) {
  if (!pred) {
    // All rows qualify: copy the column vectors wholesale.
    std::vector<size_t> all(table.schema().num_columns());
    for (size_t c = 0; c < all.size(); ++c) all[c] = c;
    return table.SelectColumns(all, result_name);
  }
  PB_ASSIGN_OR_RETURN(std::vector<size_t> rows, FilterIndices(table, pred));
  Table out(result_name, table.schema());
  out.Reserve(rows.size());
  for (size_t i : rows) out.AppendRowFrom(table, i);
  return out;
}

Result<std::vector<size_t>> FilterIndices(const Table& table,
                                          const ExprPtr& pred) {
  if (!pred) return AllRows(table);
  ExprPtr bound = pred->Clone();
  PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  if (auto rows = internal::FilterIndicesColumnar(table, *bound)) {
    return std::move(*rows);
  }
  return MatchingRowsRowwise(table, *bound);
}

namespace internal {

Result<std::vector<size_t>> FilterIndicesRowwise(const Table& table,
                                                 const ExprPtr& pred) {
  if (!pred) return AllRows(table);
  ExprPtr bound = pred->Clone();
  PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  return MatchingRowsRowwise(table, *bound);
}

}  // namespace internal

Result<Table> Project(const Table& table,
                      const std::vector<std::string>& columns,
                      const std::string& result_name) {
  std::vector<size_t> indices;
  for (const std::string& name : columns) {
    PB_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(name));
    indices.push_back(idx);
  }
  // Column vectors are copied wholesale; SelectColumns validates the
  // projection (duplicates) and fails cleanly.
  return table.SelectColumns(indices, result_name);
}

Result<Table> OrderBy(const Table& table, const std::string& column,
                      bool ascending) {
  PB_ASSIGN_OR_RETURN(size_t idx, table.schema().IndexOf(column));
  const Column& key = table.column_data(idx);
  std::vector<size_t> order(table.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int c = key.Compare(a, b);
    return ascending ? c < 0 : c > 0;
  });
  Table out(table.name() + "_sorted", table.schema());
  out.Reserve(order.size());
  for (size_t i : order) out.AppendRowFrom(table, i);
  return out;
}

Table Limit(const Table& table, size_t n) {
  Table out(table.name() + "_limit", table.schema());
  size_t shown = std::min(n, table.num_rows());
  out.Reserve(shown);
  for (size_t i = 0; i < shown; ++i) {
    out.AppendRowFrom(table, i);
  }
  return out;
}

namespace {

/// Incremental aggregate accumulator with SQL NULL-skipping semantics.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggFunc func) : func_(func) {}

  Status Add(const Value& v, int64_t multiplicity = 1) {
    if (func_ == AggFunc::kCount) {
      // COUNT(expr) skips NULL; COUNT(*) passes a non-null marker.
      if (!v.is_null()) count_ += multiplicity;
      return Status::OK();
    }
    if (v.is_null()) return Status::OK();
    if (func_ == AggFunc::kMin || func_ == AggFunc::kMax) {
      if (!extreme_ || (func_ == AggFunc::kMin
                            ? v.Compare(*extreme_) < 0
                            : v.Compare(*extreme_) > 0)) {
        extreme_ = v;
      }
      count_ += multiplicity;
      return Status::OK();
    }
    // SUM / AVG: numeric only.
    PB_ASSIGN_OR_RETURN(double d, v.ToDouble());
    sum_ += d * static_cast<double>(multiplicity);
    count_ += multiplicity;
    all_int_ = all_int_ && v.is_int();
    return Status::OK();
  }

  Value Finish() const {
    switch (func_) {
      case AggFunc::kCount:
        return Value::Int(count_);
      case AggFunc::kSum:
        if (count_ == 0) return Value::Null();
        if (all_int_) return Value::Int(static_cast<int64_t>(sum_));
        return Value::Double(sum_);
      case AggFunc::kAvg:
        if (count_ == 0) return Value::Null();
        return Value::Double(sum_ / static_cast<double>(count_));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return extreme_ ? *extreme_ : Value::Null();
    }
    return Value::Null();
  }

 private:
  AggFunc func_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  bool all_int_ = true;
  std::optional<Value> extreme_;
};

/// Vectorized AggregateRows over a numeric column span: one tight pass,
/// no per-cell Value or variant dispatch. Mirrors AggAccumulator exactly.
Result<Value> AggregateColumnRows(const Table& table, AggFunc func, int column,
                                  const std::vector<size_t>& rows,
                                  const std::vector<int64_t>& multiplicities) {
  const NumericColumnView view = table.column_data(column).NumericView();
  // Storage type from the column, not the span: a spilled column's spans
  // are null but its SUM/MIN/MAX must still come back as INT.
  const bool int_storage =
      table.column_data(column).storage_type() == ValueType::kInt;
  int64_t count = 0;
  double sum = 0.0;
  bool has_extreme = false;
  double extreme = 0.0;
  for (size_t k = 0; k < rows.size(); ++k) {
    if (rows[k] >= table.num_rows()) {
      return Status::OutOfRange("row index out of range");
    }
    if (multiplicities[k] < 0) {
      return Status::InvalidArgument("negative multiplicity");
    }
    if (multiplicities[k] == 0 || view.IsNull(rows[k])) continue;
    double d = view[rows[k]];
    switch (func) {
      case AggFunc::kCount:
        count += multiplicities[k];
        break;
      case AggFunc::kMin:
        if (!has_extreme || d < extreme) extreme = d;
        has_extreme = true;
        count += multiplicities[k];
        break;
      case AggFunc::kMax:
        if (!has_extreme || d > extreme) extreme = d;
        has_extreme = true;
        count += multiplicities[k];
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        sum += d * static_cast<double>(multiplicities[k]);
        count += multiplicities[k];
        break;
    }
  }
  PB_RETURN_IF_ERROR(view.status());  // spilled block faults surface here
  switch (func) {
    case AggFunc::kCount:
      return Value::Int(count);
    case AggFunc::kSum:
      if (count == 0) return Value::Null();
      return int_storage ? Value::Int(static_cast<int64_t>(sum))
                         : Value::Double(sum);
    case AggFunc::kAvg:
      if (count == 0) return Value::Null();
      return Value::Double(sum / static_cast<double>(count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (!has_extreme) return Value::Null();
      return int_storage ? Value::Int(static_cast<int64_t>(extreme))
                         : Value::Double(extreme);
  }
  return Value::Null();
}

}  // namespace

Result<Value> Aggregate(const Table& table, AggFunc func, const ExprPtr& arg) {
  ExprPtr bound;
  if (arg) {
    bound = arg->Clone();
    PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  } else if (func != AggFunc::kCount) {
    return Status::InvalidArgument(
        std::string(AggFuncToString(func)) + " requires an argument");
  }
  if (!bound) return Value::Int(static_cast<int64_t>(table.num_rows()));
  // Whole-column aggregates of a bare column reference come straight from
  // the incrementally-maintained column statistics: O(1).
  if (bound->kind == ExprKind::kColumnRef && bound->column_index >= 0 &&
      static_cast<size_t>(bound->column_index) < table.schema().num_columns()) {
    const Column& col = table.column_data(bound->column_index);
    const ColumnStats& s = col.stats();
    if (func == AggFunc::kCount && col.storage_type() != ValueType::kNull) {
      return Value::Int(s.non_null_count);
    }
    if (col.numeric_storage()) {
      const bool int_storage = col.storage_type() == ValueType::kInt;
      switch (func) {
        case AggFunc::kSum:
          if (s.non_null_count == 0) return Value::Null();
          return int_storage ? Value::Int(static_cast<int64_t>(s.sum))
                             : Value::Double(s.sum);
        case AggFunc::kAvg:
          if (s.non_null_count == 0) return Value::Null();
          return Value::Double(s.mean());
        case AggFunc::kMin:
        case AggFunc::kMax: {
          const std::optional<double>& e = func == AggFunc::kMin ? s.min
                                                                 : s.max;
          if (!e) return Value::Null();
          return int_storage ? Value::Int(static_cast<int64_t>(*e))
                             : Value::Double(*e);
        }
        default:
          break;
      }
    }
  }
  std::vector<size_t> all(table.num_rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<int64_t> ones(all.size(), 1);
  return AggregateRows(table, func, arg, all, ones);
}

Result<Value> AggregateRows(const Table& table, AggFunc func,
                            const ExprPtr& arg,
                            const std::vector<size_t>& rows,
                            const std::vector<int64_t>& multiplicities) {
  if (rows.size() != multiplicities.size()) {
    return Status::InvalidArgument(
        "rows and multiplicities must have equal length");
  }
  ExprPtr bound;
  if (arg) {
    bound = arg->Clone();
    PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  } else if (func != AggFunc::kCount) {
    return Status::InvalidArgument(
        std::string(AggFuncToString(func)) + " requires an argument");
  }
  if (IsNumericColumnRef(bound, table)) {
    return AggregateColumnRows(table, func, bound->column_index, rows,
                               multiplicities);
  }
  AggAccumulator acc(func);
  for (size_t k = 0; k < rows.size(); ++k) {
    if (rows[k] >= table.num_rows()) {
      return Status::OutOfRange("row index out of range");
    }
    if (multiplicities[k] < 0) {
      return Status::InvalidArgument("negative multiplicity");
    }
    if (multiplicities[k] == 0) continue;
    Value v = Value::Int(1);  // COUNT(*) marker
    if (bound) {
      PB_ASSIGN_OR_RETURN(v, bound->Eval(table, rows[k]));
    }
    // MIN/MAX ignore multiplicity by nature; SUM/AVG/COUNT scale by it.
    PB_RETURN_IF_ERROR(acc.Add(v, multiplicities[k]));
  }
  return acc.Finish();
}

Result<Table> GroupBy(const Table& table, const std::string& group_column,
                      const std::vector<AggSpec>& aggs,
                      const std::string& result_name) {
  PB_ASSIGN_OR_RETURN(size_t gidx, table.schema().IndexOf(group_column));
  // Bind aggregate arguments once.
  std::vector<ExprPtr> bound(aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].arg) {
      bound[i] = aggs[i].arg->Clone();
      PB_RETURN_IF_ERROR(bound[i]->Bind(table.schema()));
    } else if (aggs[i].func != AggFunc::kCount) {
      return Status::InvalidArgument(
          std::string(AggFuncToString(aggs[i].func)) + " requires an argument");
    }
  }
  const Column& gcol = table.column_data(gidx);
  // Group rows (std::map gives deterministic output order via
  // Value::operator<).
  std::map<Value, std::vector<AggAccumulator>> groups;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    Value key = gcol.GetValue(r);
    auto it = groups.find(key);
    if (it == groups.end()) {
      std::vector<AggAccumulator> accs;
      accs.reserve(aggs.size());
      for (const auto& spec : aggs) accs.emplace_back(spec.func);
      it = groups.emplace(std::move(key), std::move(accs)).first;
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      Value v = Value::Int(1);
      if (bound[i]) {
        PB_ASSIGN_OR_RETURN(v, bound[i]->Eval(table, r));
      }
      PB_RETURN_IF_ERROR(it->second[i].Add(v));
    }
  }
  Schema out_schema;
  PB_RETURN_IF_ERROR(out_schema.AddColumn(table.schema().column(gidx)));
  for (const auto& spec : aggs) {
    PB_RETURN_IF_ERROR(
        out_schema.AddColumn({spec.output_name, ValueType::kNull}));
  }
  Table out(result_name, std::move(out_schema));
  for (const auto& [key, accs] : groups) {
    Tuple row;
    row.push_back(key);
    for (const auto& acc : accs) row.push_back(acc.Finish());
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

Result<Table> CrossJoin(const Table& left, const Table& right,
                        const ExprPtr& pred,
                        const std::string& result_name) {
  // Build the output schema, prefixing on collision. Self-joins (same table
  // name on both sides) disambiguate the right side with an "_r" suffix.
  std::string lprefix = left.name();
  std::string rprefix = right.name();
  if (lprefix == rprefix) rprefix += "_r";
  Schema out_schema;
  for (const ColumnDef& c : left.schema().columns()) {
    ColumnDef col = c;
    if (right.schema().HasColumn(c.name)) col.name = lprefix + "." + c.name;
    PB_RETURN_IF_ERROR(out_schema.AddColumn(col));
  }
  for (const ColumnDef& c : right.schema().columns()) {
    ColumnDef col = c;
    if (left.schema().HasColumn(c.name)) col.name = rprefix + "." + c.name;
    PB_RETURN_IF_ERROR(out_schema.AddColumn(col));
  }
  ExprPtr bound;
  if (pred) {
    bound = pred->Clone();
    PB_RETURN_IF_ERROR(bound->Bind(out_schema));
  }
  Table out(result_name, std::move(out_schema));
  // Materialize each side's rows once; the inner loop reuses them.
  std::vector<Tuple> rrows;
  rrows.reserve(right.num_rows());
  for (size_t j = 0; j < right.num_rows(); ++j) rrows.push_back(right.row(j));
  Tuple combined;
  combined.reserve(left.schema().num_columns() + right.schema().num_columns());
  for (size_t i = 0; i < left.num_rows(); ++i) {
    Tuple l = left.row(i);
    for (const Tuple& r : rrows) {
      combined.clear();
      combined.insert(combined.end(), l.begin(), l.end());
      combined.insert(combined.end(), r.begin(), r.end());
      if (bound) {
        PB_ASSIGN_OR_RETURN(bool keep, bound->Matches(combined));
        if (!keep) continue;
      }
      out.AppendUnchecked(combined);
    }
  }
  return out;
}

Result<std::vector<std::optional<double>>> GatherNumericBound(
    const Table& table, const Expr& expr, const std::vector<size_t>& rows) {
  std::vector<std::optional<double>> out(rows.size());
  if (expr.kind == ExprKind::kColumnRef && expr.column_index >= 0 &&
      static_cast<size_t>(expr.column_index) < table.schema().num_columns() &&
      table.column_data(expr.column_index).numeric_storage()) {
    const NumericColumnView view =
        table.column_data(expr.column_index).NumericView();
    const size_t n = view.size();
    if (view.spilled()) {
      // Spilled column: values fault in block-at-a-time through the view's
      // cached pin. Filter row lists are ascending, so each block is
      // pinned once per gather.
      for (size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] >= n) return Status::OutOfRange("row index out of range");
        if (!view.IsNull(rows[i])) out[i] = view[rows[i]];
      }
      PB_RETURN_IF_ERROR(view.status());
      return out;
    }
    if (!view.has_nulls()) {
      // Null-free spans: a straight gather over the contiguous data.
      if (const double* d = view.doubles()) {
        for (size_t i = 0; i < rows.size(); ++i) {
          if (rows[i] >= n) return Status::OutOfRange("row index out of range");
          out[i] = d[rows[i]];
        }
      } else {
        const int64_t* p = view.ints();
        for (size_t i = 0; i < rows.size(); ++i) {
          if (rows[i] >= n) return Status::OutOfRange("row index out of range");
          out[i] = static_cast<double>(p[rows[i]]);
        }
      }
    } else {
      for (size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] >= n) return Status::OutOfRange("row index out of range");
        if (!view.IsNull(rows[i])) out[i] = view[rows[i]];
      }
    }
    return out;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= table.num_rows()) {
      return Status::OutOfRange("row index out of range");
    }
    PB_ASSIGN_OR_RETURN(Value v, expr.Eval(table, rows[i]));
    if (v.is_null()) {
      out[i] = std::nullopt;
    } else {
      PB_ASSIGN_OR_RETURN(double d, v.ToDouble());
      out[i] = d;
    }
  }
  return out;
}

Result<std::vector<std::optional<double>>> GatherNumeric(
    const Table& table, const ExprPtr& expr, const std::vector<size_t>& rows) {
  ExprPtr bound = expr->Clone();
  PB_RETURN_IF_ERROR(bound->Bind(table.schema()));
  return GatherNumericBound(table, *bound, rows);
}

}  // namespace pb::db
