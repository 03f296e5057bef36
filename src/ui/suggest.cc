#include "ui/suggest.h"

#include <cmath>

#include "common/strings.h"
#include "db/ops.h"

namespace pb::ui {

namespace {

using core::EvalPackageAgg;
using core::Package;

/// Slack around observed values in range suggestions (0.2 = the BETWEEN
/// suggestion spans value +/- 20%).
constexpr double kRangeSlack = 0.2;
constexpr size_t kMaxSuggestions = 12;

Suggestion MakeBase(db::ExprPtr expr, std::string description) {
  Suggestion s;
  s.kind = Suggestion::Kind::kBaseConstraint;
  s.paql = expr->ToString();
  s.description = std::move(description);
  s.base = std::move(expr);
  return s;
}

Suggestion MakeGlobal(paql::GExprPtr expr) {
  Suggestion s;
  s.kind = Suggestion::Kind::kGlobalConstraint;
  s.paql = expr->ToString();
  s.description = paql::DescribeGlobalConstraint(*expr);
  s.global = std::move(expr);
  return s;
}

Suggestion MakeObjective(paql::Objective obj) {
  Suggestion s;
  s.kind = Suggestion::Kind::kObjective;
  s.paql = obj.ToString();
  s.description = paql::DescribeObjective(obj);
  s.objective = std::move(obj);
  return s;
}

double RoundNice(double v) {
  if (v == 0.0) return 0.0;
  double mag = std::pow(10.0, std::floor(std::log10(std::abs(v))) - 1);
  return std::round(v / mag) * mag;
}

/// Suggestions for a numeric cell value v in column `col`: per-tuple caps
/// and floors around v, plus a range (the paper's "restrict the amount of
/// fat in each meal").
void SuggestForNumericCell(const std::string& col, double v,
                           std::vector<Suggestion>* out) {
  out->push_back(MakeBase(
      db::Binary(db::BinaryOp::kLe, db::Col(col), db::LitDouble(RoundNice(v))),
      "each tuple's " + col + " must be at most " +
          FormatDouble(RoundNice(v))));
  out->push_back(MakeBase(
      db::Binary(db::BinaryOp::kGe, db::Col(col), db::LitDouble(RoundNice(v))),
      "each tuple's " + col + " must be at least " +
          FormatDouble(RoundNice(v))));
  double lo = RoundNice(v * (1 - kRangeSlack));
  double hi = RoundNice(v * (1 + kRangeSlack));
  if (lo > hi) std::swap(lo, hi);
  out->push_back(MakeBase(
      db::Between(db::Col(col), db::LitDouble(lo), db::LitDouble(hi)),
      "each tuple's " + col + " must stay between " + FormatDouble(lo) +
          " and " + FormatDouble(hi)));
}

/// Global suggestions around the sample package's current aggregates.
Status SuggestForColumn(const db::Table& table, const Package& sample,
                        const std::string& col,
                        std::vector<Suggestion>* out) {
  paql::AggCall sum_call{db::AggFunc::kSum, db::Col(col)};
  PB_RETURN_IF_ERROR(sum_call.arg->Bind(table.schema()));
  PB_ASSIGN_OR_RETURN(db::Value sum_v, EvalPackageAgg(sum_call, table, sample));
  if (sum_v.is_numeric()) {
    PB_ASSIGN_OR_RETURN(double sum, sum_v.ToDouble());
    auto sum_agg = [&] {
      return paql::GAgg(db::AggFunc::kSum, db::Col(col));
    };
    out->push_back(MakeGlobal(paql::GCompare(
        db::BinaryOp::kLe, sum_agg(),
        paql::GLit(db::Value::Double(RoundNice(sum))))));
    out->push_back(MakeGlobal(paql::GCompare(
        db::BinaryOp::kGe, sum_agg(),
        paql::GLit(db::Value::Double(RoundNice(sum))))));
    double lo = RoundNice(sum * (1 - kRangeSlack));
    double hi = RoundNice(sum * (1 + kRangeSlack));
    if (lo > hi) std::swap(lo, hi);
    out->push_back(MakeGlobal(paql::GBetween(
        sum_agg(), paql::GLit(db::Value::Double(lo)),
        paql::GLit(db::Value::Double(hi)))));
    // Objectives: the Figure-1 interaction ("minimize the total amount of
    // fat").
    out->push_back(MakeObjective(
        {paql::ObjectiveSense::kMinimize, sum_agg()}));
    out->push_back(MakeObjective(
        {paql::ObjectiveSense::kMaximize, sum_agg()}));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<Suggestion>> SuggestConstraints(
    const db::Table& table, const core::Package& sample,
    const Highlight& highlight) {
  std::vector<Suggestion> out;

  // Resolve the package position to a base-table row when needed.
  auto resolve_row = [&]() -> Result<size_t> {
    if (highlight.package_position >= sample.rows.size()) {
      return Status::OutOfRange("highlight position " +
                                std::to_string(highlight.package_position) +
                                " exceeds the sample package size");
    }
    return sample.rows[highlight.package_position];
  };

  switch (highlight.kind) {
    case Highlight::Kind::kCell: {
      PB_ASSIGN_OR_RETURN(size_t row, resolve_row());
      PB_ASSIGN_OR_RETURN(size_t col_idx,
                          table.schema().IndexOf(highlight.column));
      const db::Value& v = table.at(row, col_idx);
      if (v.is_numeric()) {
        PB_ASSIGN_OR_RETURN(double d, v.ToDouble());
        SuggestForNumericCell(highlight.column, d, &out);
        PB_RETURN_IF_ERROR(
            SuggestForColumn(table, sample, highlight.column, &out));
      } else if (v.is_string()) {
        out.push_back(MakeBase(
            db::Binary(db::BinaryOp::kEq, db::Col(highlight.column),
                       db::LitString(v.AsString())),
            "keep only tuples whose " + highlight.column + " is '" +
                v.AsString() + "'"));
        out.push_back(MakeBase(
            db::Binary(db::BinaryOp::kNe, db::Col(highlight.column),
                       db::LitString(v.AsString())),
            "exclude tuples whose " + highlight.column + " is '" +
                v.AsString() + "'"));
      }
      break;
    }
    case Highlight::Kind::kColumn: {
      PB_ASSIGN_OR_RETURN(size_t col_idx,
                          table.schema().IndexOf(highlight.column));
      (void)col_idx;
      PB_RETURN_IF_ERROR(
          SuggestForColumn(table, sample, highlight.column, &out));
      // Cardinality suggestions always make sense on a whole-column select.
      int64_t count = sample.TotalCount();
      out.push_back(MakeGlobal(paql::GCompare(
          db::BinaryOp::kEq, paql::GAgg(db::AggFunc::kCount, nullptr),
          paql::GLit(db::Value::Int(count)))));
      break;
    }
    case Highlight::Kind::kRow: {
      PB_ASSIGN_OR_RETURN(size_t row, resolve_row());
      // "More like this": equality on categorical attributes of the row.
      for (size_t c = 0; c < table.schema().num_columns(); ++c) {
        const db::Value& v = table.at(row, c);
        if (v.is_string()) {
          const std::string& col = table.schema().column(c).name;
          out.push_back(MakeBase(
              db::Binary(db::BinaryOp::kEq, db::Col(col),
                         db::LitString(v.AsString())),
              "keep only tuples whose " + col + " is '" + v.AsString() +
                  "' (like the highlighted one)"));
        }
      }
      break;
    }
  }

  if (out.size() > kMaxSuggestions) out.resize(kMaxSuggestions);
  return out;
}

void ApplySuggestion(const Suggestion& suggestion, paql::Query* query) {
  switch (suggestion.kind) {
    case Suggestion::Kind::kBaseConstraint:
      query->where = db::AndMaybe(query->where, suggestion.base->Clone());
      break;
    case Suggestion::Kind::kGlobalConstraint:
      query->such_that =
          paql::GAndMaybe(query->such_that, suggestion.global->Clone());
      break;
    case Suggestion::Kind::kObjective:
      query->objective = suggestion.objective;
      break;
  }
}

}  // namespace pb::ui
