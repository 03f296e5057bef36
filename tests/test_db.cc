// Unit tests for the relational engine substrate: values, schemas, tables,
// expressions, operators, CSV, and the catalog.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <utility>

#include "db/catalog.h"
#include "db/csv.h"
#include "db/expr.h"
#include "db/ops.h"
#include "db/table.h"

namespace pb::db {
namespace {

// ----- Value -----------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDoubleExact(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_TRUE(Value::Int(1).is_numeric());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::String("1").is_numeric());
}

TEST(ValueTest, CrossTypeNumericComparison) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(3.1).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_GT(Value::String("a").Compare(Value::Null()), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("apple").Compare(Value::String("banana")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Double(4.0).ToString(), "4");
  EXPECT_EQ(Value::String("q").ToString(), "q");
}

TEST(ValueTest, SqlLiteralEscapesQuotes) {
  EXPECT_EQ(Value::String("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value::Int(5).ToSqlLiteral(), "5");
}

TEST(ValueTest, ToDoubleCoercion) {
  EXPECT_DOUBLE_EQ(*Value::Int(4).ToDouble(), 4.0);
  EXPECT_DOUBLE_EQ(*Value::Double(4.5).ToDouble(), 4.5);
  EXPECT_FALSE(Value::String("4").ToDouble().ok());
  EXPECT_FALSE(Value::Null().ToDouble().ok());
}

// ----- Schema ----------------------------------------------------------------

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema s({{"Calories", ValueType::kDouble}, {"name", ValueType::kString}});
  EXPECT_EQ(*s.IndexOf("calories"), 0u);
  EXPECT_EQ(*s.IndexOf("CALORIES"), 0u);
  EXPECT_EQ(*s.IndexOf("Name"), 1u);
  EXPECT_FALSE(s.IndexOf("nope").ok());
  EXPECT_TRUE(s.HasColumn("NAME"));
}

TEST(SchemaTest, RejectsDuplicates) {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"a", ValueType::kInt}).ok());
  EXPECT_EQ(s.AddColumn({"A", ValueType::kInt}).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, EqualityIgnoresCase) {
  Schema a({{"x", ValueType::kInt}});
  Schema b({{"X", ValueType::kInt}});
  Schema c({{"x", ValueType::kDouble}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ----- Table -----------------------------------------------------------------

Table MakeMeals() {
  Table t("meals", Schema({{"id", ValueType::kInt},
                           {"name", ValueType::kString},
                           {"calories", ValueType::kDouble},
                           {"gluten", ValueType::kString}}));
  auto add = [&](int64_t id, const char* name, double cal, const char* g) {
    EXPECT_TRUE(t.Append({Value::Int(id), Value::String(name),
                          Value::Double(cal), Value::String(g)})
                    .ok());
  };
  add(0, "pasta", 700, "full");
  add(1, "salad", 250, "free");
  add(2, "steak", 900, "free");
  add(3, "soup", 300, "free");
  add(4, "cake", 550, "full");
  return t;
}

TEST(TableTest, AppendChecksArity) {
  Table t("t", Schema({{"a", ValueType::kInt}}));
  EXPECT_EQ(t.Append({Value::Int(1), Value::Int(2)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, AppendChecksTypes) {
  Table t("t", Schema({{"a", ValueType::kInt}}));
  EXPECT_EQ(t.Append({Value::String("x")}).code(), StatusCode::kTypeError);
  EXPECT_TRUE(t.Append({Value::Null()}).ok());  // NULL fits anywhere
}

TEST(TableTest, IntWidensIntoDoubleColumn) {
  Table t("t", Schema({{"a", ValueType::kDouble}}));
  ASSERT_TRUE(t.Append({Value::Int(3)}).ok());
  EXPECT_TRUE(t.at(0, 0).is_double());
  EXPECT_DOUBLE_EQ(t.at(0, 0).AsDoubleExact(), 3.0);
}

TEST(TableTest, StatsTrackMinMaxSumAndNulls) {
  Table t = MakeMeals();
  const ColumnStats& cal = t.stats(2);
  EXPECT_EQ(cal.non_null_count, 5);
  EXPECT_DOUBLE_EQ(*cal.min, 250.0);
  EXPECT_DOUBLE_EQ(*cal.max, 900.0);
  EXPECT_DOUBLE_EQ(cal.sum, 2700.0);
  EXPECT_DOUBLE_EQ(cal.mean(), 540.0);

  Table u("u", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(u.Append({Value::Null()}).ok());
  ASSERT_TRUE(u.Append({Value::Int(2)}).ok());
  EXPECT_EQ(u.stats(0).null_count, 1);
  EXPECT_EQ(u.stats(0).non_null_count, 1);
}

TEST(TableTest, ToStringShowsHeaderAndRows) {
  Table t = MakeMeals();
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("calories"), std::string::npos);
  EXPECT_NE(s.find("pasta"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

// ----- Expr ------------------------------------------------------------------

TEST(ExprTest, ComparisonAndArithmetic) {
  Table t = MakeMeals();
  // calories / 2 + 50 > 400
  ExprPtr e = Binary(
      BinaryOp::kGt,
      Binary(BinaryOp::kAdd,
             Binary(BinaryOp::kDiv, Col("calories"), LitDouble(2)),
             LitDouble(50)),
      LitDouble(400));
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_FALSE(*e->Matches(t.row(0)));  // 700/2+50 = 400, 400 > 400 is false

  EXPECT_TRUE(*e->Matches(t.row(2)));   // 900/2+50 = 500 > 400
}

TEST(ExprTest, QualifiedColumnNamesBind) {
  Table t = MakeMeals();
  ExprPtr e = Binary(BinaryOp::kEq, Col("R.gluten"), LitString("free"));
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_FALSE(*e->Matches(t.row(0)));
  EXPECT_TRUE(*e->Matches(t.row(1)));
}

TEST(ExprTest, UnboundColumnFails) {
  Table t = MakeMeals();
  ExprPtr e = Col("nonexistent");
  EXPECT_EQ(e->Bind(t.schema()).code(), StatusCode::kNotFound);
}

TEST(ExprTest, BetweenAndNegation) {
  Table t = MakeMeals();
  ExprPtr e = Between(Col("calories"), LitDouble(260), LitDouble(800));
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_TRUE(*e->Matches(t.row(0)));   // 700
  EXPECT_FALSE(*e->Matches(t.row(1)));  // 250
  ExprPtr ne = Between(Col("calories"), LitDouble(260), LitDouble(800),
                       /*negated=*/true);
  ASSERT_TRUE(ne->Bind(t.schema()).ok());
  EXPECT_FALSE(*ne->Matches(t.row(0)));
  EXPECT_TRUE(*ne->Matches(t.row(1)));
}

TEST(ExprTest, InList) {
  Table t = MakeMeals();
  ExprPtr e = In(Col("name"),
                 {Value::String("salad"), Value::String("soup")});
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_TRUE(*e->Matches(t.row(1)));
  EXPECT_FALSE(*e->Matches(t.row(0)));
}

TEST(ExprTest, LikePattern) {
  Table t = MakeMeals();
  ExprPtr e = Like(Col("name"), "s%");
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_TRUE(*e->Matches(t.row(1)));   // salad
  EXPECT_TRUE(*e->Matches(t.row(2)));   // steak
  EXPECT_FALSE(*e->Matches(t.row(0)));  // pasta
}

TEST(ExprTest, NullPropagationThreeValuedLogic) {
  Table t("t", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(t.Append({Value::Null()}).ok());
  // NULL > 5 evaluates to NULL, which does not match.
  ExprPtr cmp = Binary(BinaryOp::kGt, Col("x"), LitInt(5));
  ASSERT_TRUE(cmp->Bind(t.schema()).ok());
  EXPECT_FALSE(*cmp->Matches(t.row(0)));
  // NULL OR TRUE == TRUE.
  ExprPtr or_true = Binary(BinaryOp::kOr, cmp->Clone(), LitBool(true));
  ASSERT_TRUE(or_true->Bind(t.schema()).ok());
  EXPECT_TRUE(*or_true->Matches(t.row(0)));
  // NULL AND FALSE == FALSE (not NULL).
  ExprPtr and_false = Binary(BinaryOp::kAnd, cmp->Clone(), LitBool(false));
  ASSERT_TRUE(and_false->Bind(t.schema()).ok());
  Result<Value> v = and_false->Eval(t.row(0));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_bool());
  EXPECT_FALSE(v->AsBool());
  // IS NULL sees through.
  ExprPtr isnull = IsNull(Col("x"));
  ASSERT_TRUE(isnull->Bind(t.schema()).ok());
  EXPECT_TRUE(*isnull->Matches(t.row(0)));
}

TEST(ExprTest, DivisionByZeroIsError) {
  Table t = MakeMeals();
  ExprPtr e = Binary(BinaryOp::kDiv, Col("calories"), LitInt(0));
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_FALSE(e->Eval(t.row(0)).ok());
}

TEST(ExprTest, IntegerArithmeticStaysIntegral) {
  Table t("t", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(t.Append({Value::Int(7)}).ok());
  ExprPtr e = Binary(BinaryOp::kMod, Col("a"), LitInt(3));
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  Result<Value> v = e->Eval(t.row(0));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_int());
  EXPECT_EQ(v->AsInt(), 1);
}

TEST(ExprTest, IntegerOverflowIsError) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  Table t("t", Schema({{"a", ValueType::kInt}}));
  ASSERT_TRUE(t.Append({Value::Int(kMin)}).ok());
  const std::pair<ExprPtr, const char*> overflows[] = {
      {Unary(UnaryOp::kNeg, Col("a")), "INT overflow in unary -"},
      {Binary(BinaryOp::kSub, Col("a"), LitInt(1)), "INT overflow in -"},
      {Binary(BinaryOp::kAdd, LitInt(kMax), LitInt(1)), "INT overflow in +"},
      {Binary(BinaryOp::kMul, Col("a"), LitInt(2)), "INT overflow in *"},
      {Binary(BinaryOp::kDiv, Col("a"), LitInt(-1)), "INT overflow in /"},
  };
  for (const auto& [e, message] : overflows) {
    SCOPED_TRACE(e->ToString());
    ASSERT_TRUE(e->Bind(t.schema()).ok());
    Result<Value> v = e->Eval(t.row(0));
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(v.status().message(), message);
  }
  // a % -1 is 0 for every a, INT64_MIN included.
  ExprPtr mod = Binary(BinaryOp::kMod, Col("a"), LitInt(-1));
  ASSERT_TRUE(mod->Bind(t.schema()).ok());
  Result<Value> v = mod->Eval(t.row(0));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 0);
  // The largest in-range results still compute.
  ExprPtr add = Binary(BinaryOp::kAdd, LitInt(kMax - 1), LitInt(1));
  ASSERT_TRUE(add->Bind(t.schema()).ok());
  EXPECT_EQ(add->Eval(t.row(0))->AsInt(), kMax);
}

TEST(ExprTest, TypeErrorOnStringNumberComparison) {
  Table t = MakeMeals();
  ExprPtr e = Binary(BinaryOp::kLt, Col("name"), LitInt(3));
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_FALSE(e->Eval(t.row(0)).ok());
}

TEST(ExprTest, ToStringRoundTripReadable) {
  ExprPtr e = Binary(
      BinaryOp::kAnd,
      Binary(BinaryOp::kEq, Col("gluten"), LitString("free")),
      Between(Col("calories"), LitDouble(100), LitDouble(900)));
  EXPECT_EQ(e->ToString(),
            "(gluten = 'free' AND calories BETWEEN 100 AND 900)");
}

TEST(ExprTest, CloneIsDeep) {
  ExprPtr e = Binary(BinaryOp::kGt, Col("calories"), LitDouble(100));
  ExprPtr c = e->Clone();
  Table t = MakeMeals();
  ASSERT_TRUE(c->Bind(t.schema()).ok());
  // Original stays unbound.
  EXPECT_EQ(e->children[0]->column_index, -1);
  EXPECT_GE(c->children[0]->column_index, 0);
}

// ----- Ops -------------------------------------------------------------------

TEST(OpsTest, SelectFiltersRows) {
  Table t = MakeMeals();
  auto r = Select(t, Binary(BinaryOp::kEq, Col("gluten"), LitString("free")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3u);
}

TEST(OpsTest, SelectNullPredicateKeepsAll) {
  Table t = MakeMeals();
  auto r = Select(t, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 5u);
}

TEST(OpsTest, FilterIndicesMatchesSelect) {
  Table t = MakeMeals();
  ExprPtr pred = Binary(BinaryOp::kGt, Col("calories"), LitDouble(400));
  auto idx = FilterIndices(t, pred);
  ASSERT_TRUE(idx.ok());
  std::vector<size_t> expect = {0, 2, 4};
  EXPECT_EQ(*idx, expect);
}

TEST(OpsTest, ProjectReordersColumns) {
  Table t = MakeMeals();
  auto r = Project(t, {"name", "id"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().num_columns(), 2u);
  EXPECT_EQ(r->schema().column(0).name, "name");
  EXPECT_EQ(r->at(0, 1).AsInt(), 0);
  EXPECT_FALSE(Project(t, {"nope"}).ok());
}

TEST(OpsTest, OrderByAscendingAndDescending) {
  Table t = MakeMeals();
  auto asc = OrderBy(t, "calories", true);
  ASSERT_TRUE(asc.ok());
  EXPECT_DOUBLE_EQ(asc->at(0, 2).AsDoubleExact(), 250.0);
  auto desc = OrderBy(t, "calories", false);
  ASSERT_TRUE(desc.ok());
  EXPECT_DOUBLE_EQ(desc->at(0, 2).AsDoubleExact(), 900.0);
}

TEST(OpsTest, LimitTruncates) {
  Table t = MakeMeals();
  EXPECT_EQ(Limit(t, 2).num_rows(), 2u);
  EXPECT_EQ(Limit(t, 100).num_rows(), 5u);
}

TEST(OpsTest, AggregateCountSumAvgMinMax) {
  Table t = MakeMeals();
  EXPECT_EQ(Aggregate(t, AggFunc::kCount, nullptr)->AsInt(), 5);
  EXPECT_DOUBLE_EQ(*Aggregate(t, AggFunc::kSum, Col("calories"))->ToDouble(),
                   2700.0);
  EXPECT_DOUBLE_EQ(
      Aggregate(t, AggFunc::kAvg, Col("calories"))->AsDoubleExact(), 540.0);
  EXPECT_DOUBLE_EQ(*Aggregate(t, AggFunc::kMin, Col("calories"))->ToDouble(),
                   250.0);
  EXPECT_DOUBLE_EQ(*Aggregate(t, AggFunc::kMax, Col("calories"))->ToDouble(),
                   900.0);
}

TEST(OpsTest, AggregateEmptyInput) {
  Table t("t", Schema({{"x", ValueType::kInt}}));
  EXPECT_EQ(Aggregate(t, AggFunc::kCount, nullptr)->AsInt(), 0);
  EXPECT_TRUE(Aggregate(t, AggFunc::kSum, Col("x"))->is_null());
  EXPECT_TRUE(Aggregate(t, AggFunc::kMax, Col("x"))->is_null());
}

TEST(OpsTest, AggregateSkipsNulls) {
  Table t("t", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(t.Append({Value::Int(5)}).ok());
  ASSERT_TRUE(t.Append({Value::Null()}).ok());
  ASSERT_TRUE(t.Append({Value::Int(7)}).ok());
  EXPECT_EQ(Aggregate(t, AggFunc::kCount, Col("x"))->AsInt(), 2);
  EXPECT_EQ(Aggregate(t, AggFunc::kCount, nullptr)->AsInt(), 3);
  EXPECT_DOUBLE_EQ(*Aggregate(t, AggFunc::kSum, Col("x"))->ToDouble(), 12.0);
  EXPECT_DOUBLE_EQ(
      Aggregate(t, AggFunc::kAvg, Col("x"))->AsDoubleExact(), 6.0);
}

TEST(OpsTest, AggregateRowsWithMultiplicities) {
  Table t = MakeMeals();
  // Rows 1 (250 cal) x2 and 3 (300 cal) x1.
  auto sum = AggregateRows(t, AggFunc::kSum, Col("calories"), {1, 3}, {2, 1});
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(*sum->ToDouble(), 800.0);
  auto cnt = AggregateRows(t, AggFunc::kCount, nullptr, {1, 3}, {2, 1});
  EXPECT_EQ(cnt->AsInt(), 3);
  // MIN ignores multiplicity.
  auto mn = AggregateRows(t, AggFunc::kMin, Col("calories"), {1, 3}, {2, 1});
  EXPECT_DOUBLE_EQ(*mn->ToDouble(), 250.0);
}

TEST(OpsTest, AggregateRowsValidation) {
  Table t = MakeMeals();
  EXPECT_FALSE(AggregateRows(t, AggFunc::kSum, Col("calories"), {1}, {}).ok());
  EXPECT_FALSE(
      AggregateRows(t, AggFunc::kSum, Col("calories"), {99}, {1}).ok());
  EXPECT_FALSE(
      AggregateRows(t, AggFunc::kSum, Col("calories"), {1}, {-1}).ok());
}

TEST(OpsTest, GroupByCountsPerGroup) {
  Table t = MakeMeals();
  auto r = GroupBy(t, "gluten",
                   {{AggFunc::kCount, nullptr, "n"},
                    {AggFunc::kSum, Col("calories"), "total"}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  // Deterministic order: 'free' < 'full'.
  EXPECT_EQ(r->at(0, 0).AsString(), "free");
  EXPECT_EQ(r->at(0, 1).AsInt(), 3);
  EXPECT_DOUBLE_EQ(*r->at(0, 2).ToDouble(), 1450.0);
  EXPECT_EQ(r->at(1, 0).AsString(), "full");
  EXPECT_EQ(r->at(1, 1).AsInt(), 2);
}

TEST(OpsTest, CrossJoinCartesianSize) {
  Table t = MakeMeals();
  auto r = CrossJoin(t, t, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 25u);
  // Collided names get prefixed.
  EXPECT_TRUE(r->schema().HasColumn("meals.id"));
}

TEST(OpsTest, CrossJoinThetaPredicate) {
  Table t = MakeMeals();
  // Pairs whose calories sum below 600. Column names come from the join's
  // actual output schema (self-joins suffix the right side).
  auto joined = CrossJoin(t, t, nullptr);
  ASSERT_TRUE(joined.ok());
  // Find the two calorie columns by position instead of guessing names.
  std::string left_cal = joined->schema().column(2).name;
  std::string right_cal = joined->schema().column(6).name;
  ExprPtr pred2 = Binary(
      BinaryOp::kLt,
      Binary(BinaryOp::kAdd, Col(left_cal), Col(right_cal)),
      LitDouble(600));
  auto r = CrossJoin(t, t, pred2);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // (250,250)=500, (250,300)=550, (300,250)=550; (300,300)=600 misses "<".
  EXPECT_EQ(r->num_rows(), 3u);
}

// ----- CSV -------------------------------------------------------------------

TEST(CsvTest, ReadWithTypeInference) {
  std::istringstream in("id,name,score\n1,alpha,2.5\n2,beta,3\n3,gamma,\n");
  auto t = ReadCsv(in, "scores");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->schema().column(0).type, ValueType::kInt);
  EXPECT_EQ(t->schema().column(1).type, ValueType::kString);
  EXPECT_EQ(t->schema().column(2).type, ValueType::kDouble);
  EXPECT_TRUE(t->at(2, 2).is_null());  // empty cell
}

TEST(CsvTest, QuotedFieldsWithSeparatorsAndEscapes) {
  std::istringstream in(
      "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  auto t = ReadCsv(in, "q");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->at(0, 0).AsString(), "x,y");
  EXPECT_EQ(t->at(0, 1).AsString(), "he said \"hi\"");
}

TEST(CsvTest, RaggedRowFails) {
  std::istringstream in("a,b\n1,2\n3\n");
  EXPECT_EQ(ReadCsv(in, "bad").status().code(), StatusCode::kParseError);
}

TEST(CsvTest, RoundTrip) {
  Table t = MakeMeals();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, out).ok());
  std::istringstream in(out.str());
  auto back = ReadCsv(in, "meals");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      EXPECT_EQ(back->at(r, c).Compare(t.at(r, c)), 0)
          << "cell (" << r << "," << c << ")";
    }
  }
}

TEST(CsvTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/file.csv", "t").status().code(),
            StatusCode::kNotFound);
}

// ----- Catalog ---------------------------------------------------------------

TEST(CatalogTest, RegisterGetDrop) {
  Catalog c;
  ASSERT_TRUE(c.Register(MakeMeals()).ok());
  EXPECT_TRUE(c.Has("MEALS"));  // case-insensitive
  auto t = c.Get("meals");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 5u);
  EXPECT_EQ(c.Register(MakeMeals()).code(), StatusCode::kAlreadyExists);
  c.RegisterOrReplace(MakeMeals());
  ASSERT_TRUE(c.Drop("meals").ok());
  EXPECT_FALSE(c.Has("meals"));
  EXPECT_EQ(c.Drop("meals").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog c;
  Table a("zeta", Schema({{"x", ValueType::kInt}}));
  Table b("alpha", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(c.Register(std::move(a)).ok());
  ASSERT_TRUE(c.Register(std::move(b)).ok());
  auto names = c.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

}  // namespace
}  // namespace pb::db
