// Differential tests for the column-at-a-time WHERE kernel
// (db/filter_kernel.cc): FilterIndices and Select must return exactly what
// the row path, internal::FilterIndicesRowwise, returns — the same rows,
// or the same error code and message — over random tables and random
// predicates. The tables hold INT, DOUBLE, STRING, BOOL and untyped
// columns with NULL-heavy (up to all-NULL) columns, NaN, ±0.0, infinities,
// int64 values beyond 2^53 (INT64_MIN included) and empty strings. The
// predicates are of two kinds: random trees over every ExprKind (literals
// on either side, column-vs-column comparisons, nested NOT/AND/OR, IN
// lists holding NULL and cross-type items), which the kernel mostly leaves
// to the row path; and ANDs of column ⊗ constant comparisons and BETWEENs,
// the shape it takes, salted with operands it does not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "datagen/lineitem.h"
#include "db/ops.h"
#include "db/table.h"
#include "storage/block_cache.h"
#include "storage/storage_budget.h"

namespace pb::db {
namespace {

constexpr int64_t kTwo53 = int64_t{1} << 53;

enum class Kind { kNum, kStr, kBool };

struct ColumnSpec {
  const char* name;
  ValueType type;  // kNull: untyped (per-cell Value) storage
};

const std::vector<ColumnSpec>& Columns() {
  static const std::vector<ColumnSpec> kColumns = {
      {"i", ValueType::kInt},    {"j", ValueType::kInt},
      {"d", ValueType::kDouble}, {"e", ValueType::kDouble},
      {"s", ValueType::kString}, {"t", ValueType::kString},
      {"b", ValueType::kBool},   {"c", ValueType::kBool},
      {"u", ValueType::kNull},
  };
  return kColumns;
}

Value RandomInt(Rng& rng) {
  static const int64_t kEdges[] = {kTwo53, kTwo53 + 1, -kTwo53 - 1,
                                   std::numeric_limits<int64_t>::max(),
                                   std::numeric_limits<int64_t>::min()};
  if (rng.Bernoulli(0.2)) return Value::Int(kEdges[rng.Index(5)]);
  return Value::Int(rng.UniformInt(-3, 8));
}

Value RandomDouble(Rng& rng) {
  static const double kEdges[] = {0.0,
                                  -0.0,
                                  1.5,
                                  -2.5,
                                  std::nan(""),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity(),
                                  static_cast<double>(kTwo53),
                                  static_cast<double>(kTwo53) + 2.0};
  if (rng.Bernoulli(0.35)) return Value::Double(kEdges[rng.Index(9)]);
  return Value::Double(static_cast<double>(rng.UniformInt(-3, 8)));
}

Value RandomString(Rng& rng) {
  static const char* kStrings[] = {"", "a", "ab", "b", "AIR", "air", "a%b",
                                   "_"};
  return Value::String(kStrings[rng.Index(8)]);
}

Value RandomOf(Rng& rng, Kind kind) {
  switch (kind) {
    case Kind::kNum:
      return rng.Bernoulli(0.5) ? RandomInt(rng) : RandomDouble(rng);
    case Kind::kStr:
      return RandomString(rng);
    case Kind::kBool:
      return Value::Bool(rng.Bernoulli(0.5));
  }
  return Value::Null();
}

Kind RandomKind(Rng& rng) { return static_cast<Kind>(rng.Index(3)); }

Table RandomTable(Rng& rng) {
  std::vector<ColumnDef> defs;
  for (const ColumnSpec& c : Columns()) defs.push_back({c.name, c.type});
  Table t("rand", Schema(defs));
  static const size_t kSizes[] = {0, 1, 63, 64, 65, 130, 200};
  const size_t rows = rng.Bernoulli(0.5) ? kSizes[rng.Index(7)]
                                         : rng.Index(201);
  static const double kNullRates[] = {0.0, 0.1, 0.5, 0.9, 1.0};
  std::vector<double> null_rate;
  for (size_t c = 0; c < Columns().size(); ++c) {
    null_rate.push_back(kNullRates[rng.Index(5)]);
  }
  for (size_t r = 0; r < rows; ++r) {
    Tuple row;
    for (size_t c = 0; c < Columns().size(); ++c) {
      if (rng.Bernoulli(null_rate[c])) {
        row.push_back(Value::Null());
        continue;
      }
      switch (Columns()[c].type) {
        case ValueType::kInt: row.push_back(RandomInt(rng)); break;
        case ValueType::kDouble: row.push_back(RandomDouble(rng)); break;
        case ValueType::kString: row.push_back(RandomString(rng)); break;
        case ValueType::kBool: row.push_back(Value::Bool(rng.Bernoulli(0.5)));
          break;
        default: row.push_back(RandomOf(rng, RandomKind(rng))); break;
      }
    }
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

/// Random predicate trees over the Columns() schema. Operands mostly agree
/// in kind, so a minority of trees raise a TypeError on the row path.
class PredicateGen {
 public:
  explicit PredicateGen(Rng* rng) : rng_(*rng) {}

  ExprPtr Predicate(int depth) {
    const int pick = static_cast<int>(rng_.Index(depth > 0 ? 10 : 7));
    switch (pick) {
      case 0:
      case 1: {
        const Kind k = RandomKind(rng_);
        ExprPtr l = Operand(k);
        ExprPtr r = Operand(rng_.Bernoulli(0.85) ? k : RandomKind(rng_));
        const auto op = static_cast<BinaryOp>(
            static_cast<int>(BinaryOp::kEq) + rng_.UniformInt(0, 5));
        return Binary(op, l, r);
      }
      case 2: {
        const Kind k = RandomKind(rng_);
        auto bound = [&] {
          return rng_.Bernoulli(0.8) ? Literal(k) : Operand(RandomKind(rng_));
        };
        ExprPtr arg = Operand(k);
        ExprPtr lo = bound();
        ExprPtr hi = bound();
        return Between(arg, lo, hi, rng_.Bernoulli(0.3));
      }
      case 3: {
        const Kind k = RandomKind(rng_);
        std::vector<Value> list;
        const size_t items = rng_.Index(5);
        for (size_t n = 0; n < items; ++n) {
          if (rng_.Bernoulli(0.15)) {
            list.push_back(Value::Null());
          } else {
            list.push_back(RandomOf(rng_, rng_.Bernoulli(0.8)
                                              ? k : RandomKind(rng_)));
          }
        }
        return In(Operand(k), std::move(list), rng_.Bernoulli(0.3));
      }
      case 4: {
        ExprPtr arg = depth > 0 && rng_.Bernoulli(0.3)
                          ? Predicate(depth - 1)
                          : Operand(RandomKind(rng_));
        return IsNull(arg, rng_.Bernoulli(0.5));
      }
      case 5: {
        static const char* kPatterns[] = {"a%", "%", "_", "a_", "%b", "",
                                          "AIR", "%a%"};
        ExprPtr arg = Operand(rng_.Bernoulli(0.9) ? Kind::kStr
                                                  : RandomKind(rng_));
        return Like(arg, kPatterns[rng_.Index(8)], rng_.Bernoulli(0.3));
      }
      case 6:
        if (rng_.Bernoulli(0.2)) {
          // TRUE / FALSE / NULL, or now and then a non-BOOL predicate.
          static const Value kConsts[] = {Value::Bool(true),
                                          Value::Bool(false), Value::Null(),
                                          Value::Int(1)};
          return Lit(kConsts[rng_.Index(4)]);
        }
        return Column(rng_.Bernoulli(0.85) ? Kind::kBool : RandomKind(rng_));
      case 7:
        return Unary(UnaryOp::kNot, Predicate(depth - 1));
      default: {
        ExprPtr l = Predicate(depth - 1);
        ExprPtr r = Predicate(depth - 1);
        return Binary(pick == 8 ? BinaryOp::kAnd : BinaryOp::kOr, l, r);
      }
    }
  }

  /// An AND of one to three column ⊗ constant comparisons or BETWEENs: the
  /// kernel's shape, now and then with a term it leaves to the row path (a
  /// NULL or cross-kind constant, a BOOL or untyped column, NOT BETWEEN).
  ExprPtr Conjunction() {
    ExprPtr out;
    for (size_t n = 1 + rng_.Index(3); n > 0; --n) {
      const Kind k = rng_.Bernoulli(0.9) ? static_cast<Kind>(rng_.Index(2))
                                         : Kind::kBool;
      ExprPtr term;
      if (rng_.Bernoulli(0.25)) {
        term = Between(Column(k), Constant(k), Constant(k),
                       rng_.Bernoulli(0.1));
      } else {
        const auto op = static_cast<BinaryOp>(
            static_cast<int>(BinaryOp::kEq) + rng_.UniformInt(0, 5));
        ExprPtr c = Column(k);
        ExprPtr v = Constant(rng_.Bernoulli(0.95) ? k : RandomKind(rng_));
        term = rng_.Bernoulli(0.5) ? Binary(op, c, v) : Binary(op, v, c);
      }
      out = out ? Binary(BinaryOp::kAnd, out, term) : term;
    }
    return out;
  }

 private:
  ExprPtr Column(Kind k) {
    if (rng_.Bernoulli(0.1)) return Col("u");
    static const std::vector<std::string> kNames[] = {
        {"i", "j", "d", "e"}, {"s", "t"}, {"b", "c"}};
    const std::vector<std::string>& names = kNames[static_cast<int>(k)];
    return Col(names[rng_.Index(names.size())]);
  }

  ExprPtr Literal(Kind k) {
    if (rng_.Bernoulli(0.08)) return Lit(Value::Null());
    return Lit(RandomOf(rng_, k));
  }

  /// A literal, or for numbers now and then a negated one.
  ExprPtr Constant(Kind k) {
    if (k == Kind::kNum && rng_.Bernoulli(0.2)) {
      return Unary(UnaryOp::kNeg, Lit(RandomOf(rng_, k)));
    }
    return Literal(k);
  }

  /// A column, a literal, a negated literal (the parser's `-5`), or
  /// column arithmetic (which the kernel leaves to the row path).
  ExprPtr Operand(Kind k) {
    const double p = rng_.UniformReal(0, 1);
    if (p < 0.5) return Column(k);
    if (p < 0.85 || k != Kind::kNum) return Literal(k);
    if (p < 0.93) return Unary(UnaryOp::kNeg, Lit(RandomOf(rng_, k)));
    return Binary(rng_.Bernoulli(0.5) ? BinaryOp::kAdd : BinaryOp::kSub,
                  Column(k), LitInt(rng_.UniformInt(-3, 3)));
  }

  Rng& rng_;
};

/// Tallies how often the kernel took a predicate and how often the row
/// path raised an error, so the suite can assert it covered both.
struct Tally {
  int predicates = 0;
  int taken = 0;
  int errors = 0;
};

/// Asserts FilterIndices, Select and (when it takes the predicate) the
/// kernel alone all agree with the row-path oracle.
void ExpectSameAsRowwise(const Table& table, const ExprPtr& pred,
                         Tally* tally) {
  SCOPED_TRACE(pred->ToString());
  ++tally->predicates;
  const auto oracle = internal::FilterIndicesRowwise(table, pred);
  const auto fast = FilterIndices(table, pred);
  const auto selected = Select(table, pred);
  ASSERT_EQ(fast.ok(), oracle.ok());
  ASSERT_EQ(selected.ok(), oracle.ok());
  if (!oracle.ok()) {
    ++tally->errors;
    EXPECT_EQ(fast.status().code(), oracle.status().code());
    EXPECT_EQ(fast.status().message(), oracle.status().message());
    EXPECT_EQ(selected.status().code(), oracle.status().code());
    EXPECT_EQ(selected.status().message(), oracle.status().message());
  } else {
    EXPECT_EQ(*fast, *oracle);
    ASSERT_EQ(selected->num_rows(), oracle->size());
    for (size_t k = 0; k < oracle->size(); ++k) {
      EXPECT_EQ(TupleToString(selected->row(k)),
                TupleToString(table.row((*oracle)[k])));
    }
  }
  ExprPtr bound = pred->Clone();
  if (!bound->Bind(table.schema()).ok()) return;
  if (auto columnar = internal::FilterIndicesColumnar(table, *bound)) {
    ++tally->taken;
    ASSERT_TRUE(oracle.ok()) << "the kernel took a predicate that errors";
    EXPECT_EQ(*columnar, *oracle);
  }
}

TEST(FilterKernelTest, MatchesRowwiseOracleOnRandomTablesAndPredicates) {
  Tally tally;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 7919 + 13);
    const Table table = RandomTable(rng);
    PredicateGen gen(&rng);
    for (int p = 0; p < 60; ++p) {
      ExpectSameAsRowwise(table,
                          p % 2 == 0
                              ? gen.Conjunction()
                              : gen.Predicate(static_cast<int>(rng.Index(4))),
                          &tally);
      if (HasFatalFailure()) return;
    }
  }
  // The differential check means little unless both routes ran often and
  // the row path's errors were exercised.
  EXPECT_GT(tally.taken, tally.predicates / 4);
  EXPECT_GT(tally.errors, tally.predicates / 40);
  EXPECT_LT(tally.errors + tally.taken, tally.predicates);
}

Table EdgeTable() {
  Table t("edge", Schema({{"i", ValueType::kInt},
                          {"d", ValueType::kDouble},
                          {"s", ValueType::kString},
                          {"b", ValueType::kBool}}));
  const double nan = std::nan("");
  t.AppendUnchecked({Value::Int(kTwo53 + 1), Value::Double(nan),
                     Value::String(""), Value::Bool(true)});
  t.AppendUnchecked({Value::Int(kTwo53), Value::Double(-0.0),
                     Value::String("AIR"), Value::Bool(false)});
  t.AppendUnchecked({Value::Null(), Value::Double(0.0), Value::Null(),
                     Value::Null()});
  t.AppendUnchecked({Value::Int(-1), Value::Null(), Value::String("b"),
                     Value::Bool(true)});
  return t;
}

std::vector<size_t> Rows(const Table& t, const ExprPtr& pred) {
  auto rows = FilterIndices(t, pred);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<size_t>{};
}

/// Whether the kernel takes `pred` over `t`.
bool Taken(const Table& t, const ExprPtr& pred) {
  ExprPtr bound = pred->Clone();
  EXPECT_TRUE(bound->Bind(t.schema()).ok());
  return internal::FilterIndicesColumnar(t, *bound).has_value();
}

TEST(FilterKernelTest, MirrorsValueCompareOnEdgeValues) {
  const Table t = EdgeTable();
  using V = std::vector<size_t>;
  const std::pair<ExprPtr, V> cases[] = {
      // INT is cast to double: 2^53 + 1 rounds to 2^53.
      {Binary(BinaryOp::kEq, Col("i"), LitInt(kTwo53)), {0, 1}},
      // NaN compares equal to every number; -0.0 equals 0.0.
      {Binary(BinaryOp::kEq, Col("d"), LitDouble(0.0)), {0, 1, 2}},
      {Binary(BinaryOp::kLt, Col("d"), LitDouble(5.0)), {1, 2}},
      // Literal on the left mirrors the operator.
      {Binary(BinaryOp::kGt, LitInt(0), Col("i")), {3}},
      // The empty string sorts first; <> skips NULL cells.
      {Binary(BinaryOp::kLt, Col("s"), LitString("A")), {0}},
      {Binary(BinaryOp::kNe, Col("s"), LitString("AIR")), {0, 3}},
      // BETWEEN is inclusive at both ends.
      {Between(Col("i"), LitInt(-1), LitDouble(static_cast<double>(kTwo53))),
       {0, 1, 3}},
      // The parser writes `-1` as a negated literal; it folds to a constant.
      {Binary(BinaryOp::kEq, Col("i"), Unary(UnaryOp::kNeg, LitInt(1))), {3}},
      // Nested ANDs: every conjunct must hold.
      {Binary(BinaryOp::kAnd, Binary(BinaryOp::kGe, Col("i"), LitInt(0)),
              Binary(BinaryOp::kAnd,
                     Binary(BinaryOp::kEq, Col("s"), LitString("AIR")),
                     Binary(BinaryOp::kLe, Col("d"), LitDouble(0.0)))),
       {1}},
  };
  for (const auto& [pred, rows] : cases) {
    SCOPED_TRACE(pred->ToString());
    EXPECT_TRUE(Taken(t, pred));
    EXPECT_EQ(Rows(t, pred), rows);
  }
}

TEST(FilterKernelTest, LeavesOtherShapesToTheRowPath) {
  const Table t = EdgeTable();
  const ExprPtr preds[] = {
      Binary(BinaryOp::kOr, Binary(BinaryOp::kEq, Col("i"), LitInt(-1)),
             IsNull(Col("s"))),
      Unary(UnaryOp::kNot, Binary(BinaryOp::kEq, Col("i"), LitInt(-1))),
      In(Col("i"), {Value::Int(-1), Value::Null()}),
      Like(Col("s"), "A%"),
      IsNull(Col("d"), true),
      Binary(BinaryOp::kLt, Col("i"), Col("d")),
      Binary(BinaryOp::kEq, Col("i"), Lit(Value::Null())),
      Binary(BinaryOp::kEq, Col("b"), LitBool(true)),
      Binary(BinaryOp::kEq, Col("s"), LitBool(true)),
      Between(Col("s"), LitInt(0), LitInt(9)),
      Between(Col("i"), LitInt(0), LitInt(9), /*negated=*/true),
      Binary(BinaryOp::kGt, Binary(BinaryOp::kAdd, Col("i"), LitInt(1)),
             LitInt(0)),
  };
  for (const ExprPtr& pred : preds) {
    SCOPED_TRACE(pred->ToString());
    EXPECT_FALSE(Taken(t, pred));
    const auto fast = FilterIndices(t, pred);
    const auto oracle = internal::FilterIndicesRowwise(t, pred);
    ASSERT_TRUE(oracle.ok());
    ASSERT_TRUE(fast.ok());
    EXPECT_EQ(*fast, *oracle);
  }
}

TEST(FilterKernelTest, ErrorsMatchTheRowPathByteForByte) {
  const Table t = EdgeTable();
  const ExprPtr preds[] = {
      Binary(BinaryOp::kEq, Col("s"), LitInt(5)),
      Binary(BinaryOp::kLt, LitDouble(1.0), Col("b")),
      Binary(BinaryOp::kAnd, Col("i"), LitBool(true)),
      Like(Col("d"), "%"),
      Col("nope"),
      // A constant that overflows errors on the first row, kernel shape
      // or not.
      Binary(BinaryOp::kEq, Col("i"),
             Unary(UnaryOp::kNeg,
                   LitInt(std::numeric_limits<int64_t>::min()))),
  };
  for (const ExprPtr& pred : preds) {
    SCOPED_TRACE(pred->ToString());
    const auto fast = FilterIndices(t, pred);
    const auto oracle = internal::FilterIndicesRowwise(t, pred);
    ASSERT_FALSE(oracle.ok());
    ASSERT_FALSE(fast.ok());
    EXPECT_EQ(fast.status().code(), oracle.status().code());
    EXPECT_EQ(fast.status().message(), oracle.status().message());
  }
  EXPECT_EQ(FilterIndices(t, Binary(BinaryOp::kEq, Col("s"), LitInt(5)))
                .status()
                .message(),
            "cannot compare STRING with INT");
}

TEST(FilterKernelTest, SpilledColumnsStayOnTheRowPathUncharged) {
  Table resident = datagen::GenerateLineitems(300, 5);
  Table spilled = resident;
  storage::BlockCache cache(/*budget_bytes=*/0);
  ASSERT_TRUE(spilled
                  .SpillToDisk(::testing::TempDir() + "/filter_kernel.seg",
                               /*block_size=*/64, &cache)
                  .ok());
  ASSERT_TRUE(spilled.spilled());

  const ExprPtr on_numbers = Binary(
      BinaryOp::kAnd, Binary(BinaryOp::kLe, Col("quantity"), LitInt(20)),
      Between(Col("extendedprice"), LitDouble(100), LitDouble(60000)));
  const ExprPtr on_strings =
      Binary(BinaryOp::kEq, Col("shipmode"), LitString("AIR"));
  const ExprPtr on_both = Binary(BinaryOp::kOr, on_numbers, on_strings);

  // A 1-byte budget refuses every bulk pin: the filter must not charge it.
  storage::StorageBudget budget = storage::StorageBudget::Limited(1);
  {
    storage::StorageBudgetScope scope(budget);
    Tally tally;
    for (const ExprPtr& pred : {on_numbers, on_strings, on_both}) {
      ExpectSameAsRowwise(spilled, pred, &tally);
      EXPECT_EQ(Rows(spilled, pred), Rows(resident, pred));
    }
    // Only the STRING-only predicate reads no spilled column.
    EXPECT_EQ(tally.taken, 1);
  }
  EXPECT_EQ(budget.peak_pinned_bytes(), 0);
  EXPECT_TRUE(spilled.spilled());
  EXPECT_TRUE(spilled.column_data(*spilled.schema().IndexOf("quantity"))
                  .spilled());
}

TEST(FilterKernelTest, ConcurrentCallsAgree) {
  // Engine readers filter the same table from several threads at once.
  const Table table = datagen::GenerateLineitems(2000, 11);
  const std::vector<ExprPtr> preds = {
      Binary(BinaryOp::kEq, Col("shipmode"), LitString("AIR")),
      Between(Col("quantity"), LitInt(5), LitInt(30)),
      Binary(BinaryOp::kAnd,
             Binary(BinaryOp::kEq, Col("shipmode"), LitString("AIR")),
             Binary(BinaryOp::kLt, Col("discount"), LitDouble(0.05))),
  };
  std::vector<std::vector<size_t>> expected;
  for (const ExprPtr& p : preds) {
    auto rows = internal::FilterIndicesRowwise(table, p);
    ASSERT_TRUE(rows.ok());
    ASSERT_FALSE(rows->empty());
    expected.push_back(*rows);
  }
  const int threads = std::max(1, EnvInt("PB_TEST_THREADS", 4));
  std::vector<int> mismatches(threads, 0);
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      for (int round = 0; round < 20; ++round) {
        for (size_t p = 0; p < preds.size(); ++p) {
          auto rows = FilterIndices(table, preds[p]);
          if (!rows.ok() || *rows != expected[p]) ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (int w = 0; w < threads; ++w) EXPECT_EQ(mismatches[w], 0);
}

}  // namespace
}  // namespace pb::db
