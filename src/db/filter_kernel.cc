// Column-at-a-time WHERE evaluation: the kernel behind FilterIndices and
// Select (db/ops.h).
//
// The row path (Expr::Matches(table, row)) materializes one Value per
// referenced cell, a string copy for every STRING cell, and dispatches on
// the variant at every node of every row. The kernel takes the common
// shape of a PaQL base predicate instead, an AND of column ⊗ constant
// comparisons, and evaluates each comparison as one tight loop over the
// column's typed span (ints(), doubles(), strings()) into a word mask of
// qualifying rows, skipping the words an earlier conjunct already cleared.
//
// Shapes it takes, nested under any number of ANDs:
//   - col ⊗ constant and constant ⊗ col, for ⊗ in = <> < <= > >=;
//   - col BETWEEN constant AND constant.
// A "constant" is any subtree without a column reference (a literal, or a
// negated one as the parser writes `-5`), evaluated once through the row
// evaluator; the column is a resident INT, DOUBLE or STRING column, and
// the constant a number for a numeric column or a string for a STRING one.
// Such a conjunct raises no error on any row, and a row qualifies iff every
// conjunct is TRUE (a NULL cell makes its conjunct NULL, which an AND can
// never turn TRUE), so one mask is exact. Comparisons use Value::Compare's
// ordering through the helpers it shares (db/value.h).
//
// Everything else stays on the row path (Conjuncts returns false): OR,
// NOT, IN, LIKE, IS NULL, column-vs-column, arithmetic over columns, NULL
// constants, BOOL and untyped (kNull-storage) columns, comparisons across
// type classes (whose TypeError only the row path raises, row by row), and
// spilled columns, whose per-cell reads the row path keeps outside
// StorageBudget accounting.

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "db/ops.h"

namespace pb::db::internal {

namespace {

using Words = std::vector<uint64_t>;

/// The three-way signs c ∈ {-1, 0, +1} a comparison accepts: bit c + 1.
using SignSet = unsigned;
constexpr SignSet kLess = 1, kEqual = 2, kGreater = 4;

SignSet SignsOf(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return kEqual;
    case BinaryOp::kNe: return kLess | kGreater;
    case BinaryOp::kLt: return kLess;
    case BinaryOp::kLe: return kLess | kEqual;
    case BinaryOp::kGt: return kGreater;
    case BinaryOp::kGe: return kGreater | kEqual;
    default: return 0;
  }
}

/// The set accepting the same rows with the operands swapped.
SignSet Mirror(SignSet s) {
  return (s & kEqual) | ((s & kLess) << 2) | ((s & kGreater) >> 2);
}

inline bool Accepts(SignSet s, int c) { return (s >> (c + 1)) & 1; }

/// One conjunct: cell ⊗ constant accepts the signs `signs`.
struct Conjunct {
  const Column* column;
  Value constant;
  SignSet signs;
};

bool HasColumnRef(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return true;
  return std::any_of(e.children.begin(), e.children.end(),
                     [](const ExprPtr& c) { return HasColumnRef(*c); });
}

class Compiler {
 public:
  explicit Compiler(const Table& table) : table_(table) {}

  /// Appends the conjuncts of `e` to `out`; false when the kernel does not
  /// take `e`.
  bool Conjuncts(const Expr& e, std::vector<Conjunct>* out) const {
    if (e.kind == ExprKind::kBetween) {
      const Column* c = ColumnOf(*e.children[0]);
      auto lo = ConstantFor(c, *e.children[1]);
      auto hi = ConstantFor(c, *e.children[2]);
      if (e.negated || !lo || !hi) return false;
      out->push_back({c, std::move(*lo), kGreater | kEqual});
      out->push_back({c, std::move(*hi), kLess | kEqual});
      return true;
    }
    if (e.kind != ExprKind::kBinary) return false;
    if (e.binary_op == BinaryOp::kAnd) {
      return Conjuncts(*e.children[0], out) && Conjuncts(*e.children[1], out);
    }
    if (!IsComparisonOp(e.binary_op)) return false;
    const SignSet signs = SignsOf(e.binary_op);
    if (const Column* c = ColumnOf(*e.children[0])) {
      auto v = ConstantFor(c, *e.children[1]);
      if (!v) return false;
      out->push_back({c, std::move(*v), signs});
      return true;
    }
    if (const Column* c = ColumnOf(*e.children[1])) {
      auto v = ConstantFor(c, *e.children[0]);
      if (!v) return false;
      out->push_back({c, std::move(*v), Mirror(signs)});
      return true;
    }
    return false;
  }

 private:
  /// The resident INT / DOUBLE / STRING column `e` names, else nullptr.
  const Column* ColumnOf(const Expr& e) const {
    if (e.kind != ExprKind::kColumnRef) return nullptr;
    const Column& c = table_.column_data(e.column_index);
    const ValueType t = c.storage_type();
    if (c.spilled() || !(IsNumericType(t) || t == ValueType::kString)) {
      return nullptr;
    }
    return &c;
  }

  /// `e` folded to a constant of `c`'s type class, else nullopt.
  static std::optional<Value> ConstantFor(const Column* c, const Expr& e) {
    if (c == nullptr || HasColumnRef(e)) return std::nullopt;
    auto v = e.Eval(Tuple{});
    if (!v.ok()) return std::nullopt;
    const bool numeric = IsNumericType(c->storage_type());
    if (numeric ? !v->is_numeric() : !v->is_string()) return std::nullopt;
    return std::move(*v);
  }

  const Table& table_;
};

/// Clears, in each nonzero word of `mask`, the rows i (< n) that are NULL
/// in `c` or fail test(i).
template <typename Test>
void AndRows(const Column& c, size_t n, Words* mask, Test test) {
  const uint64_t* nulls = c.nulls().words();
  for (size_t w = 0; w < mask->size(); ++w) {
    if ((*mask)[w] == 0) continue;
    const size_t base = w * 64, end = std::min(n, base + 64);
    uint64_t bits = 0;
    for (size_t i = base; i < end; ++i) {
      bits |= static_cast<uint64_t>(test(i)) << (i - base);
    }
    (*mask)[w] &= bits & ~nulls[w];
  }
}

void AndConjunct(const Conjunct& k, size_t n, Words* mask) {
  const Column& c = *k.column;
  const SignSet s = k.signs;
  switch (c.storage_type()) {
    case ValueType::kInt:
    case ValueType::kDouble: {
      const double b = k.constant.is_int()
                           ? static_cast<double>(k.constant.AsInt())
                           : k.constant.AsDoubleExact();
      if (c.storage_type() == ValueType::kInt) {
        const int64_t* a = c.ints().data();
        AndRows(c, n, mask, [&](size_t i) {
          return Accepts(s, CompareDoubles(static_cast<double>(a[i]), b));
        });
      } else {
        const double* a = c.doubles().data();
        AndRows(c, n, mask,
                [&](size_t i) { return Accepts(s, CompareDoubles(a[i], b)); });
      }
      return;
    }
    case ValueType::kString: {
      const std::vector<std::string>& a = c.strings();
      const std::string& b = k.constant.AsString();
      if (s == kEqual || s == (kLess | kGreater)) {  // = or <>: no ordering
        const bool want = s == kEqual;
        AndRows(c, n, mask, [&](size_t i) { return (a[i] == b) == want; });
      } else {
        AndRows(c, n, mask,
                [&](size_t i) { return Accepts(s, CompareStrings(a[i], b)); });
      }
      return;
    }
    default:
      PB_DCHECK(false) << "the compiler takes only INT, DOUBLE and STRING";
  }
}

}  // namespace

std::optional<std::vector<size_t>> FilterIndicesColumnar(const Table& table,
                                                         const Expr& bound) {
  std::vector<Conjunct> conjuncts;
  if (!Compiler(table).Conjuncts(bound, &conjuncts)) return std::nullopt;
  const size_t n = table.num_rows();
  // Every conjunct clears the bits past n, and there is at least one.
  Words mask((n + 63) / 64, ~uint64_t{0});
  for (const Conjunct& k : conjuncts) AndConjunct(k, n, &mask);
  std::vector<size_t> rows;
  for (size_t w = 0; w < mask.size(); ++w) {
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      rows.push_back(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
  return rows;
}

}  // namespace pb::db::internal
