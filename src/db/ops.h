// Relational operators over Tables: selection, projection, ordering,
// aggregation, and joins. These are exactly the operations the paper's
// evaluation strategies issue "via SQL" against the DBMS:
//   - base constraints  -> Select / FilterIndices
//   - package validation -> Aggregate
//   - local-search replacement queries (§4.2) -> CrossJoin + Select

#ifndef PB_DB_OPS_H_
#define PB_DB_OPS_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/expr.h"
#include "db/table.h"

namespace pb::db {

/// Rows of `table` satisfying `pred` (a bound or bindable predicate),
/// as a new table. `pred` may be null: all rows qualify.
Result<Table> Select(const Table& table, const ExprPtr& pred,
                     const std::string& result_name = "select");

/// Indices of rows satisfying `pred` (null = all rows). This is the form the
/// package engine uses: packages reference base tuples by index.
///
/// Select and FilterIndices evaluate `pred` column-at-a-time over the typed
/// column spans when the column kernel (db/filter_kernel.cc) takes it, and
/// row by row (internal::FilterIndicesRowwise) otherwise; both routes return
/// the same rows and the same errors.
Result<std::vector<size_t>> FilterIndices(const Table& table,
                                          const ExprPtr& pred);

namespace internal {

/// FilterIndices row by row: Expr::Matches(table, row) for every row. The
/// route for predicates the column kernel does not take, and the oracle the
/// kernel is tested against.
Result<std::vector<size_t>> FilterIndicesRowwise(const Table& table,
                                                 const ExprPtr& pred);

/// The column kernel alone, over `bound` (already bound against `table`'s
/// schema): the matching rows, or nullopt when the kernel does not take the
/// predicate (see db/filter_kernel.cc). Never an error: it takes only
/// predicates that raise none on any row.
std::optional<std::vector<size_t>> FilterIndicesColumnar(const Table& table,
                                                         const Expr& bound);

}  // namespace internal

/// Keeps the named columns, in the given order.
Result<Table> Project(const Table& table,
                      const std::vector<std::string>& columns,
                      const std::string& result_name = "project");

/// Stable sort by one column.
Result<Table> OrderBy(const Table& table, const std::string& column,
                      bool ascending = true);

/// First `n` rows.
Table Limit(const Table& table, size_t n);

enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncToString(AggFunc f);

/// Aggregates `arg` over all rows. For kCount, `arg` may be null (COUNT(*)).
/// SQL semantics: NULL inputs are skipped; empty input yields NULL for
/// SUM/AVG/MIN/MAX and 0 for COUNT.
Result<Value> Aggregate(const Table& table, AggFunc func, const ExprPtr& arg);

/// Aggregate over a subset of row indices (with multiplicities), used to
/// validate packages without materializing them.
Result<Value> AggregateRows(const Table& table, AggFunc func,
                            const ExprPtr& arg,
                            const std::vector<size_t>& rows,
                            const std::vector<int64_t>& multiplicities);

/// Group-by with a single grouping column and a list of (func, arg, name)
/// aggregate outputs.
struct AggSpec {
  AggFunc func;
  ExprPtr arg;  // may be null for COUNT(*)
  std::string output_name;
};
Result<Table> GroupBy(const Table& table, const std::string& group_column,
                      const std::vector<AggSpec>& aggs,
                      const std::string& result_name = "groupby");

/// Cartesian product with an optional theta predicate evaluated over the
/// concatenated row. Columns are prefixed "left.x" / "right.x" when names
/// collide; otherwise original names are kept.
Result<Table> CrossJoin(const Table& left, const Table& right,
                        const ExprPtr& pred,
                        const std::string& result_name = "join");

/// Evaluates `expr` for each index in `rows` as a double (nullopt for SQL
/// NULL). When `expr` is a bare reference to a numeric column this is one
/// vectorized gather over the contiguous column span; otherwise it falls
/// back to per-row expression evaluation. A clone of `expr` is bound
/// against `table` internally; out-of-range row indices are an error.
Result<std::vector<std::optional<double>>> GatherNumeric(
    const Table& table, const ExprPtr& expr, const std::vector<size_t>& rows);

/// As GatherNumeric, but `expr` must already be bound against `table`'s
/// schema — the repeated-call form (no per-call clone + bind).
Result<std::vector<std::optional<double>>> GatherNumericBound(
    const Table& table, const Expr& expr, const std::vector<size_t>& rows);

}  // namespace pb::db

#endif  // PB_DB_OPS_H_
