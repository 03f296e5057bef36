// The query planner and EXPLAIN — the §5 "Optimizing PaQL queries"
// challenge: "a more principled approach to package query optimization
// could add several benefits to the query engine."
//
// PlanQuery is the ONE routing decision in the system. It filters the
// candidates and derives the cardinality bounds once, then picks a typed
// route by the Auto policy, in order:
//   - pruning bounds prove infeasibility → Pruning (no search);
//   - a forced options.strategy → that route;
//   - linear query, maintained partitions, no MIN/MAX, resident table →
//     SketchRefine, falling back to the ILP; other linear → IlpSolver;
//   - non-linear → BruteForce up to 24 candidates, else LocalSearch,
//     falling back to a bounded BruteForce.
// QueryEvaluator and the Engine execute the plan and ExplainQuery prints
// it, so EXPLAIN shows the route the engine takes.

#ifndef PB_CORE_EXPLAIN_H_
#define PB_CORE_EXPLAIN_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/evaluator.h"
#include "core/pruning.h"
#include "paql/analyzer.h"

namespace pb::core {

/// The planner's decision for one query, plus the facts it rests on.
struct QueryPlan {
  Strategy chosen_strategy = Strategy::kAuto;  ///< the route, never kAuto
  /// Where execution goes when LocalSearch / SketchRefine find no package
  /// or the translator rejects the query. None for forced/Pruning routes.
  std::optional<Strategy> fallback;
  std::string rationale;
  /// The route's own un-cancelled answers (package or infeasibility proof)
  /// replay bit-for-bit, so they may be cached unproven: Pruning and
  /// maintained SketchRefine. Other answers are cached only when optimal.
  bool cacheable = false;

  // What planning computed (TranslateToIlp and SketchRefine re-filter).
  std::vector<size_t> candidate_rows;  ///< rows surviving WHERE, ascending
  CardinalityBounds bounds;            ///< §4.1 pruning
  bool proven_infeasible = false;      ///< the route is Pruning

  // Input shape.
  size_t table_rows = 0;
  size_t candidates = 0;          ///< candidate_rows.size()
  double base_selectivity = 1.0;  ///< candidates / table_rows

  // Constraint structure.
  size_t linear_constraints = 0;
  size_t extreme_constraints = 0;
  bool ilp_translatable = false;
  std::string not_translatable_reason;
  bool has_objective = false;
  bool objective_linear = false;

  // Translated model dimensions (ExplainQuery only, when translatable).
  int model_variables = 0;
  int model_rows = 0;

  /// Multi-line human-readable plan (EXPLAIN output).
  std::string ToString() const;
};

/// Plans the query under `options`. `maintained` says the caller keeps
/// SketchRefine partitions across calls (an Engine with
/// incremental_maintenance on); only then is SketchRefine a route.
Result<QueryPlan> PlanQuery(const paql::AnalyzedQuery& aq,
                            const EvaluationOptions& options,
                            bool maintained = false);

/// PlanQuery plus the translated model's size (EXPLAIN's one translation).
Result<QueryPlan> ExplainQuery(const paql::AnalyzedQuery& aq,
                               const EvaluationOptions& options = {},
                               bool maintained = false);

/// Convenience: parse + analyze + explain.
Result<QueryPlan> ExplainQuery(const std::string& paql,
                               const db::Catalog& catalog,
                               const EvaluationOptions& options = {},
                               bool maintained = false);

}  // namespace pb::core

#endif  // PB_CORE_EXPLAIN_H_
