// QueryEvaluator: the front door of the evaluation engine.
//
// The paper (§4) lists the system's strategies — SQL-validated candidate
// generation, ILP translation + constraint solver, cardinality pruning, and
// heuristic local search — and §5 notes that PackageBuilder "heuristically
// combines all of them". The combination is one decision, PlanQuery
// (core/explain.h, where the Auto policy is spelled out): QueryEvaluator
// executes its plan, the Engine executes the same plan around its caches,
// and EXPLAIN prints it. Explicit strategies force one route (benches).

#ifndef PB_CORE_EVALUATOR_H_
#define PB_CORE_EVALUATOR_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "core/brute_force.h"
#include "core/local_search.h"
#include "core/package.h"
#include "core/pruning.h"
#include "db/catalog.h"
#include "solver/milp.h"

namespace pb::core {

/// Every route a query can take. StrategyToString gives the names the
/// wire protocol reports in QueryResponse::strategy.
enum class Strategy {
  kAuto,          ///< the Auto policy (an option, never a route)
  kIlpSolver,     ///< translate + branch-and-bound (exact for linear queries)
  kBruteForce,    ///< exhaustive (exact for every query shape)
  kLocalSearch,   ///< heuristic (fast, incomplete)
  kPruning,       ///< cardinality bounds prove infeasibility; no search
  kSketchRefine,  ///< maintained SketchRefine (Engine, incremental only)
};

const char* StrategyToString(Strategy s);

struct EvaluationOptions {
  Strategy strategy = Strategy::kAuto;
  /// Apply §4.1 cardinality pruning (bounds row for the solver, cardinality
  /// clamps for search strategies). Off only for ablation benches.
  bool use_pruning = true;
  solver::MilpOptions milp;
  LocalSearchOptions local_search;
  BruteForceOptions brute_force;
};

struct EvaluationResult {
  Package package;
  /// Objective value (0 when the query has none).
  double objective = 0.0;
  Strategy strategy_used = Strategy::kAuto;
  /// True when the strategy proves optimality (solver optimal / exhaustive
  /// brute force); local-search answers are valid but possibly suboptimal.
  bool proven_optimal = false;
  CardinalityBounds bounds;
  double seconds = 0.0;
  size_t num_candidates = 0;
  /// Solver diagnostics (IlpSolver answers).
  std::optional<solver::MilpResult> milp;
};

struct QueryPlan;
struct IlpTranslation;

/// Runs `plan`'s route, then its fallback if the route fails as planned.
/// kSketchRefine needs the Engine's partitions: here it takes the ILP.
Result<EvaluationResult> ExecutePlan(const paql::AnalyzedQuery& aq,
                                     const QueryPlan& plan,
                                     const EvaluationOptions& options);

/// The answer of a finished solve of `translation`, or the typed error for
/// a solve without a package (Infeasible / Unbounded / ResourceExhausted).
Result<EvaluationResult> IlpAnswer(const paql::AnalyzedQuery& aq,
                                   const IlpTranslation& translation,
                                   solver::MilpResult r);

/// Evaluates PaQL queries against a catalog.
class QueryEvaluator {
 public:
  explicit QueryEvaluator(const db::Catalog* catalog) : catalog_(catalog) {}

  /// Parses, analyzes, and evaluates PaQL text. Returns kInfeasible when no
  /// valid package exists (or, for heuristic paths, when none was found).
  Result<EvaluationResult> Evaluate(const std::string& paql,
                                    const EvaluationOptions& options = {});

  /// Evaluates an already-analyzed query: PlanQuery, then ExecutePlan.
  Result<EvaluationResult> Evaluate(const paql::AnalyzedQuery& aq,
                                    const EvaluationOptions& options = {});

  /// Evaluates the query's LIMIT clause: returns up to LIMIT packages
  /// (default 1), best-first when the query has an objective. Uses
  /// no-good-cut solver enumeration for translatable REPEAT-free queries
  /// and exhaustive collection otherwise. An empty vector means infeasible.
  Result<std::vector<Package>> EvaluateAll(
      const paql::AnalyzedQuery& aq, const EvaluationOptions& options = {});

  Result<std::vector<Package>> EvaluateAll(
      const std::string& paql, const EvaluationOptions& options = {});

 private:
  const db::Catalog* catalog_;
};

}  // namespace pb::core

#endif  // PB_CORE_EVALUATOR_H_
