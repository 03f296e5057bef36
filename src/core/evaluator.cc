#include "core/evaluator.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "core/enumerator.h"
#include "core/explain.h"
#include "core/translator.h"
#include "paql/analyzer.h"

namespace pb::core {

const char* StrategyToString(Strategy s) {
  switch (s) {
    case Strategy::kAuto:         return "Auto";
    case Strategy::kIlpSolver:    return "IlpSolver";
    case Strategy::kBruteForce:   return "BruteForce";
    case Strategy::kLocalSearch:  return "LocalSearch";
    case Strategy::kPruning:      return "Pruning";
    case Strategy::kSketchRefine: return "SketchRefine";
  }
  return "?";
}

Result<EvaluationResult> IlpAnswer(const paql::AnalyzedQuery& aq,
                                   const IlpTranslation& translation,
                                   solver::MilpResult r) {
  switch (r.status) {
    case solver::MilpStatus::kOptimal:
    case solver::MilpStatus::kFeasible: {
      EvaluationResult out;
      out.strategy_used = Strategy::kIlpSolver;
      out.package = DecodeSolution(translation, r.x);
      out.objective = aq.has_objective ? r.objective : 0.0;
      out.proven_optimal = r.status == solver::MilpStatus::kOptimal;
      out.milp = std::move(r);
      return out;
    }
    case solver::MilpStatus::kInfeasible:
      return Status::Infeasible("no package satisfies the constraints");
    case solver::MilpStatus::kUnbounded:
      return Status::Unbounded(
          "the objective is unbounded (add COUNT/SUM limits)");
    case solver::MilpStatus::kNoSolution:
      return Status::ResourceExhausted(
          r.cancelled ? "query cancelled before a package was found"
                      : "solver budget exhausted before a package was found");
  }
  return Status::Internal("unknown solver status");
}

namespace {

Result<EvaluationResult> RunIlp(const paql::AnalyzedQuery& aq,
                                const EvaluationOptions& options,
                                const CardinalityBounds& bounds) {
  TranslateOptions topts;
  if (options.use_pruning) topts.bounds = &bounds;
  PB_ASSIGN_OR_RETURN(IlpTranslation translation, TranslateToIlp(aq, topts));
  PB_ASSIGN_OR_RETURN(solver::MilpResult r,
                      solver::SolveMilp(translation.model, options.milp));
  return IlpAnswer(aq, translation, std::move(r));
}

Result<EvaluationResult> RunBruteForce(const paql::AnalyzedQuery& aq,
                                       const EvaluationOptions& options) {
  BruteForceOptions bf = options.brute_force;
  bf.use_cardinality_pruning = options.use_pruning;
  PB_ASSIGN_OR_RETURN(BruteForceResult r, BruteForceSearch(aq, bf));
  if (!r.found) {
    if (!r.exhausted) {
      return Status::ResourceExhausted(
          "brute-force budget exhausted before a package was found");
    }
    return Status::Infeasible("no package satisfies the constraints");
  }
  EvaluationResult out;
  out.strategy_used = Strategy::kBruteForce;
  out.package = r.best;
  out.objective = r.best_objective;
  out.proven_optimal = r.exhausted;
  return out;
}

Result<EvaluationResult> RunLocalSearch(const paql::AnalyzedQuery& aq,
                                        const EvaluationOptions& options) {
  PB_ASSIGN_OR_RETURN(LocalSearchResult r,
                      LocalSearch(aq, options.local_search));
  if (!r.found) {
    return Status::Infeasible(
        "local search found no valid package (the query may still be "
        "satisfiable: the heuristic is incomplete)");
  }
  EvaluationResult out;
  out.strategy_used = Strategy::kLocalSearch;
  out.package = r.package;
  out.objective = r.objective;
  return out;
}

Result<EvaluationResult> RunRoute(const paql::AnalyzedQuery& aq,
                                  Strategy route,
                                  const EvaluationOptions& options,
                                  const CardinalityBounds& bounds) {
  switch (route) {
    case Strategy::kIlpSolver:
      return RunIlp(aq, options, bounds);
    case Strategy::kBruteForce:
      return RunBruteForce(aq, options);
    case Strategy::kLocalSearch:
      return RunLocalSearch(aq, options);
    case Strategy::kPruning:
      return Status::Infeasible(
          "cardinality pruning proves no package can satisfy the "
          "constraints");
    case Strategy::kSketchRefine:
      return Status::Unimplemented(
          "maintained SketchRefine runs inside the Engine");
    case Strategy::kAuto:
      break;
  }
  return Status::Internal("plan has no route");
}

}  // namespace

Result<EvaluationResult> ExecutePlan(const paql::AnalyzedQuery& aq,
                                     const QueryPlan& plan,
                                     const EvaluationOptions& options) {
  Result<EvaluationResult> r =
      RunRoute(aq, plan.chosen_strategy, options, plan.bounds);
  // The planned fallbacks: a LocalSearch that finds nothing hands over to
  // a bounded brute-force pass; a route that cannot take the query
  // (kUnimplemented) hands over to the plan's alternative.
  if (!r.ok() && plan.fallback &&
      (plan.chosen_strategy == Strategy::kLocalSearch ||
       r.status().code() == StatusCode::kUnimplemented)) {
    EvaluationOptions bounded = options;
    bounded.brute_force.time_limit_s =
        std::min(bounded.brute_force.time_limit_s, 10.0);
    r = RunRoute(aq, *plan.fallback, bounded, plan.bounds);
  }
  if (r.ok()) {
    r->bounds = plan.bounds;
    r->num_candidates = plan.candidates;
  }
  return r;
}

Result<EvaluationResult> QueryEvaluator::Evaluate(
    const std::string& paql, const EvaluationOptions& options) {
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, *catalog_));
  return Evaluate(aq, options);
}

Result<EvaluationResult> QueryEvaluator::Evaluate(
    const paql::AnalyzedQuery& aq, const EvaluationOptions& options) {
  Stopwatch timer;
  PB_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(aq, options));
  Result<EvaluationResult> r = ExecutePlan(aq, plan, options);
  if (r.ok()) r->seconds = timer.ElapsedSeconds();
  return r;
}

Result<std::vector<Package>> QueryEvaluator::EvaluateAll(
    const paql::AnalyzedQuery& aq, const EvaluationOptions& options) {
  const size_t limit = static_cast<size_t>(aq.query.limit.value_or(1));
  if (aq.IlpEligible() && aq.max_multiplicity == 1) {
    EnumerateOptions opts;
    opts.max_packages = limit;
    opts.milp = options.milp;
    return EnumerateViaSolver(aq, opts);
  }
  BruteForceOptions bf = options.brute_force;
  bf.use_cardinality_pruning = options.use_pruning;
  return EnumerateExhaustively(aq, limit, bf);
}

Result<std::vector<Package>> QueryEvaluator::EvaluateAll(
    const std::string& paql, const EvaluationOptions& options) {
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, *catalog_));
  return EvaluateAll(aq, options);
}

}  // namespace pb::core
