#include "core/explain.h"

#include <cmath>

#include "common/strings.h"
#include "core/translator.h"
#include "db/ops.h"

namespace pb::core {

std::string QueryPlan::ToString() const {
  std::string out;
  out += "== Query plan ==\n";
  out += "base relation:        " + std::to_string(table_rows) + " rows\n";
  out += "base constraints:     " + std::to_string(candidates) +
         " candidates (selectivity " +
         FormatDouble(base_selectivity * 100.0, 3) + "%)\n";
  out += "global constraints:   " + std::to_string(linear_constraints) +
         " linear, " + std::to_string(extreme_constraints) + " MIN/MAX\n";
  out += "ILP-translatable:     ";
  out += ilp_translatable ? "yes" : ("no (" + not_translatable_reason + ")");
  out += "\n";
  if (has_objective) {
    out += "objective:            ";
    out += objective_linear ? "linear" : "non-linear";
    out += "\n";
  }
  out += "cardinality bounds:   " + bounds.ToString() + "\n";
  if (proven_infeasible) {
    out += "VERDICT:              infeasible (proved by pruning, no search "
           "needed)\n";
    return out;
  }
  if (std::isfinite(bounds.log2_pruned)) {
    out += "search space:         2^" + FormatDouble(bounds.log2_unpruned, 4) +
           " packages, 2^" + FormatDouble(bounds.log2_pruned, 4) +
           " after pruning\n";
  }
  if (model_variables > 0) {
    out += "translated model:     " + std::to_string(model_variables) +
           " integer variables, " + std::to_string(model_rows) + " rows\n";
  }
  out += "strategy:             " +
         std::string(StrategyToString(chosen_strategy)) + " -- " + rationale +
         "\n";
  if (fallback) {
    out += "fallback:             " +
           std::string(StrategyToString(*fallback)) +
           (chosen_strategy == Strategy::kIlpSolver
                ? " -- if the translator rejects the query\n"
                : " -- if the route finds no package\n");
  }
  return out;
}

Result<QueryPlan> PlanQuery(const paql::AnalyzedQuery& aq,
                            const EvaluationOptions& options,
                            bool maintained) {
  QueryPlan plan;
  PB_ASSIGN_OR_RETURN(plan.candidate_rows,
                      db::FilterIndices(*aq.table, aq.query.where));
  PB_ASSIGN_OR_RETURN(plan.bounds,
                      DeriveCardinalityBounds(aq, plan.candidate_rows));
  plan.table_rows = aq.table->num_rows();
  plan.candidates = plan.candidate_rows.size();
  plan.base_selectivity =
      plan.table_rows > 0
          ? static_cast<double>(plan.candidates) /
                static_cast<double>(plan.table_rows)
          : 1.0;
  plan.linear_constraints = aq.linear_constraints.size();
  plan.extreme_constraints = aq.extreme_constraints.size();
  plan.ilp_translatable = aq.ilp_translatable;
  plan.not_translatable_reason = aq.not_translatable_reason;
  plan.has_objective = aq.has_objective;
  plan.objective_linear = aq.objective_linear;

  // The search route for queries the solver cannot express.
  const Strategy search = plan.candidates <= options.brute_force_threshold
                              ? Strategy::kBruteForce
                              : Strategy::kLocalSearch;

  if (options.use_pruning && plan.bounds.infeasible) {
    plan.proven_infeasible = true;
    plan.chosen_strategy = Strategy::kPruning;
    plan.rationale = "pruning proves infeasibility";
    plan.cacheable = true;
  } else if (options.strategy != Strategy::kAuto) {
    if (options.strategy == Strategy::kPruning ||
        options.strategy == Strategy::kSketchRefine) {
      return Status::InvalidArgument(
          "only IlpSolver, BruteForce or LocalSearch can be forced");
    }
    plan.chosen_strategy = options.strategy;
    plan.rationale = "forced by options";
  } else if (!aq.IlpEligible()) {
    plan.chosen_strategy = search;
    if (search == Strategy::kBruteForce) {
      plan.rationale = "disjunctive/non-linear constraints on a small "
                       "candidate set: exhaustive search is exact and cheap";
    } else {
      plan.fallback = Strategy::kBruteForce;
      plan.rationale = "disjunctive/non-linear constraints: the solver "
                       "cannot express them; heuristic search (incomplete)";
    }
  } else if (maintained && aq.extreme_constraints.empty() &&
             !aq.table->spilled()) {
    // MIN/MAX constraints are out of SketchRefine's scope, and spilled
    // tables are append-frozen: both keep the exact route.
    plan.chosen_strategy = Strategy::kSketchRefine;
    plan.fallback = Strategy::kIlpSolver;
    plan.rationale = "incremental maintenance: SketchRefine over the "
                     "maintained partition re-solves only the groups "
                     "appends touched";
    plan.cacheable = true;
  } else {
    plan.chosen_strategy = Strategy::kIlpSolver;
    plan.fallback = search;
    plan.rationale = "linear query: branch-and-bound is exact";
  }
  return plan;
}

Result<QueryPlan> ExplainQuery(const paql::AnalyzedQuery& aq,
                               const EvaluationOptions& options,
                               bool maintained) {
  PB_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(aq, options, maintained));
  if (!plan.proven_infeasible && aq.IlpEligible()) {
    TranslateOptions topts;
    if (options.use_pruning) topts.bounds = &plan.bounds;
    auto translation = TranslateToIlp(aq, topts);
    if (translation.ok()) {
      plan.model_variables = translation->model.num_variables();
      plan.model_rows = translation->model.num_constraints();
    }
  }
  return plan;
}

Result<QueryPlan> ExplainQuery(const std::string& paql,
                               const db::Catalog& catalog,
                               const EvaluationOptions& options,
                               bool maintained) {
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, catalog));
  return ExplainQuery(aq, options, maintained);
}

}  // namespace pb::core
