// Tests for the EXPLAIN facility (the §5 "optimizing PaQL queries"
// direction): the plan must be the Auto policy's real decision.

#include <gtest/gtest.h>

#include "core/explain.h"
#include "datagen/recipes.h"
#include "db/catalog.h"

namespace pb::core {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.RegisterOrReplace(datagen::GenerateRecipes(100, 51));
  }
  db::Catalog catalog_;
};

TEST_F(ExplainTest, LinearOptimizationChoosesIlp) {
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) <= 2000 "
      "MAXIMIZE SUM(protein)",
      catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->chosen_strategy, Strategy::kIlpSolver);
  EXPECT_TRUE(plan->ilp_translatable);
  EXPECT_GT(plan->model_variables, 0);
  EXPECT_LT(plan->candidates, plan->table_rows);  // base filter applied
  EXPECT_GT(plan->base_selectivity, 0.2);
  EXPECT_LT(plan->base_selectivity, 0.8);
}

TEST_F(ExplainTest, DisjunctiveChoosesSearch) {
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 2 OR COUNT(*) = 4",
      catalog_);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->ilp_translatable);
  EXPECT_EQ(plan->chosen_strategy, Strategy::kLocalSearch);
  EXPECT_NE(plan->rationale.find("heuristic"), std::string::npos);
}

TEST_F(ExplainTest, SmallDisjunctiveChoosesBruteForce) {
  db::Catalog tiny;
  tiny.RegisterOrReplace(datagen::GenerateRecipes(10, 5));
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 2 OR COUNT(*) = 4",
      tiny);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen_strategy, Strategy::kBruteForce);
}

TEST_F(ExplainTest, FeasibilityChoosesIlp) {
  // A linear feasibility query goes straight to the exact solver, as the
  // engine runs it: no heuristic burst whose answer depends on host speed.
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) <= 3000",
      catalog_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen_strategy, Strategy::kIlpSolver);
  EXPECT_FALSE(plan->has_objective);
}

TEST_F(ExplainTest, InfeasibilityProvedWithoutSearch) {
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) <= 2 AND SUM(calories) >= 1000000",
      catalog_);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->proven_infeasible);
  EXPECT_NE(plan->ToString().find("infeasible"), std::string::npos);
}

TEST_F(ExplainTest, ForcedStrategyReported) {
  EvaluationOptions opts;
  opts.strategy = Strategy::kBruteForce;
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2 "
      "MAXIMIZE SUM(protein)",
      catalog_, opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->chosen_strategy, Strategy::kBruteForce);
  EXPECT_EQ(plan->rationale, "forced by options");
}

TEST_F(ExplainTest, PlanTextMentionsKeyFacts) {
  auto plan = ExplainQuery(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 1000 AND 2000 "
      "MAXIMIZE SUM(protein)",
      catalog_);
  ASSERT_TRUE(plan.ok());
  std::string text = plan->ToString();
  EXPECT_NE(text.find("selectivity"), std::string::npos);
  EXPECT_NE(text.find("cardinality bounds"), std::string::npos);
  EXPECT_NE(text.find("search space"), std::string::npos);
  EXPECT_NE(text.find("IlpSolver"), std::string::npos);
}

TEST_F(ExplainTest, PlanAgreesWithActualEvaluation) {
  // The plan's predicted strategy matches what Evaluate uses, modulo the
  // documented fallback chain: a failed LocalSearch falls back to a bounded
  // BruteForce pass (evaluator.cc), which EXPLAIN cannot predict without
  // running the heuristic.
  const char* queries[] = {
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 "
      "MAXIMIZE SUM(protein)",
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2 OR "
      "COUNT(*) = 3 MAXIMIZE SUM(protein)",
  };
  for (const char* q : queries) {
    auto plan = ExplainQuery(q, catalog_);
    ASSERT_TRUE(plan.ok()) << q;
    QueryEvaluator ev(&catalog_);
    auto r = ev.Evaluate(q);
    ASSERT_TRUE(r.ok()) << q;
    bool match = plan->chosen_strategy == r->strategy_used;
    bool ls_fellback = plan->chosen_strategy == Strategy::kLocalSearch &&
                       r->strategy_used == Strategy::kBruteForce;
    EXPECT_TRUE(match || ls_fellback) << q;
  }
}

}  // namespace
}  // namespace pb::core
