// Tests for the search strategies (brute force, local search, enumerator)
// and the QueryEvaluator facade, including the §4.2 join-based replacement
// finder.

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/enumerator.h"
#include "core/evaluator.h"
#include "core/local_search.h"
#include "datagen/recipes.h"
#include "db/catalog.h"
#include "paql/analyzer.h"

namespace pb::core {
namespace {

class StrategiesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.RegisterOrReplace(datagen::GenerateRecipes(60, /*seed=*/21));
  }

  paql::AnalyzedQuery Analyzed(const std::string& text) {
    auto aq = paql::ParseAndAnalyze(text, catalog_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    return std::move(aq).value();
  }

  db::Catalog catalog_;
};

// ----- Brute force -----------------------------------------------------------

TEST_F(StrategiesTest, BruteForceFindsFirstValidFeasibilityQuery) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 2 AND SUM(calories) <= 800");
  BruteForceResult r = *BruteForceSearch(aq);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(*IsValidPackage(aq, r.best));
}

TEST_F(StrategiesTest, BruteForceInfeasibleWhenImpossible) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 2 AND SUM(calories) >= 1000000");
  BruteForceResult r = *BruteForceSearch(aq);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.exhausted || r.bounds.infeasible);
}

TEST_F(StrategiesTest, BruteForcePruningReducesNodes) {
  db::Catalog small;
  small.RegisterOrReplace(datagen::GenerateRecipes(16, 5));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 900 AND 1500 "
      "MAXIMIZE SUM(protein)",
      small);
  ASSERT_TRUE(aq.ok());
  BruteForceOptions with;
  BruteForceOptions without;
  without.use_cardinality_pruning = false;
  without.use_linear_bounding = false;
  auto r_with = BruteForceSearch(*aq, with);
  auto r_without = BruteForceSearch(*aq, without);
  ASSERT_TRUE(r_with.ok());
  ASSERT_TRUE(r_without.ok());
  ASSERT_TRUE(r_with->found);
  ASSERT_TRUE(r_without->found);
  // Same optimum, fewer nodes.
  EXPECT_NEAR(r_with->best_objective, r_without->best_objective, 1e-9);
  EXPECT_LT(r_with->nodes, r_without->nodes);
}

TEST_F(StrategiesTest, BruteForceHandlesRepeat) {
  db::Catalog small;
  small.RegisterOrReplace(datagen::GenerateRecipes(8, 9));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(R) FROM recipes R REPEAT 2 "
      "SUCH THAT COUNT(*) = 4 MAXIMIZE SUM(protein)",
      small);
  ASSERT_TRUE(aq.ok());
  auto r = BruteForceSearch(*aq);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);
  EXPECT_EQ(r->best.TotalCount(), 4);
  for (int64_t m : r->best.multiplicity) EXPECT_LE(m, 2);
  EXPECT_TRUE(*IsValidPackage(*aq, r->best));
}

TEST_F(StrategiesTest, BruteForceRespectsNodeBudget) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT SUM(cost) <= 10000 MAXIMIZE SUM(rating)");
  BruteForceOptions opts;
  opts.max_nodes = 2000;
  auto r = BruteForceSearch(aq, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->exhausted);
  EXPECT_LE(r->nodes, opts.max_nodes + 2048);  // checked every 1024 nodes
}

TEST_F(StrategiesTest, BruteForceExactOnDisjunctiveQuery) {
  db::Catalog small;
  small.RegisterOrReplace(datagen::GenerateRecipes(12, 13));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 2 OR COUNT(*) = 5 MAXIMIZE SUM(protein)",
      small);
  ASSERT_TRUE(aq.ok());
  EXPECT_FALSE(aq->ilp_translatable);
  auto r = BruteForceSearch(*aq);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);
  // The optimum takes the 5 highest-protein recipes.
  EXPECT_EQ(r->best.TotalCount(), 5);
  EXPECT_TRUE(*IsValidPackage(*aq, r->best));
}

// ----- Local search ----------------------------------------------------------

TEST_F(StrategiesTest, LocalSearchReachesFeasibility) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 4 AND SUM(calories) BETWEEN 1500 AND 2500");
  LocalSearchOptions opts;
  opts.seed = 1;
  auto r = LocalSearch(aq, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);
  EXPECT_TRUE(*IsValidPackage(aq, r->package));
}

TEST_F(StrategiesTest, LocalSearchHonorsInfeasiblePruning) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) <= 2 AND SUM(calories) >= 100000");
  auto r = LocalSearch(aq);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
}

TEST_F(StrategiesTest, LocalSearchDeterministicPerSeed) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) <= 2000 "
      "MAXIMIZE SUM(protein)");
  LocalSearchOptions opts;
  opts.seed = 77;
  auto a = LocalSearch(aq, opts);
  auto b = LocalSearch(aq, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->found, b->found);
  if (a->found) {
    EXPECT_EQ(a->package.Fingerprint(), b->package.Fingerprint());
  }
}

TEST_F(StrategiesTest, JoinReplacementFinderMatchesPaperSemantics) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT SUM(calories) <= 2500");
  // Build P0 as the first 4 recipes (may violate the constraint).
  Package p0;
  for (size_t i = 0; i < 4; ++i) p0.Add(i);
  auto joined = FindSingleTupleReplacementsViaJoin(aq, p0);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  // Every returned (pid, rid) pair must actually lead to a valid package.
  for (size_t r = 0; r < joined->num_rows(); ++r) {
    size_t pid = static_cast<size_t>(joined->at(r, 0).AsInt());
    // rid column position: 1 + #rows of weights... locate by name.
    auto rid_idx = joined->schema().IndexOf("rid");
    ASSERT_TRUE(rid_idx.ok());
    size_t rid = static_cast<size_t>(joined->at(r, *rid_idx).AsInt());
    Package trial = p0;
    trial.Remove(pid);
    trial.Add(rid);
    EXPECT_TRUE(*SatisfiesGlobalConstraints(aq, trial))
        << "swap " << pid << " -> " << rid;
  }
}

TEST_F(StrategiesTest, KReplacementProbeCountsGrowWithK) {
  db::Catalog small;
  small.RegisterOrReplace(datagen::GenerateRecipes(25, 3));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT SUM(calories) <= 2500",
      small);
  ASSERT_TRUE(aq.ok());
  Package p0;
  for (size_t i = 0; i < 5; ++i) p0.Add(i);
  auto k1 = CountKReplacements(*aq, p0, 1, 1'000'000);
  auto k2 = CountKReplacements(*aq, p0, 2, 1'000'000);
  ASSERT_TRUE(k1.ok());
  ASSERT_TRUE(k2.ok());
  // The 2k-way join explodes combinatorially (the paper's point).
  EXPECT_GT(k2->combinations_examined, 10 * k1->combinations_examined);
  EXPECT_FALSE(CountKReplacements(*aq, p0, 9, 10).ok());
}

// ----- Enumerator ------------------------------------------------------------

TEST_F(StrategiesTest, SolverEnumerationDistinctAndOrdered) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 2 AND SUM(calories) <= 1200 "
      "MAXIMIZE SUM(protein)");
  EnumerateOptions opts;
  opts.max_packages = 8;
  auto packages = EnumerateViaSolver(aq, opts);
  ASSERT_TRUE(packages.ok()) << packages.status().ToString();
  ASSERT_GE(packages->size(), 2u);
  std::set<std::string> fingerprints;
  double prev = 1e18;
  for (const Package& p : *packages) {
    EXPECT_TRUE(*IsValidPackage(aq, p));
    EXPECT_TRUE(fingerprints.insert(p.Fingerprint()).second)
        << "duplicate package enumerated";
    double obj = *PackageObjective(aq, p);
    EXPECT_LE(obj, prev + 1e-6) << "objective order violated";
    prev = obj;
  }
}

TEST_F(StrategiesTest, SolverEnumerationRejectsRepeat) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R REPEAT 2 SUCH THAT COUNT(*) = 2");
  EXPECT_EQ(EnumerateViaSolver(aq).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(StrategiesTest, ExhaustiveEnumerationFindsAll) {
  db::Catalog small;
  small.RegisterOrReplace(datagen::GenerateRecipes(10, 2));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2", small);
  ASSERT_TRUE(aq.ok());
  auto all = EnumerateExhaustively(*aq, 1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 45u);  // C(10, 2)
}

// ----- Evaluator facade ------------------------------------------------------

TEST_F(StrategiesTest, EvaluatorReportsBoundsAndTiming) {
  QueryEvaluator ev(&catalog_);
  auto r = ev.Evaluate(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 1000 AND 2000 "
      "MAXIMIZE SUM(protein)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->bounds.lo, 3);
  EXPECT_LE(r->bounds.lo, 3);
  EXPECT_GT(r->num_candidates, 0u);
  EXPECT_GE(r->seconds, 0.0);
  EXPECT_TRUE(r->proven_optimal);
}

TEST_F(StrategiesTest, EvaluatorInfeasibleByPruning) {
  QueryEvaluator ev(&catalog_);
  auto r = ev.Evaluate(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) <= 1 AND SUM(calories) >= 100000");
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
  EXPECT_NE(r.status().message().find("pruning"), std::string::npos);
}

TEST_F(StrategiesTest, EvaluatorAutoRoutesDisjunctiveToSearch) {
  QueryEvaluator ev(&catalog_);
  auto r = ev.Evaluate(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 2 OR COUNT(*) = 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->strategy_used == Strategy::kLocalSearch ||
              r->strategy_used == Strategy::kBruteForce);
}

TEST_F(StrategiesTest, EvaluatorParseErrorsPropagate) {
  QueryEvaluator ev(&catalog_);
  EXPECT_EQ(ev.Evaluate("SELECT GARBAGE").status().code(),
            StatusCode::kParseError);
}

TEST_F(StrategiesTest, EvaluateAllHonorsLimitClause) {
  QueryEvaluator ev(&catalog_);
  auto packages = ev.EvaluateAll(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 2 AND SUM(calories) <= 1300 "
      "MAXIMIZE SUM(protein) LIMIT 5");
  ASSERT_TRUE(packages.ok()) << packages.status().ToString();
  EXPECT_LE(packages->size(), 5u);
  EXPECT_GE(packages->size(), 2u);
}

TEST_F(StrategiesTest, EvaluateAllDefaultsToOnePackage) {
  QueryEvaluator ev(&catalog_);
  auto packages = ev.EvaluateAll(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2");
  ASSERT_TRUE(packages.ok());
  EXPECT_EQ(packages->size(), 1u);
}

TEST_F(StrategiesTest, EvaluateAllFallsBackForRepeatQueries) {
  db::Catalog small;
  small.RegisterOrReplace(datagen::GenerateRecipes(10, 41));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(R) FROM recipes R REPEAT 2 "
      "SUCH THAT COUNT(*) = 2 LIMIT 4",
      small);
  ASSERT_TRUE(aq.ok());
  QueryEvaluator ev(&small);
  auto packages = ev.EvaluateAll(*aq);
  ASSERT_TRUE(packages.ok()) << packages.status().ToString();
  EXPECT_EQ(packages->size(), 4u);
  for (const Package& p : *packages) {
    EXPECT_TRUE(*IsValidPackage(*aq, p));
  }
}

TEST_F(StrategiesTest, EvaluateAllInfeasibleIsEmpty) {
  QueryEvaluator ev(&catalog_);
  auto packages = ev.EvaluateAll(
      "SELECT PACKAGE(R) FROM recipes R "
      "SUCH THAT COUNT(*) = 2 AND SUM(calories) >= 1000000 LIMIT 3");
  ASSERT_TRUE(packages.ok());
  EXPECT_TRUE(packages->empty());
}

TEST_F(StrategiesTest, StrategyNamesStable) {
  EXPECT_STREQ(StrategyToString(Strategy::kAuto), "Auto");
  EXPECT_STREQ(StrategyToString(Strategy::kIlpSolver), "IlpSolver");
  EXPECT_STREQ(StrategyToString(Strategy::kBruteForce), "BruteForce");
  EXPECT_STREQ(StrategyToString(Strategy::kLocalSearch), "LocalSearch");
}

}  // namespace
}  // namespace pb::core
