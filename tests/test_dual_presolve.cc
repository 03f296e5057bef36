// Tests for the dual-simplex child re-solve and the node-presolve bound
// propagation: entry conditions, dual-vs-primal bit-identity (LP, MILP,
// and end-to-end SketchRefine packages), presolve correctness against the
// brute-force oracle on small instances, and the ablation knobs that
// restore the warm-primal path exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/random.h"
#include "core/sketch_refine.h"
#include "datagen/lineitem.h"
#include "datagen/recipes.h"
#include "db/catalog.h"
#include "paql/analyzer.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace pb::solver {
namespace {

/// A package-shaped LP/ILP: n columns, a COUNT row, a ranged weight row,
/// and a cost cap. Continuous random coefficients make the optimum unique
/// with probability one, so dual/primal comparisons can assert exact
/// equality of solutions, not just objectives.
LpModel PackageModel(int n, uint64_t seed, bool integer) {
  Rng rng(seed);
  LpModel m;
  std::vector<LinearTerm> count, weight, cost;
  for (int j = 0; j < n; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), integer);
    count.push_back({j, 1.0});
    weight.push_back({j, rng.UniformReal(100.0, 900.0)});
    cost.push_back({j, rng.UniformReal(1.0, 50.0)});
  }
  m.AddConstraint("count", count, 5, 5);
  m.AddConstraint("weight", weight, 2000, 2600);
  m.AddConstraint("cost", cost, -kInfinity, 120);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

/// The branch-and-bound child pattern: the parent's bounds with one
/// variable's range tightened.
std::vector<std::pair<double, double>> ChildBounds(const LpModel& m, int var,
                                                   double lo, double hi) {
  std::vector<std::pair<double, double>> bounds;
  for (int j = 0; j < m.num_variables(); ++j) {
    bounds.emplace_back(m.variable(j).lb, m.variable(j).ub);
  }
  bounds[var] = {lo, hi};
  return bounds;
}

/// A variable that is strictly between its bounds at the LP optimum (the
/// interesting one to branch away).
int FractionalVariable(const LpModel& m, const std::vector<double>& x) {
  for (int j = 0; j < m.num_variables(); ++j) {
    if (x[j] > 0.1 && x[j] < 0.9) return j;
  }
  for (int j = 0; j < m.num_variables(); ++j) {
    if (x[j] > 0.5) return j;
  }
  return -1;
}

// ----- LP level: dual entry, identity, fallback ------------------------------

TEST(DualSimplexTest, EntersOnChildResolveAndMatchesCold) {
  for (uint64_t seed : {7u, 11u, 23u, 41u}) {
    LpModel m = PackageModel(200, seed, /*integer=*/false);
    auto parent = SolveLp(m);
    ASSERT_TRUE(parent.ok());
    ASSERT_EQ(parent->status, LpStatus::kOptimal);
    EXPECT_EQ(parent->dual_iterations, 0)
        << "cold solves never enter the dual simplex";
    int pick = FractionalVariable(m, parent->x);
    ASSERT_GE(pick, 0) << "seed " << seed;
    auto bounds = ChildBounds(m, pick, 0.0, 0.0);

    auto cold_child = SolveLp(m, {}, &bounds);
    auto dual_child = SolveLp(m, {}, &bounds, &parent->basis);
    ASSERT_TRUE(cold_child.ok());
    ASSERT_TRUE(dual_child.ok());
    ASSERT_EQ(cold_child->status, LpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(dual_child->status, LpStatus::kOptimal) << "seed " << seed;
    EXPECT_GT(dual_child->dual_iterations, 0)
        << "seed " << seed
        << ": a bound-infeasible dual-feasible warm basis must enter the "
           "dual simplex";
    EXPECT_NEAR(dual_child->objective, cold_child->objective, 1e-7)
        << "seed " << seed;
    for (size_t j = 0; j < dual_child->x.size(); ++j) {
      EXPECT_NEAR(dual_child->x[j], cold_child->x[j], 1e-7)
          << "seed " << seed << " x[" << j << "]";
    }
    EXPECT_LT(dual_child->iterations, cold_child->iterations)
        << "seed " << seed << ": the dual re-solve must beat a cold start";
  }
}

TEST(DualSimplexTest, KnobOffReproducesPrimalRepairExactly) {
  LpModel m = PackageModel(200, 11, /*integer=*/false);
  auto parent = SolveLp(m);
  ASSERT_TRUE(parent.ok());
  ASSERT_EQ(parent->status, LpStatus::kOptimal);
  int pick = FractionalVariable(m, parent->x);
  ASSERT_GE(pick, 0);
  auto bounds = ChildBounds(m, pick, 0.0, 0.0);

  SimplexOptions no_dual;
  no_dual.use_dual_simplex = false;
  auto primal = SolveLp(m, no_dual, &bounds, &parent->basis);
  auto dual = SolveLp(m, {}, &bounds, &parent->basis);
  ASSERT_TRUE(primal.ok());
  ASSERT_TRUE(dual.ok());
  ASSERT_EQ(primal->status, LpStatus::kOptimal);
  ASSERT_EQ(dual->status, LpStatus::kOptimal);
  EXPECT_EQ(primal->dual_iterations, 0)
      << "the ablation knob must keep the dual simplex out entirely";
  EXPECT_GT(dual->dual_iterations, 0);
  EXPECT_NEAR(primal->objective, dual->objective, 1e-7);
  // The dual path must spend no more simplex iterations than the phase-1
  // repair it replaces (on these models it is typically several times
  // cheaper; the checked-in bench quantifies that).
  EXPECT_LE(dual->iterations, primal->iterations);
}

TEST(DualSimplexTest, InfeasibleChildIsProvenNotFaked) {
  // Fix all but three variables to zero: COUNT(*) = 5 becomes impossible,
  // and the dual simplex must prove it (matching the cold verdict) rather
  // than return a bogus point.
  LpModel m = PackageModel(60, 13, /*integer=*/false);
  auto parent = SolveLp(m);
  ASSERT_TRUE(parent.ok());
  ASSERT_EQ(parent->status, LpStatus::kOptimal);
  std::vector<std::pair<double, double>> bounds;
  for (int j = 0; j < m.num_variables(); ++j) {
    bounds.emplace_back(0.0, j < 3 ? 1.0 : 0.0);
  }
  auto cold = SolveLp(m, {}, &bounds);
  auto warm = SolveLp(m, {}, &bounds, &parent->basis);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold->status, LpStatus::kInfeasible);
  EXPECT_EQ(warm->status, LpStatus::kInfeasible);
}

// ----- MILP level: knob ablations and bit-identity ---------------------------

TEST(MilpDualSimplexTest, DualAndPrimalWarmSolvesAreBitIdentical) {
  for (uint64_t seed : {3u, 17u, 71u}) {
    LpModel m = PackageModel(150, seed, /*integer=*/true);
    MilpOptions primal_opts;
    primal_opts.lp.use_dual_simplex = false;
    MilpOptions dual_opts;
    dual_opts.lp.use_dual_simplex = true;
    auto primal = SolveMilp(m, primal_opts);
    auto dual = SolveMilp(m, dual_opts);
    ASSERT_TRUE(primal.ok());
    ASSERT_TRUE(dual.ok());
    ASSERT_EQ(primal->status, MilpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(dual->status, MilpStatus::kOptimal) << "seed " << seed;
    EXPECT_EQ(dual->x, primal->x) << "seed " << seed;
    EXPECT_NEAR(dual->objective, primal->objective, 1e-9) << "seed " << seed;
    EXPECT_EQ(primal->lp_dual_iterations, 0) << "seed " << seed;
    EXPECT_GT(dual->lp_dual_iterations, 0) << "seed " << seed;
    EXPECT_LT(dual->lp_iterations, primal->lp_iterations)
        << "seed " << seed
        << ": dual child re-solves must save simplex iterations over the "
           "warm-primal repair";
  }
}

TEST(MilpNodePresolveTest, OnAndOffAgreeToOptimality) {
  for (uint64_t seed : {3u, 17u, 71u}) {
    LpModel m = PackageModel(150, seed, /*integer=*/true);
    MilpOptions off;
    off.node_presolve = false;
    MilpOptions on;
    on.node_presolve = true;
    auto a = SolveMilp(m, off);
    auto b = SolveMilp(m, on);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->status, MilpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(b->status, MilpStatus::kOptimal) << "seed " << seed;
    EXPECT_EQ(b->x, a->x) << "seed " << seed;
    EXPECT_NEAR(b->objective, a->objective, 1e-9) << "seed " << seed;
    EXPECT_EQ(a->presolve_fixed_bounds, 0);
    EXPECT_EQ(a->presolve_infeasible_children, 0);
  }
}

TEST(MilpNodePresolveTest, CountRowFixesImpliedBinaries) {
  // max 2*x0 + 3*x1 s.t. x0 + x1 + x2 = 1, x0 + 2*x1 <= 1.5: the unique LP
  // optimum is fractional (x0 = x1 = 0.5), so the solver branches on x0.
  // The up-branch x0 >= 1 saturates the COUNT row's minimum activity — it
  // stays cap-feasible — which fixes x1 and x2 to zero by propagation
  // alone.
  LpModel m;
  int x0 = m.AddVariable("x0", 0, 1, 2.0, true);
  int x1 = m.AddVariable("x1", 0, 1, 3.0, true);
  int x2 = m.AddVariable("x2", 0, 1, 0.0, true);
  m.AddConstraint("count", {{x0, 1.0}, {x1, 1.0}, {x2, 1.0}}, 1, 1);
  m.AddConstraint("cap", {{x0, 1.0}, {x1, 2.0}}, -kInfinity, 1.5);
  m.SetSense(ObjectiveSense::kMaximize);

  MilpOptions opts;
  opts.rounding_heuristic = false;  // keep the tree honest for the counters
  auto r = SolveMilp(m, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 2.0, 1e-9);  // x0 = 1 is the integer optimum
  EXPECT_GT(r->presolve_fixed_bounds, 0)
      << "branching x0 up must fix x1/x2 through the COUNT row";

  MilpOptions off = opts;
  off.node_presolve = false;
  auto cold = SolveMilp(m, off);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->status, MilpStatus::kOptimal);
  EXPECT_EQ(r->x, cold->x);
}

TEST(MilpNodePresolveTest, InfeasibleChildrenPrunedWithZeroLpWork) {
  // 0.4 <= y <= 0.6, y binary: both children of the root die in presolve.
  LpModel m;
  int y = m.AddVariable("y", 0, 1, 1, true);
  m.AddConstraint("c", {{y, 1.0}}, 0.4, 0.6);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, MilpStatus::kInfeasible);
  EXPECT_EQ(r->presolve_infeasible_children, 2);
  EXPECT_EQ(r->nodes, 1) << "only the root LP may be solved";
}

/// Exhaustive integer oracle (the solver trust anchor for small models).
double IntegerOracle(const LpModel& m, int hi, bool* feasible) {
  const bool maximize = m.sense() == ObjectiveSense::kMaximize;
  double best = maximize ? -kInfinity : kInfinity;
  *feasible = false;
  int n = m.num_variables();
  std::vector<double> x(n, 0.0);
  std::function<void(int)> rec = [&](int j) {
    if (j == n) {
      if (!m.IsFeasible(x, 1e-9)) return;
      *feasible = true;
      double obj = m.ObjectiveValue(x);
      best = maximize ? std::max(best, obj) : std::min(best, obj);
      return;
    }
    for (int v = 0; v <= hi; ++v) {
      x[j] = v;
      rec(j + 1);
    }
  };
  rec(0);
  return best;
}

TEST(MilpNodePresolveTest, RandomizedAgainstOracleWithRangedRows) {
  // Ranged (two-sided) rows are where propagation both fixes variables and
  // prunes children, so this is the adversarial surface for presolve; the
  // dual simplex rides along on every warm child re-solve.
  Rng rng(20260726);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    LpModel m;
    int n = static_cast<int>(rng.UniformInt(2, 6));
    int hi = static_cast<int>(rng.UniformInt(1, 2));
    for (int j = 0; j < n; ++j) {
      m.AddVariable("x" + std::to_string(j), 0, hi,
                    static_cast<double>(rng.UniformInt(-4, 6)), true);
    }
    int rows = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < rows; ++i) {
      std::vector<LinearTerm> terms;
      for (int j = 0; j < n; ++j) {
        terms.push_back({j, static_cast<double>(rng.UniformInt(-3, 4))});
      }
      double lo = static_cast<double>(rng.UniformInt(-6, 2));
      double hi_b = lo + static_cast<double>(rng.UniformInt(0, 6));
      m.AddConstraint("r" + std::to_string(i), terms, lo, hi_b);
    }
    m.SetSense(rng.Bernoulli(0.5) ? ObjectiveSense::kMaximize
                                  : ObjectiveSense::kMinimize);
    bool oracle_feasible = false;
    double oracle = IntegerOracle(m, hi, &oracle_feasible);

    MilpOptions off;
    off.node_presolve = false;
    off.lp.use_dual_simplex = false;
    auto base = SolveMilp(m, off);
    auto full = SolveMilp(m);
    ASSERT_TRUE(base.ok()) << "trial " << trial;
    ASSERT_TRUE(full.ok()) << "trial " << trial;
    if (oracle_feasible) {
      ASSERT_EQ(full->status, MilpStatus::kOptimal) << "trial " << trial;
      ASSERT_EQ(base->status, MilpStatus::kOptimal) << "trial " << trial;
      EXPECT_NEAR(full->objective, oracle, 1e-6) << "trial " << trial;
      EXPECT_NEAR(base->objective, oracle, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.IsFeasible(full->x, 1e-6)) << "trial " << trial;
      ++checked;
    } else {
      EXPECT_EQ(full->status, MilpStatus::kInfeasible) << "trial " << trial;
      EXPECT_EQ(base->status, MilpStatus::kInfeasible) << "trial " << trial;
    }
  }
  EXPECT_GE(checked, 20);
}

}  // namespace
}  // namespace pb::solver

namespace pb::core {
namespace {

// ----- End to end: the tier-1 query suite, dual/presolve vs the old path -----

struct QueryCase {
  const char* name;
  const char* text;
};

/// The tier-1 SketchRefine workloads (recipes + lineitem shapes from the
/// suite), each solved under the old warm-primal path and the new
/// dual+presolve path: packages must be bit-identical, and the new path
/// must not spend more simplex iterations.
TEST(SketchRefineDualPresolveTest, QuerySuitePackagesBitIdentical) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(600, 17));
  c.RegisterOrReplace(datagen::GenerateLineitems(2000, 5));
  const QueryCase cases[] = {
      {"recipes-meal",
       "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 6 AND "
       "SUM(calories) BETWEEN 2400 AND 3600 MAXIMIZE SUM(protein)"},
      {"recipes-capped",
       "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 4 AND "
       "SUM(calories) <= 2400 MAXIMIZE SUM(rating)"},
      {"lineitem-revenue",
       "SELECT PACKAGE(L) FROM lineitem L SUCH THAT COUNT(*) = 8 AND "
       "SUM(quantity) <= 200 MAXIMIZE SUM(revenue)"},
      {"lineitem-window",
       "SELECT PACKAGE(L) FROM lineitem L SUCH THAT COUNT(*) = 12 AND "
       "SUM(quantity) = 300 AND SUM(extendedprice) BETWEEN 20000 AND 26000 "
       "MAXIMIZE SUM(revenue)"},
  };
  for (const QueryCase& qc : cases) {
    auto aq = paql::ParseAndAnalyze(qc.text, c);
    ASSERT_TRUE(aq.ok()) << qc.name << ": " << aq.status().ToString();

    SketchRefineOptions old_path;
    old_path.partition_size = 64;
    old_path.milp.lp.use_dual_simplex = false;
    old_path.milp.node_presolve = false;
    auto old_r = SketchRefine(*aq, old_path);
    ASSERT_TRUE(old_r.ok()) << qc.name << ": " << old_r.status().ToString();

    SketchRefineOptions new_path = old_path;
    new_path.milp.lp.use_dual_simplex = true;
    new_path.milp.node_presolve = true;
    auto new_r = SketchRefine(*aq, new_path);
    ASSERT_TRUE(new_r.ok()) << qc.name << ": " << new_r.status().ToString();

    ASSERT_EQ(new_r->found, old_r->found) << qc.name;
    if (!old_r->found) continue;
    EXPECT_EQ(new_r->package, old_r->package)
        << qc.name << ": " << new_r->package.Fingerprint() << " vs "
        << old_r->package.Fingerprint();
    EXPECT_EQ(new_r->objective, old_r->objective) << qc.name;
    EXPECT_EQ(old_r->lp_dual_iterations, 0) << qc.name;
    EXPECT_LE(new_r->lp_iterations, old_r->lp_iterations)
        << qc.name << ": the dual+presolve path must not cost iterations";
  }
}

TEST(SketchRefineDualPresolveTest, DualIterationsReportedOnRefineWorkload) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(600, 41));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 6 AND "
      "SUM(calories) BETWEEN 2400 AND 3600 AND SUM(fat) <= 180 "
      "MAXIMIZE SUM(protein)",
      c);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();
  SketchRefineOptions opts;
  opts.partition_size = 50;
  auto r = SketchRefine(*aq, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->found);
  EXPECT_GT(r->lp_dual_iterations, 0)
      << "the refine/repair sub-ILPs must exercise the dual re-solve";
  EXPECT_LE(r->lp_dual_iterations, r->lp_iterations);
}

}  // namespace
}  // namespace pb::core
