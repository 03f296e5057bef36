// Warm-start tests for the solver stack: LpBasis snapshot/restore in the
// simplex, basis inheritance across branch-and-bound nodes, cross-solve
// MilpWarmStart reuse, and the end-to-end guarantee the ISSUE pins down —
// warm-started solves produce bit-identical results to cold ones whenever
// the search runs to proven optimality, while spending far fewer simplex
// iterations.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/sketch_refine.h"
#include "datagen/lineitem.h"
#include "db/catalog.h"
#include "paql/analyzer.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace pb::solver {
namespace {

/// A package-shaped LP/ILP: n columns, a COUNT row, a ranged weight row,
/// and a cost cap. Continuous random coefficients make the optimum unique
/// with probability one, so warm/cold comparisons can assert exact
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

// ----- LpBasis round-trips through SolveLp -----------------------------------

TEST(LpWarmStartTest, ResolveFromOwnBasisTakesNoIterations) {
  LpModel m = PackageModel(200, 7, /*integer=*/false);
  auto cold = SolveLp(m);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->status, LpStatus::kOptimal);
  ASSERT_FALSE(cold->basis.empty());

  auto warm = SolveLp(m, {}, nullptr, &cold->basis);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->status, LpStatus::kOptimal);
  EXPECT_EQ(warm->iterations, 0) << "an optimal basis must price out";
  // Same vertex; values may differ in the last bits because the restored
  // basis inverse is refactorized from scratch rather than accumulated
  // pivot by pivot.
  EXPECT_NEAR(warm->objective, cold->objective, 1e-9);
  ASSERT_EQ(warm->x.size(), cold->x.size());
  for (size_t j = 0; j < warm->x.size(); ++j) {
    EXPECT_NEAR(warm->x[j], cold->x[j], 1e-9) << "x[" << j << "]";
  }
}

TEST(LpWarmStartTest, TightenedBoundIsRepairedByPhaseOne) {
  LpModel m = PackageModel(200, 11, /*integer=*/false);
  auto cold = SolveLp(m);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->status, LpStatus::kOptimal);

  // Cut off the current optimum the way a branch-and-bound child does:
  // force the most fractional-ish variable to zero.
  int pick = -1;
  for (int j = 0; j < m.num_variables(); ++j) {
    if (cold->x[j] > 0.1 && cold->x[j] < 0.9) pick = j;
  }
  if (pick < 0) {
    for (int j = 0; j < m.num_variables(); ++j) {
      if (cold->x[j] > 0.5) pick = j;
    }
  }
  ASSERT_GE(pick, 0);
  std::vector<std::pair<double, double>> bounds;
  for (int j = 0; j < m.num_variables(); ++j) {
    const Variable& v = m.variable(j);
    bounds.emplace_back(v.lb, v.ub);
  }
  bounds[pick] = {0.0, 0.0};

  auto cold_child = SolveLp(m, {}, &bounds);
  auto warm_child = SolveLp(m, {}, &bounds, &cold->basis);
  ASSERT_TRUE(cold_child.ok());
  ASSERT_TRUE(warm_child.ok());
  ASSERT_EQ(cold_child->status, LpStatus::kOptimal);
  ASSERT_EQ(warm_child->status, LpStatus::kOptimal);
  EXPECT_NEAR(warm_child->objective, cold_child->objective, 1e-7);
  EXPECT_LT(warm_child->iterations, cold_child->iterations)
      << "inheriting the parent basis must beat a cold start";
}

TEST(LpWarmStartTest, IllSizedOrCorruptBasisFallsBackToCold) {
  // A bad inherited basis takes the documented cold-start fallback and
  // reproduces the cold solve bit for bit (same path, not just the same
  // vertex).
  LpModel m = PackageModel(60, 13, /*integer=*/false);
  auto cold = SolveLp(m);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->status, LpStatus::kOptimal);

  LpBasis wrong_size;
  wrong_size.basic = {0};
  wrong_size.stat.assign(4, VarStat::kAtLower);

  // Right shape, inconsistent statuses (nothing marked basic).
  LpBasis corrupt;
  corrupt.basic = {0, 1, 2};
  corrupt.stat.assign(m.num_variables() + m.num_constraints(),
                      VarStat::kAtLower);

  // Structurally valid but singular: the same column basic in every row.
  LpBasis singular;
  singular.basic = {0, 0, 0};
  singular.stat.assign(m.num_variables() + m.num_constraints(),
                       VarStat::kAtLower);
  singular.stat[0] = VarStat::kBasic;

  for (const LpBasis* bad : {&wrong_size, &corrupt, &singular}) {
    auto warm = SolveLp(m, {}, nullptr, bad);
    ASSERT_TRUE(warm.ok());
    ASSERT_EQ(warm->status, LpStatus::kOptimal);
    EXPECT_EQ(warm->iterations, cold->iterations);
    EXPECT_EQ(warm->x, cold->x);
    EXPECT_EQ(warm->objective, cold->objective);
  }
}

// ----- Warm-started branch-and-bound -----------------------------------------

TEST(MilpWarmStartTest, WarmAndColdAgreeBitForBitToOptimality) {
  for (uint64_t seed : {3u, 17u, 71u}) {
    LpModel m = PackageModel(150, seed, /*integer=*/true);
    MilpOptions cold_opts;
    cold_opts.warm_start_lps = false;
    MilpOptions warm_opts;
    warm_opts.warm_start_lps = true;
    auto cold = SolveMilp(m, cold_opts);
    auto warm = SolveMilp(m, warm_opts);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());
    ASSERT_EQ(cold->status, MilpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(warm->status, MilpStatus::kOptimal) << "seed " << seed;
    EXPECT_EQ(warm->x, cold->x) << "seed " << seed;
    EXPECT_NEAR(warm->objective, cold->objective, 1e-9) << "seed " << seed;
    EXPECT_NEAR(warm->best_bound, warm->objective, 1e-9) << "seed " << seed;
    EXPECT_LT(warm->lp_iterations, cold->lp_iterations)
        << "seed " << seed << ": warm start must save simplex iterations";
  }
}

TEST(MilpWarmStartTest, CrossSolveReuseSavesIterations) {
  LpModel m = PackageModel(300, 41, /*integer=*/true);
  MilpWarmStart warm;
  MilpOptions opts;
  opts.warm = &warm;
  auto first = SolveMilp(m, opts);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, MilpStatus::kOptimal);
  EXPECT_EQ(warm.model_signature, m.StructuralSignature());
  EXPECT_FALSE(warm.root_basis.empty());

  auto second = SolveMilp(m, opts);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->status, MilpStatus::kOptimal);
  EXPECT_EQ(second->x, first->x);
  EXPECT_LT(second->lp_iterations, first->lp_iterations)
      << "the remembered root basis and pseudocosts must pay off";
}

TEST(MilpWarmStartTest, StructuralMismatchResetsWarmState) {
  LpModel a = PackageModel(60, 5, /*integer=*/true);
  MilpWarmStart warm;
  MilpOptions opts;
  opts.warm = &warm;
  ASSERT_TRUE(SolveMilp(a, opts).ok());
  uint64_t sig_a = warm.model_signature;

  // Different dimensions: stale basis/pseudocosts must not leak in.
  LpModel b = PackageModel(61, 5, /*integer=*/true);
  MilpOptions plain;
  auto fresh = SolveMilp(b, plain);
  auto reused = SolveMilp(b, opts);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(reused.ok());
  EXPECT_NE(warm.model_signature, sig_a);
  ASSERT_EQ(fresh->status, MilpStatus::kOptimal);
  ASSERT_EQ(reused->status, MilpStatus::kOptimal);
  EXPECT_EQ(reused->x, fresh->x);
  EXPECT_NEAR(reused->objective, fresh->objective, 1e-9);
}

// ----- The kIterationLimit lost-subtree regression ---------------------------

TEST(MilpWarmStartTest, IterationLimitedNodesAreRequeuedNotDropped) {
  // Pre-fix behavior: a node whose LP hit kIterationLimit was silently
  // dropped with its whole subtree, so a starved LP budget could yield
  // kNoSolution (or a wrong bound) on a perfectly solvable model. The fix
  // re-queues the node with a doubled budget until it solves.
  LpModel m = PackageModel(40, 23, /*integer=*/true);
  auto reference = SolveMilp(m);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->status, MilpStatus::kOptimal);

  for (int64_t tiny : {1, 2, 5}) {
    MilpOptions opts;
    opts.lp.max_iterations = tiny;
    auto r = SolveMilp(m, opts);
    ASSERT_TRUE(r.ok()) << "max_iterations " << tiny;
    ASSERT_EQ(r->status, MilpStatus::kOptimal) << "max_iterations " << tiny;
    EXPECT_NEAR(r->objective, reference->objective, 1e-6)
        << "max_iterations " << tiny;
    EXPECT_EQ(r->x, reference->x) << "max_iterations " << tiny;
  }
}

// ----- End to end through SketchRefine ---------------------------------------

TEST(SketchRefineWarmStartTest, WarmAndColdPackagesAreBitIdentical) {
  db::Catalog catalog;
  catalog.RegisterOrReplace(datagen::GenerateLineitems(10000, 5));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(L) FROM lineitem L "
      "SUCH THAT COUNT(*) = 24 AND SUM(quantity) = 600 AND "
      "SUM(extendedprice) BETWEEN 50000 AND 51000 "
      "MAXIMIZE SUM(revenue)",
      catalog);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();

  core::SketchRefineOptions cold_opts;
  cold_opts.partition_size = 128;
  cold_opts.milp.warm_start_lps = false;
  auto cold = core::SketchRefine(*aq, cold_opts);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->found);

  core::SketchRefineOptions warm_opts = cold_opts;
  warm_opts.milp.warm_start_lps = true;
  auto warm = core::SketchRefine(*aq, warm_opts);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->found);

  // Every sub-ILP solves to proven optimality here (no node budget), so
  // warm starting changes the path, never the answer.
  EXPECT_EQ(warm->package, cold->package)
      << warm->package.Fingerprint() << " vs " << cold->package.Fingerprint();
  EXPECT_EQ(warm->objective, cold->objective);
  // The ISSUE's acceptance bar: >= 2x fewer total simplex iterations on
  // refine workloads (the checked-in bench shows ~6x on the larger run).
  EXPECT_LE(warm->lp_iterations * 2, cold->lp_iterations)
      << "warm " << warm->lp_iterations << " vs cold " << cold->lp_iterations;
}

}  // namespace
}  // namespace pb::solver
