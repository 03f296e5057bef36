// Cross-backend solver tests: every combination of factorization backend
// (dense inverse vs sparse LU) and pricing rule (Dantzig vs devex) must
// agree on the answer — LP vertex, MILP package, SketchRefine result — and
// bases snapshotted under one backend must warm-start the other. The
// engine ablation knobs change the path and the counters, never the
// result.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/sketch_refine.h"
#include "datagen/lineitem.h"
#include "db/catalog.h"
#include "paql/analyzer.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace pb::solver {
namespace {

constexpr FactorizationKind kBackends[] = {FactorizationKind::kDense,
                                           FactorizationKind::kSparseLu};
constexpr PricingRule kRules[] = {PricingRule::kDantzig, PricingRule::kDevex};

/// Package-shaped model with continuous random coefficients: the optimum is
/// unique with probability one, so backends must land on the same vertex
/// (LP) and the same package (MILP), not just the same objective.
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

std::vector<int64_t> Rounded(const std::vector<double>& x) {
  std::vector<int64_t> r(x.size());
  for (size_t j = 0; j < x.size(); ++j) r[j] = std::llround(x[j]);
  return r;
}

TEST(SimplexBackendsTest, AllEngineCombinationsFindTheSameVertex) {
  for (uint64_t seed : {2u, 19u, 55u}) {
    LpModel m = PackageModel(120, seed, /*integer=*/false);
    LpSolution reference;
    bool have_reference = false;
    for (FactorizationKind fact : kBackends) {
      for (PricingRule rule : kRules) {
        SimplexOptions opts;
        opts.factorization = fact;
        opts.pricing = rule;
        auto r = SolveLp(m, opts);
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r->status, LpStatus::kOptimal)
            << FactorizationKindToString(fact) << "/"
            << PricingRuleToString(rule) << " seed " << seed;
        EXPECT_GT(r->refactorizations, 0);
        if (!have_reference) {
          reference = std::move(r).value();
          have_reference = true;
          continue;
        }
        EXPECT_NEAR(r->objective, reference.objective, 1e-7)
            << FactorizationKindToString(fact) << "/"
            << PricingRuleToString(rule) << " seed " << seed;
        ASSERT_EQ(r->x.size(), reference.x.size());
        for (size_t j = 0; j < r->x.size(); ++j) {
          EXPECT_NEAR(r->x[j], reference.x[j], 1e-7)
              << FactorizationKindToString(fact) << "/"
              << PricingRuleToString(rule) << " seed " << seed << " x[" << j
              << "]";
        }
      }
    }
  }
}

TEST(SimplexBackendsTest, BasesRoundTripAcrossBackends) {
  LpModel m = PackageModel(150, 31, /*integer=*/false);
  SimplexOptions dense_opts, sparse_opts;
  dense_opts.factorization = FactorizationKind::kDense;
  sparse_opts.factorization = FactorizationKind::kSparseLu;

  auto dense = SolveLp(m, dense_opts);
  auto sparse = SolveLp(m, sparse_opts);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(sparse.ok());
  ASSERT_EQ(dense->status, LpStatus::kOptimal);
  ASSERT_EQ(sparse->status, LpStatus::kOptimal);

  // An optimal basis snapshotted under one backend must price out
  // immediately under the other: LpBasis is backend-agnostic.
  auto warm_sparse = SolveLp(m, sparse_opts, nullptr, &dense->basis);
  auto warm_dense = SolveLp(m, dense_opts, nullptr, &sparse->basis);
  ASSERT_TRUE(warm_sparse.ok());
  ASSERT_TRUE(warm_dense.ok());
  ASSERT_EQ(warm_sparse->status, LpStatus::kOptimal);
  ASSERT_EQ(warm_dense->status, LpStatus::kOptimal);
  EXPECT_EQ(warm_sparse->iterations, 0);
  EXPECT_EQ(warm_dense->iterations, 0);
  EXPECT_NEAR(warm_sparse->objective, dense->objective, 1e-9);
  EXPECT_NEAR(warm_dense->objective, sparse->objective, 1e-9);
}

TEST(SimplexBackendsTest, BadWarmBasesFallBackToColdIdenticallyPerBackend) {
  // Satellite of the layered-engine PR: a singular or ill-shaped inherited
  // basis must take the documented cold-start fallback on BOTH backends,
  // reproducing that backend's cold solve bit for bit (same path, not just
  // the same vertex).
  LpModel m = PackageModel(60, 13, /*integer=*/false);

  LpBasis wrong_size;
  wrong_size.basic = {0};
  wrong_size.stat.assign(4, VarStat::kAtLower);

  LpBasis corrupt;  // right shape, nothing marked basic
  corrupt.basic = {0, 1, 2};
  corrupt.stat.assign(m.num_variables() + m.num_constraints(),
                      VarStat::kAtLower);

  LpBasis singular;  // the same column basic in every row
  singular.basic = {0, 0, 0};
  singular.stat.assign(m.num_variables() + m.num_constraints(),
                       VarStat::kAtLower);
  singular.stat[0] = VarStat::kBasic;

  for (FactorizationKind fact : kBackends) {
    SimplexOptions opts;
    opts.factorization = fact;
    auto cold = SolveLp(m, opts);
    ASSERT_TRUE(cold.ok());
    ASSERT_EQ(cold->status, LpStatus::kOptimal);
    for (const LpBasis* bad : {&wrong_size, &corrupt, &singular}) {
      auto warm = SolveLp(m, opts, nullptr, bad);
      ASSERT_TRUE(warm.ok()) << FactorizationKindToString(fact);
      ASSERT_EQ(warm->status, LpStatus::kOptimal)
          << FactorizationKindToString(fact);
      EXPECT_EQ(warm->iterations, cold->iterations)
          << FactorizationKindToString(fact);
      EXPECT_EQ(warm->x, cold->x) << FactorizationKindToString(fact);
    }
  }
}

TEST(SimplexBackendsTest, MilpPackagesAgreeAcrossBackends) {
  for (uint64_t seed : {3u, 17u}) {
    LpModel m = PackageModel(120, seed, /*integer=*/true);
    MilpOptions dense_opts, sparse_opts;
    dense_opts.lp.factorization = FactorizationKind::kDense;
    sparse_opts.lp.factorization = FactorizationKind::kSparseLu;
    auto dense = SolveMilp(m, dense_opts);
    auto sparse = SolveMilp(m, sparse_opts);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(sparse.ok());
    ASSERT_EQ(dense->status, MilpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(sparse->status, MilpStatus::kOptimal) << "seed " << seed;
    // The unique optimal package — integral multiplicities — must match
    // exactly even though the two engines round differently in the last
    // bits and may search different trees.
    EXPECT_EQ(Rounded(sparse->x), Rounded(dense->x)) << "seed " << seed;
    EXPECT_NEAR(sparse->objective, dense->objective, 1e-6) << "seed " << seed;
    EXPECT_GT(sparse->lp_refactorizations, 0);
    EXPECT_GT(dense->lp_refactorizations, 0);
  }
}

TEST(SimplexBackendsTest, ThreadCountIdentityIncludesFactorizationCounters) {
  // PR 5's determinism rule extends through the new layer: nodes, simplex
  // iterations, refactorizations, and basis updates are all committed in
  // serial order, so every counter except speculative_lps is bit-identical
  // for any thread count.
  LpModel m = PackageModel(150, 47, /*integer=*/true);
  MilpOptions base;
  base.lp.factorization = FactorizationKind::kSparseLu;
  auto serial = SolveMilp(m, base);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->status, MilpStatus::kOptimal);
  for (int threads : {2, 4}) {
    MilpOptions opts = base;
    opts.compute.threads = threads;
    auto r = SolveMilp(m, opts);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, MilpStatus::kOptimal) << "threads " << threads;
    EXPECT_EQ(r->x, serial->x) << "threads " << threads;
    EXPECT_EQ(r->nodes, serial->nodes) << "threads " << threads;
    EXPECT_EQ(r->lp_iterations, serial->lp_iterations)
        << "threads " << threads;
    EXPECT_EQ(r->lp_refactorizations, serial->lp_refactorizations)
        << "threads " << threads;
    EXPECT_EQ(r->lp_basis_updates, serial->lp_basis_updates)
        << "threads " << threads;
  }
}

TEST(SimplexBackendsTest, DevexAndDantzigAgreeOnMilpAnswers) {
  LpModel m = PackageModel(100, 29, /*integer=*/true);
  MilpOptions devex_opts, dantzig_opts;
  devex_opts.lp.pricing = PricingRule::kDevex;
  dantzig_opts.lp.pricing = PricingRule::kDantzig;
  auto devex = SolveMilp(m, devex_opts);
  auto dantzig = SolveMilp(m, dantzig_opts);
  ASSERT_TRUE(devex.ok());
  ASSERT_TRUE(dantzig.ok());
  ASSERT_EQ(devex->status, MilpStatus::kOptimal);
  ASSERT_EQ(dantzig->status, MilpStatus::kOptimal);
  EXPECT_EQ(Rounded(devex->x), Rounded(dantzig->x));
  EXPECT_NEAR(devex->objective, dantzig->objective, 1e-6);
}

TEST(SketchRefineBackendsTest, PackagesAgreeAcrossBackends) {
  db::Catalog catalog;
  catalog.RegisterOrReplace(datagen::GenerateLineitems(8000, 5));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(L) FROM lineitem L "
      "SUCH THAT COUNT(*) = 16 AND SUM(quantity) = 400 "
      "MAXIMIZE SUM(revenue)",
      catalog);
  ASSERT_TRUE(aq.ok()) << aq.status().ToString();

  core::SketchRefineOptions dense_opts;
  dense_opts.partition_size = 128;
  dense_opts.milp.lp.factorization = FactorizationKind::kDense;
  core::SketchRefineOptions sparse_opts = dense_opts;
  sparse_opts.milp.lp.factorization = FactorizationKind::kSparseLu;

  auto dense = core::SketchRefine(*aq, dense_opts);
  auto sparse = core::SketchRefine(*aq, sparse_opts);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  ASSERT_TRUE(dense->found);
  ASSERT_TRUE(sparse->found);
  // Every sub-ILP runs to proven optimality, so the engine choice changes
  // iteration/refactorization counts, never the package.
  EXPECT_EQ(sparse->package, dense->package)
      << sparse->package.Fingerprint() << " vs " << dense->package.Fingerprint();
  EXPECT_EQ(sparse->objective, dense->objective);
  EXPECT_GT(sparse->lp_refactorizations, 0);
  EXPECT_GT(dense->lp_refactorizations, 0);
}

}  // namespace
}  // namespace pb::solver
