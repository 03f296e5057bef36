// Large-instance sparse-simplex suite: the package-LP relaxation at
// benchmark scale (the BM_SparseSimplexScale workload). A million
// candidate tuples, thousands of per-group rows — the regime an explicit
// dense inverse cannot enter (a 4097 x 4097 inverse costs O(m^3) per
// refactorization) and the sparse LU solves in seconds. CTest-registered
// under the "slow" label, DISABLED by default; opt in with:
//
//   cmake -B build -S . -DPB_RUN_SLOW_TESTS=ON
//   cd build && ctest -L slow --output-on-failure

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "solver/simplex.h"

namespace pb::solver {
namespace {

/// The scale workload: n candidates in n/256 groups, maximize total value
/// subject to a global COUNT row (pick exactly one candidate per four
/// groups) and one cardinality row per group. The constraint matrix has
/// 2n nonzeros — exactly the shape a partitioned package query translates
/// to, and the shape the sparse LU keeps fill-free.
LpModel ScaleModel(int n, uint64_t seed) {
  const int groups = n / 256;
  const double k = groups / 4.0;
  Rng rng(seed);
  LpModel m;
  std::vector<LinearTerm> count;
  std::vector<std::vector<LinearTerm>> group_rows(groups);
  for (int j = 0; j < n; ++j) {
    m.AddVariable("x" + std::to_string(j), 0.0, 1.0,
                  rng.UniformReal(1.0, 100.0), /*is_integer=*/false);
    count.push_back({j, 1.0});
    group_rows[j % groups].push_back({j, 1.0});
  }
  m.AddConstraint("count", std::move(count), k, k);
  for (int g = 0; g < groups; ++g) {
    m.AddConstraint("group" + std::to_string(g), std::move(group_rows[g]),
                    -kInfinity, 1.0);
  }
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

/// The closed-form optimum of ScaleModel: each group row caps its group at
/// one unit and the COUNT row asks for k units. Every column has one entry
/// in the COUNT row and one in its group row, so the matrix is a bipartite
/// incidence matrix, totally unimodular, and the relaxation has an integral
/// optimum: one unit from each of the k groups with the largest maximum
/// value, taken at that maximum.
double ScaleOptimum(const LpModel& m) {
  const int groups = m.num_constraints() - 1;
  const int k = static_cast<int>(m.constraint(0).lo);
  std::vector<double> group_max(groups, 0.0);
  for (int j = 0; j < m.num_variables(); ++j) {
    double& best = group_max[j % groups];
    best = std::max(best, m.variable(j).objective);
  }
  std::sort(group_max.begin(), group_max.end(), std::greater<>());
  double total = 0.0;
  for (int g = 0; g < k; ++g) total += group_max[g];
  return total;
}

TEST(SparseScaleTest, MillionVariableRelaxationSolves) {
  const int n = 1 << 20;  // 4097 rows, 2M nonzeros
  LpModel m = ScaleModel(n, 42);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  EXPECT_TRUE(m.IsFeasible(r->x, 1e-5));
  EXPECT_NEAR(r->objective, ScaleOptimum(m), 1e-6 * ScaleOptimum(m));
  // The whole point of the layered engine: iteration counts scale with the
  // active rows, not the candidate count. A budget proportional to the row
  // count (with slack for phase-1 repair) catches any regression into
  // dense-era behavior.
  EXPECT_LT(r->iterations, 16 * 4097);
}

TEST(SparseScaleTest, SmallInstancesReachTheClosedFormOptimum) {
  // The same generator at sizes that solve in milliseconds, checked
  // against the closed-form optimum rather than against another engine:
  // this anchors the million-variable run above to a verified family.
  for (int n : {1 << 12, 1 << 14, 1 << 16}) {
    LpModel m = ScaleModel(n, 42);
    auto r = SolveLp(m);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, LpStatus::kOptimal) << "n " << n;
    EXPECT_TRUE(m.IsFeasible(r->x, 1e-7)) << "n " << n;
    EXPECT_NEAR(r->objective, ScaleOptimum(m), 1e-7 * ScaleOptimum(m))
        << "n " << n;
  }
}

}  // namespace
}  // namespace pb::solver
