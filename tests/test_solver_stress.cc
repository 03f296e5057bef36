// Stress and edge-path tests for the solver substrate: degenerate and
// ill-conditioned models, iteration/refactorization paths, ranged-row
// corner cases, and larger randomized sweeps than test_solver.cc runs.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/random.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace pb::solver {
namespace {

TEST(SimplexStressTest, ManyRedundantEqualities) {
  // The same equality repeated: the basis gets degenerate rows; the
  // refactorization path must keep the inverse healthy.
  LpModel m;
  int x = m.AddVariable("x", 0, 10, 1, false);
  int y = m.AddVariable("y", 0, 10, 1, false);
  for (int i = 0; i < 12; ++i) {
    m.AddConstraint("eq" + std::to_string(i), {{x, 1.0}, {y, 1.0}}, 6, 6);
  }
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 6.0, 1e-7);
}

TEST(SimplexStressTest, WideRangeOfCoefficientMagnitudes) {
  // Coefficients spanning 1e-4 .. 1e4 (recipes' calories vs. ratings).
  LpModel m;
  int x = m.AddVariable("x", 0, 1e6, 1e-4, false);
  int y = m.AddVariable("y", 0, 1e6, 1e4, false);
  m.AddConstraint("mix", {{x, 1e-4}, {y, 1e4}}, -kInfinity, 1e4);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  // Optimum: spend the row on y (1e4 per unit of activity beats 1e-4...
  // both give objective = activity; any split attains 1e4).
  EXPECT_NEAR(r->objective, 1e4, 1.0);
}

TEST(SimplexStressTest, IterationLimitSurfacesHonestly) {
  pb::Rng rng(21);
  LpModel m;
  std::vector<LinearTerm> row;
  for (int j = 0; j < 200; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(0, 1), false);
  }
  for (int i = 0; i < 20; ++i) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < 200; ++j) {
      terms.push_back({j, rng.UniformReal(-1, 1)});
    }
    m.AddConstraint("r" + std::to_string(i), terms, -5, 5);
  }
  m.SetSense(ObjectiveSense::kMaximize);
  SimplexOptions opts;
  opts.max_iterations = 3;  // starved
  auto r = SolveLp(m, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, LpStatus::kIterationLimit);
}

TEST(SimplexStressTest, EqualityAtVariableBound) {
  // x must sit exactly at its upper bound to satisfy the row.
  LpModel m;
  int x = m.AddVariable("x", 0, 4, -1, false);
  m.AddConstraint("pin", {{x, 1.0}}, 4, 4);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, LpStatus::kOptimal);
  EXPECT_NEAR(r->x[0], 4.0, 1e-9);
}

TEST(SimplexStressTest, InfeasibleByConflictingRows) {
  LpModel m;
  int x = m.AddVariable("x", -kInfinity, kInfinity, 0, false);
  int y = m.AddVariable("y", -kInfinity, kInfinity, 0, false);
  m.AddConstraint("a", {{x, 1.0}, {y, 1.0}}, 10, kInfinity);
  m.AddConstraint("b", {{x, 1.0}, {y, 1.0}}, -kInfinity, 5);
  auto r = SolveLp(m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, LpStatus::kInfeasible);
}

TEST(SimplexStressTest, LargeRandomFeasibleSweep) {
  // 30 random LPs with a known feasible point: never infeasible, optimal
  // objective never worse than the known point.
  pb::Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    int n = static_cast<int>(rng.UniformInt(5, 40));
    int rows = static_cast<int>(rng.UniformInt(1, 8));
    LpModel m;
    std::vector<double> feasible(n);
    for (int j = 0; j < n; ++j) {
      feasible[j] = rng.UniformReal(0, 2);
      m.AddVariable("x" + std::to_string(j), 0, 3,
                    rng.UniformReal(-2, 2), false);
    }
    for (int i = 0; i < rows; ++i) {
      std::vector<LinearTerm> terms;
      double activity = 0;
      for (int j = 0; j < n; ++j) {
        double c = rng.UniformReal(-1, 1);
        terms.push_back({j, c});
        activity += c * feasible[j];
      }
      // A window around the known point's activity.
      m.AddConstraint("r" + std::to_string(i), terms,
                      activity - rng.UniformReal(0, 1),
                      activity + rng.UniformReal(0, 1));
    }
    m.SetSense(ObjectiveSense::kMaximize);
    auto r = SolveLp(m);
    ASSERT_TRUE(r.ok()) << trial;
    ASSERT_EQ(r->status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_GE(r->objective, m.ObjectiveValue(feasible) - 1e-6)
        << "trial " << trial;
    EXPECT_TRUE(m.IsFeasible(r->x, 1e-5)) << "trial " << trial;
  }
}

TEST(MilpStressTest, DeepBranchingStillExact) {
  // An interval-cover model that forces real branching: pick integers
  // x_j in [0,2] with pairwise-coupling rows; verified by exhaustion.
  pb::Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 6;
    LpModel m;
    for (int j = 0; j < n; ++j) {
      m.AddVariable("x" + std::to_string(j), 0, 2,
                    static_cast<double>(rng.UniformInt(-3, 5)), true);
    }
    for (int i = 0; i + 1 < n; i += 2) {
      m.AddConstraint("pair" + std::to_string(i),
                      {{i, 1.0}, {i + 1, 1.0}},
                      1, 3);
    }
    m.SetSense(ObjectiveSense::kMaximize);
    // Exhaustive oracle over 3^6 = 729 points.
    double best = -1e18;
    std::vector<double> x(n);
    std::function<void(int)> rec = [&](int j) {
      if (j == n) {
        if (m.IsFeasible(x, 1e-9)) best = std::max(best, m.ObjectiveValue(x));
        return;
      }
      for (int v = 0; v <= 2; ++v) {
        x[j] = v;
        rec(j + 1);
      }
    };
    rec(0);
    auto r = SolveMilp(m);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, MilpStatus::kOptimal) << trial;
    EXPECT_NEAR(r->objective, best, 1e-6) << trial;
  }
}

TEST(MilpStressTest, TimeLimitReturnsIncumbentWhenFound) {
  // Large correlated knapsack with a tiny time budget: the dive heuristic
  // should still deliver a feasible incumbent.
  pb::Rng rng(41);
  LpModel m;
  std::vector<LinearTerm> cap;
  double total = 0;
  for (int j = 0; j < 400; ++j) {
    double w = rng.UniformReal(1, 20);
    m.AddVariable("x" + std::to_string(j), 0, 1, w + rng.UniformReal(0, 1),
                  true);
    cap.push_back({j, w});
    total += w;
  }
  m.AddConstraint("cap", cap, -kInfinity, total / 3);
  m.SetSense(ObjectiveSense::kMaximize);
  MilpOptions opts;
  opts.time_limit_s = 0.05;
  auto r = SolveMilp(m, opts);
  ASSERT_TRUE(r.ok());
  if (r->has_solution()) {
    EXPECT_TRUE(m.IsFeasible(r->x, 1e-6));
    // The bound reported must dominate the incumbent.
    EXPECT_GE(r->best_bound, r->objective - 1e-6);
  }
}

TEST(MilpStressTest, MixedIntegerContinuous) {
  // Continuous y rides along integer x: max 2x + y, y <= 0.5, x + y <= 3.2,
  // x integer in [0,5] -> x = 2 (2.7 would violate int), wait:
  // x + y <= 3.2 with y <= 0.5: best x = 3 (3 + 0.2), obj = 6.2.
  LpModel m;
  int x = m.AddVariable("x", 0, 5, 2, true);
  int y = m.AddVariable("y", 0, 0.5, 1, false);
  m.AddConstraint("cap", {{x, 1.0}, {y, 1.0}}, -kInfinity, 3.2);
  m.SetSense(ObjectiveSense::kMaximize);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_NEAR(r->x[0], 3.0, 1e-6);
  EXPECT_NEAR(r->x[1], 0.2, 1e-6);
  EXPECT_NEAR(r->objective, 6.2, 1e-6);
}

TEST(MilpStressTest, NegativeBoundsInteger) {
  // Integer variable spanning negative range: min x s.t. x >= -2.5.
  LpModel m;
  int x = m.AddVariable("x", -10, 10, 1, true);
  m.AddConstraint("floor", {{x, 1.0}}, -2.5, kInfinity);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_NEAR(r->x[0], -2.0, 1e-9);
}

TEST(MilpStressTest, AllVariablesFixedByBounds) {
  LpModel m;
  m.AddVariable("x", 2, 2, 5, true);
  m.AddVariable("y", -1, -1, 1, true);
  m.AddConstraint("check", {{0, 1.0}, {1, 1.0}}, 1, 1);
  auto r = SolveMilp(m);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, MilpStatus::kOptimal);
  EXPECT_NEAR(r->objective, 9.0, 1e-9);
}

TEST(MilpStressTest, BlandFromTheStartAgreesWithDefaultPricing) {
  // always_bland is the seam that reaches the simplex's anti-cycling
  // branches (primal entering column, dual leaving row, dual ratio test):
  // the default devex path only falls back to them on a stall.
  pb::Rng rng(53);
  for (int trial = 0; trial < 15; ++trial) {
    LpModel m;
    int n = static_cast<int>(rng.UniformInt(3, 10));
    std::vector<LinearTerm> row;
    for (int j = 0; j < n; ++j) {
      m.AddVariable("x" + std::to_string(j), 0, 2,
                    static_cast<double>(rng.UniformInt(-3, 3)), true);
      row.push_back({j, static_cast<double>(rng.UniformInt(1, 4))});
    }
    m.AddConstraint("cap", row, 2, 3 * n);
    m.SetSense(ObjectiveSense::kMaximize);
    MilpOptions devex;
    MilpOptions bland;
    bland.lp.always_bland = true;
    auto a = SolveMilp(m, devex);
    auto b = SolveMilp(m, bland);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->status, b->status) << trial;
    if (a->status == MilpStatus::kOptimal) {
      EXPECT_NEAR(a->objective, b->objective, 1e-6) << trial;
    }
  }
}

}  // namespace
}  // namespace pb::solver
