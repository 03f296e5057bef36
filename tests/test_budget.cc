// ComputeBudget / CancelToken / Deadline — the budget primitives the
// Engine facade threads through every solve — plus the solver-level
// cancellation contract: a cancelled solve stops like a limit stop
// (partial, well-formed, flagged), never with a corrupted result.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/random.h"
#include "solver/milp.h"

namespace pb {
namespace {

TEST(ComputeBudgetTest, ResolveThreadsClampsToOne) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(4), 4);
  EXPECT_EQ(ResolveThreads(0), 1);  // degenerate values clamp to 1
  EXPECT_EQ(ResolveThreads(-3), 1);
}

TEST(CancelTokenTest, DefaultTokenIsInert) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancel_requested());
  token.RequestCancel();  // no-op, must not crash
  EXPECT_FALSE(token.cancel_requested());
}

TEST(CancelTokenTest, CopiesShareTheFlag) {
  CancelToken token = CancelToken::Create();
  CancelToken copy = token;
  EXPECT_TRUE(copy.valid());
  EXPECT_FALSE(copy.cancel_requested());
  token.RequestCancel();
  EXPECT_TRUE(copy.cancel_requested());
}

TEST(DeadlineTest, DefaultHasNoDeadline) {
  Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.SecondsRemaining(), 1e8);
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  Deadline d = Deadline::AfterSeconds(0.0);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.SecondsRemaining(), 0.0);
}

TEST(DeadlineTest, FutureDeadlineCountsDown) {
  Deadline d = Deadline::AfterSeconds(3600.0);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.SecondsRemaining(), 3500.0);
  EXPECT_LE(d.SecondsRemaining(), 3600.0);
}

// ---------------------------------------------------------------- solver

/// A package-style ILP with real branching work (tight COUNT + SUM rows).
solver::LpModel TightPackageIlp(int n, uint64_t seed) {
  Rng rng(seed);
  solver::LpModel m;
  std::vector<solver::LinearTerm> count, weight;
  for (int j = 0; j < n; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), true);
    count.push_back({j, 1.0});
    weight.push_back({j, rng.UniformReal(100.0, 900.0)});
  }
  m.AddConstraint("count", count, 8, 8);
  m.AddConstraint("weight", weight, 3600, 3700);
  m.SetSense(solver::ObjectiveSense::kMaximize);
  return m;
}

TEST(MilpBudgetTest, ComputeThreadsCommitTheSerialTree) {
  solver::LpModel model = TightPackageIlp(120, 11);

  solver::MilpOptions serial;
  auto base = solver::SolveMilp(model, serial);
  ASSERT_TRUE(base.ok());

  solver::MilpOptions via_budget;
  via_budget.compute.threads = 2;
  auto budget = solver::SolveMilp(model, via_budget);
  ASSERT_TRUE(budget.ok());

  EXPECT_EQ(budget->x, base->x);
  EXPECT_EQ(budget->nodes, base->nodes);
  EXPECT_EQ(budget->lp_iterations, base->lp_iterations);
}

TEST(MilpBudgetTest, PreCancelledSolveStopsBeforeAnyNode) {
  solver::LpModel model = TightPackageIlp(120, 11);
  solver::MilpOptions options;
  options.cancel = CancelToken::Create();
  options.cancel.RequestCancel();
  auto r = solver::SolveMilp(model, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cancelled);
  EXPECT_EQ(r->status, solver::MilpStatus::kNoSolution);
  EXPECT_EQ(r->nodes, 0);
}

TEST(MilpBudgetTest, MidSolveCancelReturnsWellFormedPartialResult) {
  solver::LpModel model = TightPackageIlp(400, 17);
  solver::MilpOptions options;
  options.cancel = CancelToken::Create();
  options.time_limit_s = 300.0;

  Result<solver::MilpResult> result = Status::Internal("solve never ran");
  std::thread solver_thread([&] { result = SolveMilp(model, options); });
  // Let some nodes commit, then pull the plug. If the solve finishes
  // first the assertions below still hold (cancelled stays false and the
  // result is complete) — the test never flakes on timing, it only loses
  // coverage on a too-fast machine.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  options.cancel.RequestCancel();
  solver_thread.join();

  ASSERT_TRUE(result.ok());
  if (result->cancelled) {
    EXPECT_TRUE(result->status == solver::MilpStatus::kFeasible ||
                result->status == solver::MilpStatus::kNoSolution);
    if (result->has_solution()) {
      // A partial incumbent must still be a genuinely feasible point.
      EXPECT_TRUE(model.IsFeasible(result->x, 1e-6));
    }
  } else {
    EXPECT_EQ(result->status, solver::MilpStatus::kOptimal);
  }
}

}  // namespace
}  // namespace pb
