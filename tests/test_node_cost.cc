// Branch-and-bound per-node cost work must leave the search itself alone.
//
// GoldenCounters pins the exact search of a few lineitem package ILPs —
// node count, LP iterations (dual share included), node-presolve tallies
// and the optimum — so that any change to the ratio test, the node
// presolve or the node LP entry that moves a single pivot or branching
// decision fails here, not merely drifts inside the bench gate's 10%.
//
// PresolveGateSoundness solves random small MILPs built to exercise the
// node presolve's slack gate at its edges (fractional, negative and 1e6
// coefficients; ranged, one-sided, equality and free rows; general-integer
// and unbounded continuous columns) and compares every answer with
// exhaustive enumeration. Debug builds additionally re-scan each row the
// gate skips and assert that it could not have tightened anything.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/translator.h"
#include "datagen/lineitem.h"
#include "db/catalog.h"
#include "paql/analyzer.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace pb::solver {
namespace {

// ----- Golden counters on the lineitem-exact query shape ---------------------

struct GoldenCase {
  double price_quantile;  ///< WHERE extendedprice <= this quantile's cut
  int k;                  ///< COUNT(*) = k
  int quantity_cap;       ///< SUM(quantity) <= cap
  // Recorded search (default MilpOptions, one thread).
  int64_t nodes;
  int64_t lp_iterations;
  int64_t lp_dual_iterations;
  int64_t presolve_fixed_bounds;
  int64_t presolve_infeasible_children;
  double objective;
};

/// A price ceiling halfway between two adjacent distinct sorted prices near
/// `quantile`, so the candidate count is a fixed function of the data.
double PriceCut(const db::Table& table, double quantile) {
  const size_t col = *table.schema().IndexOf("extendedprice");
  std::vector<double> prices;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    prices.push_back(table.at(i, col).AsDoubleExact());
  }
  std::sort(prices.begin(), prices.end());
  size_t c = static_cast<size_t>(quantile * static_cast<double>(prices.size()));
  while (prices[c - 1] == prices[c]) ++c;
  return (prices[c - 1] + prices[c]) / 2.0;
}

TEST(NodeCostTest, GoldenCounters) {
  db::Catalog catalog;
  catalog.RegisterOrReplace(datagen::GenerateLineitems(5000, 20140901));
  const db::Table& table = **catalog.Get("lineitem");
  // Recorded before the per-node cost work; every later change to the
  // ratio test, node presolve or node LP entry must reproduce them exactly.
  const std::vector<GoldenCase> cases = {
      {0.58, 8, 8 * 15, 56, 163, 97, 11036, 1, 5083.9099999999999},
      {0.50, 11, 11 * 21, 43, 170, 86, 103, 0, 5684.6600000000008},
      {0.45, 14, 14 * 21, 111, 379, 185, 38, 0, 6334.0000000000009},
      {0.58, 24, 24 * 15, 217, 716, 407, 0, 0, 14863.870000000001},
  };
  for (const GoldenCase& c : cases) {
    char cut[32];
    std::snprintf(cut, sizeof(cut), "%.3f", PriceCut(table, c.price_quantile));
    const std::string paql =
        std::string("SELECT PACKAGE(L) FROM lineitem L WHERE "
                    "L.extendedprice <= ") +
        cut + " SUCH THAT COUNT(*) = " + std::to_string(c.k) +
        " AND SUM(quantity) <= " + std::to_string(c.quantity_cap) +
        " MAXIMIZE SUM(revenue)";
    SCOPED_TRACE(paql);
    auto aq = paql::ParseAndAnalyze(paql, catalog);
    ASSERT_TRUE(aq.ok()) << aq.status().ToString();
    auto translation = core::TranslateToIlp(*aq);
    ASSERT_TRUE(translation.ok()) << translation.status().ToString();
    auto r = SolveMilp(translation->model);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, MilpStatus::kOptimal);
    EXPECT_EQ(r->nodes, c.nodes);
    EXPECT_EQ(r->lp_iterations, c.lp_iterations);
    EXPECT_EQ(r->lp_dual_iterations, c.lp_dual_iterations);
    EXPECT_EQ(r->presolve_fixed_bounds, c.presolve_fixed_bounds);
    EXPECT_EQ(r->presolve_infeasible_children, c.presolve_infeasible_children);
    EXPECT_EQ(r->objective, c.objective);
  }
}

// ----- Slack-gate soundness on random small MILPs ----------------------------

/// Row coefficient menus. Fractional and negative values sit side by side;
/// a 1e6-magnitude row draws every coefficient from the large menu (a row
/// mixing 1e6 with O(1) terms is a big-M row whose answer hinges on the
/// integrality tolerance, not on the presolve). All values are dyadic
/// multiples, so the enumeration oracle's activities are exact.
constexpr double kSmallCoeffs[] = {1.0, -1.0, 0.5, -0.25, 1.75, -3.0, 2.5,
                                   0.375};
constexpr double kLargeCoeffs[] = {1e6, -1e6, 2.5e6, -0.375e6, 0.5e6};

/// A random MILP of 2-4 integer columns (binary and general-integer
/// domains, some straddling zero), sometimes a continuous column (bounded
/// and priced, or unbounded and free of cost), and 1-3 rows of assorted
/// shapes. Row bounds are placed relative to a random integer point and to
/// the row's activity range — tight, at the swing boundary, or loose
/// enough for the slack gate to skip the row.
LpModel RandomSmallMilp(Rng* rng) {
  static const std::pair<double, double> kDomains[] = {
      {0, 1}, {0, 3}, {-2, 2}, {-1, 4}};
  LpModel m;
  const int n_int = static_cast<int>(rng->UniformInt(2, 4));
  std::vector<double> point;
  for (int j = 0; j < n_int; ++j) {
    auto [lb, ub] = kDomains[rng->Index(4)];
    m.AddVariable("x" + std::to_string(j), lb, ub,
                  std::round(rng->UniformReal(-10, 10) * 8) / 8, true);
    point.push_back(static_cast<double>(
        rng->UniformInt(static_cast<int64_t>(lb), static_cast<int64_t>(ub))));
  }
  switch (rng->UniformInt(0, 2)) {
    case 1:
      m.AddVariable("c", 0, 2.5, rng->UniformReal(-5, 5), false);
      point.push_back(1.25);
      break;
    case 2:
      m.AddVariable("c", -kInfinity, kInfinity, 0.0, false);
      point.push_back(0.0);
      break;
    default:
      break;
  }
  const int rows = static_cast<int>(rng->UniformInt(1, 3));
  for (int i = 0; i < rows; ++i) {
    // Half the rows are built around a point of their own, so the rows of
    // one model need not agree and some models are infeasible.
    if (rng->Bernoulli(0.5)) {
      for (int j = 0; j < n_int; ++j) {
        const Variable& v = m.variable(j);
        point[j] = static_cast<double>(rng->UniformInt(
            static_cast<int64_t>(v.lb), static_cast<int64_t>(v.ub)));
      }
    }
    const bool large = rng->Bernoulli(0.3);
    std::vector<LinearTerm> terms;
    for (int j = 0; j < m.num_variables(); ++j) {
      if (j == 0 || rng->Bernoulli(0.7)) {
        terms.push_back(
            {j, large ? kLargeCoeffs[rng->Index(std::size(kLargeCoeffs))]
                      : kSmallCoeffs[rng->Index(std::size(kSmallCoeffs))]});
      }
    }
    double act = 0.0, act_min = 0.0, act_max = 0.0, swing = 0.0;
    for (const LinearTerm& t : terms) {
      const Variable& v = m.variable(t.var);
      act += t.coeff * point[t.var];
      RowActivityBounds r = TermActivityRange(t.coeff, v.lb, v.ub);
      act_min += r.min;
      act_max += r.max;
      if (v.is_integer) {
        swing = std::max(swing, std::abs(t.coeff) * (v.ub - v.lb));
      }
    }
    const double w = std::abs(terms[rng->Index(terms.size())].coeff) *
                     (rng->Bernoulli(0.5) ? 0.5 : 2.0);
    // Offsets around the swing boundary: below it a term can tighten, at it
    // none can, above it the gate may skip the row.
    const double edge = swing * (rng->Bernoulli(0.5) ? 1.0 : 1.0 + 1e-3) +
                        (rng->Bernoulli(0.5) ? 0.0 : 1e-3);
    double lo = -kInfinity, hi = kInfinity;
    switch (rng->UniformInt(0, 7)) {
      case 0:  // equality
        lo = hi = act;
        break;
      case 1:  // tight range
        lo = act - w;
        hi = act + w;
        break;
      case 2:  // one-sided <=
        hi = act + w;
        break;
      case 3:  // one-sided >=
        lo = act - w;
        break;
      case 4:  // loose range: the gate's skip case
        lo = act_min - w;
        hi = act_max + w;
        break;
      case 5:  // free row
        break;
      case 6:  // <= just at / past the swing from the minimum activity
        hi = std::isfinite(act_min)
                 ? act_min + edge - (rng->Bernoulli(0.3) ? w : 0.0)
                 : act + w;
        if (rng->Bernoulli(0.5)) lo = act - w;
        break;
      default:  // >= just at / past the swing from the maximum activity
        lo = std::isfinite(act_max)
                 ? act_max - edge + (rng->Bernoulli(0.3) ? w : 0.0)
                 : act - w;
        if (rng->Bernoulli(0.5)) hi = act + w;
        break;
    }
    if (lo > hi) std::swap(lo, hi);
    m.AddConstraint("r" + std::to_string(i), std::move(terms), lo, hi);
  }
  m.SetSense(rng->Bernoulli(0.5) ? ObjectiveSense::kMaximize
                                 : ObjectiveSense::kMinimize);
  return m;
}

/// Exhaustive oracle: every integer assignment, with the continuous column
/// (if any) optimized by an LP over the fixed integers. Returns false when
/// no assignment is feasible.
bool EnumerateOptimum(const LpModel& m, double* best) {
  const int n = m.num_variables();
  const bool maximize = m.sense() == ObjectiveSense::kMaximize;
  bool any_continuous = false;
  std::vector<double> x(n, 0.0);
  std::vector<std::pair<double, double>> fixed(n);
  for (int j = 0; j < n; ++j) {
    const Variable& v = m.variable(j);
    fixed[j] = {v.lb, v.ub};
    if (v.is_integer) x[j] = v.lb;
    any_continuous = any_continuous || !v.is_integer;
  }
  bool found = false;
  for (;;) {
    double obj = 0.0;
    bool feasible = false;
    if (any_continuous) {
      for (int j = 0; j < n; ++j) {
        if (m.variable(j).is_integer) fixed[j] = {x[j], x[j]};
      }
      auto lp = SolveLp(m, {}, &fixed);
      feasible = lp.ok() && lp->status == LpStatus::kOptimal;
      if (feasible) obj = lp->objective;
    } else {
      feasible = m.IsFeasible(x, 1e-7);
      obj = m.ObjectiveValue(x);
    }
    if (feasible && (!found || (maximize ? obj > *best : obj < *best))) {
      *best = obj;
      found = true;
    }
    int j = 0;
    for (; j < n; ++j) {
      if (!m.variable(j).is_integer) continue;
      if (x[j] < m.variable(j).ub) {
        x[j] += 1.0;
        break;
      }
      x[j] = m.variable(j).lb;
    }
    if (j == n) return found;
  }
}

TEST(NodeCostTest, PresolveGateSoundness) {
  Rng rng(20240917);
  int feasible = 0;
  int64_t fixed = 0, pruned = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    LpModel m = RandomSmallMilp(&rng);
    SCOPED_TRACE(testing::Message() << "trial " << trial << "\n"
                                    << m.ToLpFormat());
    double expected = 0.0;
    const bool exists = EnumerateOptimum(m, &expected);
    auto r = SolveMilp(m);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    fixed += r->presolve_fixed_bounds;
    pruned += r->presolve_infeasible_children;
    if (!exists) {
      EXPECT_EQ(r->status, MilpStatus::kInfeasible);
      continue;
    }
    ++feasible;
    ASSERT_EQ(r->status, MilpStatus::kOptimal);
    EXPECT_NEAR(r->objective, expected, 1e-6 * (1.0 + std::abs(expected)));
  }
  // Both verdicts, and the presolve's tightenings and infeasible-child
  // proofs, must be well represented for the comparison to mean anything.
  EXPECT_GT(feasible, 200);
  EXPECT_LT(feasible, 980);
  EXPECT_GT(fixed, 100);
  EXPECT_GT(pruned, 10);
}

}  // namespace
}  // namespace pb::solver
