// BasisFactorization layer tests: the sparse LU's solves must satisfy
// B x = b against the basis matrix assembled independently from the model
// (the oracle), eta-updated factors must track a fresh factorization of
// the same basis, and singular bases must be rejected — plus the CSC
// view's agreement with the authoritative row storage it is derived from.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "solver/factorization.h"
#include "solver/model.h"

namespace pb::solver {
namespace {

/// Dense model: every variable appears in every row with a nonzero random
/// coefficient, so any basis without repeated columns is nonsingular with
/// probability one.
LpModel DenseRandomModel(int n, int m, uint64_t seed) {
  Rng rng(seed);
  LpModel model;
  for (int j = 0; j < n; ++j) {
    model.AddVariable("x" + std::to_string(j), 0.0, 1.0, 1.0,
                      /*is_integer=*/false);
  }
  for (int i = 0; i < m; ++i) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < n; ++j) {
      double c = rng.UniformReal(0.5, 2.0);
      if (rng.UniformReal(0.0, 1.0) < 0.5) c = -c;
      terms.push_back({j, c});
    }
    model.AddConstraint("r" + std::to_string(i), std::move(terms), 0.0, 1.0);
  }
  return model;
}

/// Column `j` of the basis matrix, assembled from the row storage (not the
/// CSC cache) so the factorization is checked against an independent
/// reading of the model. Slack j >= n is -e_{j-n}.
std::vector<double> BasisColumn(const LpModel& model, int j) {
  int m = model.num_constraints();
  std::vector<double> col(m, 0.0);
  if (j < model.num_variables()) {
    for (int i = 0; i < m; ++i) {
      for (const LinearTerm& t : model.constraint(i).terms) {
        if (t.var == j) col[i] += t.coeff;
      }
    }
  } else {
    col[j - model.num_variables()] = -1.0;
  }
  return col;
}

/// B x for the basis matrix whose column i is BasisColumn(basis[i]).
std::vector<double> MultiplyBasis(const LpModel& model,
                                  const std::vector<int>& basis,
                                  const std::vector<double>& x) {
  int m = model.num_constraints();
  std::vector<double> out(m, 0.0);
  for (int i = 0; i < m; ++i) {
    std::vector<double> col = BasisColumn(model, basis[i]);
    for (int r = 0; r < m; ++r) out[r] += col[r] * x[i];
  }
  return out;
}

BasisFactorization Make(const LpModel& model) {
  return BasisFactorization(model.csc(), model.num_variables(),
                            model.num_constraints());
}

TEST(CscMatrixTest, MatchesRowStorage) {
  LpModel model;
  model.AddVariable("a", 0, 1, 1, false);
  model.AddVariable("b", 0, 1, 1, false);
  model.AddVariable("c", 0, 1, 1, false);
  model.AddConstraint("r0", {{0, 2.0}, {2, -1.0}}, 0, 1);
  model.AddConstraint("r1", {{1, 3.0}}, 0, 1);
  model.AddConstraint("r2", {{0, 5.0}, {1, 4.0}, {2, 7.0}}, 0, 1);

  const CscMatrix& a = model.csc();
  ASSERT_EQ(a.num_cols(), 3);
  EXPECT_EQ(a.nnz(), 6);
  // Column 0: rows 0 and 2, ascending.
  EXPECT_EQ(a.col_start[0], 0);
  EXPECT_EQ(a.col_start[1], 2);
  EXPECT_EQ(a.row[0], 0);
  EXPECT_EQ(a.value[0], 2.0);
  EXPECT_EQ(a.row[1], 2);
  EXPECT_EQ(a.value[1], 5.0);
  // Column 1: rows 1 and 2.
  EXPECT_EQ(a.col_start[2], 4);
  EXPECT_EQ(a.row[2], 1);
  EXPECT_EQ(a.value[2], 3.0);
  EXPECT_EQ(a.row[3], 2);
  EXPECT_EQ(a.value[3], 4.0);
  // Column 2: rows 0 and 2.
  EXPECT_EQ(a.col_start[3], 6);
  EXPECT_EQ(a.row[4], 0);
  EXPECT_EQ(a.value[4], -1.0);
  EXPECT_EQ(a.row[5], 2);
  EXPECT_EQ(a.value[5], 7.0);
}

TEST(CscMatrixTest, CacheInvalidatedByBuilderCalls) {
  LpModel model;
  model.AddVariable("a", 0, 1, 1, false);
  model.AddConstraint("r0", {{0, 1.0}}, 0, 1);
  EXPECT_EQ(model.csc().nnz(), 1);
  model.AddVariable("b", 0, 1, 1, false);
  model.AddConstraint("r1", {{0, 1.0}, {1, 2.0}}, 0, 1);
  const CscMatrix& a = model.csc();
  EXPECT_EQ(a.num_cols(), 2);
  EXPECT_EQ(a.nnz(), 3);
}

TEST(FactorizationTest, SolvesSatisfyResiduals) {
  const int n = 12, m = 6;
  LpModel model = DenseRandomModel(n, m, 99);
  // Mixed structural/slack basis, deliberately out of row order.
  std::vector<int> basis = {3, n + 1, 0, n + 4, 7, 5};

  BasisFactorization lu = Make(model);
  ASSERT_TRUE(lu.Refactorize(basis));

  Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> b(m);
    for (double& v : b) v = rng.UniformReal(-5.0, 5.0);

    // Ftran: x = B^{-1} b, and B x must reproduce b.
    std::vector<double> x = b;
    lu.Ftran(&x);
    std::vector<double> back = MultiplyBasis(model, basis, x);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(back[i], b[i], 1e-9) << "ftran residual row " << i;
    }

    // Btran: y = B^{-T} c, so column basis[i] must price to c[i].
    std::vector<double> y = b;
    lu.Btran(&y);
    for (int i = 0; i < m; ++i) {
      std::vector<double> col = BasisColumn(model, basis[i]);
      double dot = 0.0;
      for (int r = 0; r < m; ++r) dot += col[r] * y[r];
      EXPECT_NEAR(dot, b[i], 1e-9) << "btran residual col " << i;
    }
  }

  // BtranUnit r is row r of B^{-1} == B^{-T} e_r: against the basis
  // matrix, rho . column basis[i] is 1 for i == r and 0 otherwise.
  for (int r = 0; r < m; ++r) {
    std::vector<double> rho, er(m, 0.0);
    er[r] = 1.0;
    lu.BtranUnit(r, &rho);
    std::vector<double> ref = er;
    lu.Btran(&ref);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(rho[i], ref[i], 1e-12) << "row " << r << " col " << i;
      std::vector<double> col = BasisColumn(model, basis[i]);
      double dot = 0.0;
      for (int k = 0; k < m; ++k) dot += col[k] * rho[k];
      EXPECT_NEAR(dot, er[i], 1e-9) << "row " << r << " col " << i;
    }
  }
}

TEST(FactorizationTest, ColumnReplaceUpdatesTrackAFreshFactorization) {
  const int n = 12, m = 6;
  LpModel model = DenseRandomModel(n, m, 1234);
  // Start from the all-slack basis and pivot structural columns in one at
  // a time, exactly the way the simplex drives Update().
  std::vector<int> basis(m);
  for (int i = 0; i < m; ++i) basis[i] = n + i;

  BasisFactorization lu = Make(model);
  ASSERT_TRUE(lu.Refactorize(basis));

  const std::vector<std::pair<int, int>> pivots = {
      {0, 2}, {3, 9}, {1, 5}, {4, 0}, {2, 11}};
  for (auto [row, enter] : pivots) {
    std::vector<double> alpha = BasisColumn(model, enter);
    lu.Ftran(&alpha);
    basis[row] = enter;  // the caller updates the basis before Update()
    ASSERT_TRUE(lu.Update(row, alpha, basis));
  }
  EXPECT_EQ(lu.stats().updates, 5);
  EXPECT_EQ(lu.stats().refactorizations, 1);

  // A second instance factored directly from the final basis is the ground
  // truth the eta-updated representation must still match.
  BasisFactorization fresh = Make(model);
  ASSERT_TRUE(fresh.Refactorize(basis));
  Rng rng(5);
  std::vector<double> b(m);
  for (double& v : b) v = rng.UniformReal(-3.0, 3.0);
  std::vector<double> xs = b, xf = b;
  lu.Ftran(&xs);
  fresh.Ftran(&xf);
  std::vector<double> back = MultiplyBasis(model, basis, xs);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(xs[i], xf[i], 1e-8) << "updated vs fresh, row " << i;
    EXPECT_NEAR(back[i], b[i], 1e-8) << "residual row " << i;
  }
  std::vector<double> ys = b, yf = b;
  lu.Btran(&ys);
  fresh.Btran(&yf);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(ys[i], yf[i], 1e-8) << "btran row " << i;
    std::vector<double> col = BasisColumn(model, basis[i]);
    double dot = 0.0;
    for (int r = 0; r < m; ++r) dot += col[r] * ys[r];
    EXPECT_NEAR(dot, b[i], 1e-8) << "btran residual col " << i;
  }
}

TEST(FactorizationTest, SingularBasisRejected) {
  const int n = 8, m = 4;
  LpModel model = DenseRandomModel(n, m, 77);
  // The same structural column basic in two rows: rank-deficient by
  // construction, whatever its values.
  std::vector<int> singular = {2, 2, n + 0, n + 1};
  BasisFactorization lu = Make(model);
  EXPECT_FALSE(lu.Refactorize(singular));
  // A failed factorization must not poison a later good one.
  std::vector<int> ok = {2, n + 3, n + 0, n + 1};
  EXPECT_TRUE(lu.Refactorize(ok));
  std::vector<double> b = {1.0, -2.0, 3.0, 0.5};
  std::vector<double> x = b;
  lu.Ftran(&x);
  std::vector<double> back = MultiplyBasis(model, ok, x);
  for (int i = 0; i < m; ++i) EXPECT_NEAR(back[i], b[i], 1e-9);
}

}  // namespace
}  // namespace pb::solver
