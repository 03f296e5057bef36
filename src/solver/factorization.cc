#include "solver/factorization.h"

#include <algorithm>
#include <cmath>

namespace pb::solver {

// Left-looking LU (Gilbert-Peierls) with threshold Markowitz pivoting, plus
// a product-form eta file between refactorizations. Everything is O(nnz)
// of the factors.

bool BasisFactorization::Refactorize(const std::vector<int>& basis) {
  lcols_.assign(m_, {});
  ucols_.assign(m_, {});
  udiag_.assign(m_, 0.0);
  pivot_row_.assign(m_, -1);
  row_step_.assign(m_, -1);
  step_pos_.assign(m_, -1);
  etas_.clear();
  eta_nnz_ = 0;
  lu_nnz_ = 0;
  work_.assign(m_, 0.0);
  mark_.assign(m_, 0);
  smark_.assign(m_, 0);
  solve_.resize(m_);

  // Static Markowitz surrogate: process columns sparsest-first, break
  // pivot ties toward the sparsest row. Slacks are singletons, so a
  // package basis factors with its dense-ish COUNT rows last.
  std::vector<int> colnnz(m_, 0), rownnz(m_, 0);
  for (int p = 0; p < m_; ++p) {
    ForEachColumnEntry(basis[p], [&](int i, double) {
      ++colnnz[p];
      ++rownnz[i];
    });
  }
  std::vector<int> order(m_);
  for (int p = 0; p < m_; ++p) order[p] = p;
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    if (colnnz[x] != colnnz[y]) return colnnz[x] < colnnz[y];
    return x < y;
  });

  for (int k = 0; k < m_; ++k) {
    int pos = order[k];
    // Scatter the basis column into the dense workspace.
    pattern_.clear();
    ForEachColumnEntry(basis[pos], [&](int i, double v) {
      if (!mark_[i]) {
        mark_[i] = 1;
        pattern_.push_back(i);
      }
      work_[i] += v;
    });

    // Symbolic phase: the earlier steps whose updates reach this column,
    // found by DFS through the L columns' fill rows. Every edge goes
    // from a step to a later one, so ascending step order is a valid
    // topological order for the numeric pass.
    reach_.clear();
    for (int i : pattern_) {
      int t0 = row_step_[i];
      if (t0 < 0 || smark_[t0]) continue;
      smark_[t0] = 1;
      reach_.push_back(t0);
      dfs_.assign(1, t0);
      while (!dfs_.empty()) {
        int t = dfs_.back();
        dfs_.pop_back();
        for (const Entry& e : lcols_[t]) {
          int ts = row_step_[e.idx];
          if (ts >= 0 && !smark_[ts]) {
            smark_[ts] = 1;
            reach_.push_back(ts);
            dfs_.push_back(ts);
          }
        }
      }
    }
    std::sort(reach_.begin(), reach_.end());

    // Numeric phase: record U entries and apply the multipliers.
    for (int t : reach_) {
      smark_[t] = 0;
      double d = work_[pivot_row_[t]];
      if (d == 0.0) continue;
      ucols_[k].push_back({t, d});
      work_[pivot_row_[t]] = 0.0;
      for (const Entry& e : lcols_[t]) {
        if (!mark_[e.idx]) {
          mark_[e.idx] = 1;
          pattern_.push_back(e.idx);
        }
        work_[e.idx] -= d * e.val;
      }
    }

    // Threshold pivot: the sparsest row whose magnitude is within a
    // factor of the best one (classic Markowitz-with-threshold, tau=0.1).
    double maxabs = 0.0;
    for (int i : pattern_) {
      if (row_step_[i] < 0) maxabs = std::max(maxabs, std::abs(work_[i]));
    }
    if (maxabs < kPivotTol) {
      for (int i : pattern_) {
        mark_[i] = 0;
        work_[i] = 0.0;
      }
      return false;  // numerically singular
    }
    const double thresh = std::max(0.1 * maxabs, kPivotTol);
    int pr = -1;
    for (int i : pattern_) {
      if (row_step_[i] >= 0 || std::abs(work_[i]) < thresh) continue;
      if (pr < 0 || rownnz[i] < rownnz[pr] ||
          (rownnz[i] == rownnz[pr] && i < pr)) {
        pr = i;
      }
    }
    double pv = work_[pr];
    pivot_row_[k] = pr;
    row_step_[pr] = k;
    step_pos_[k] = pos;
    udiag_[k] = pv;
    work_[pr] = 0.0;
    mark_[pr] = 0;
    for (int i : pattern_) {
      if (i == pr) continue;
      mark_[i] = 0;
      if (row_step_[i] < 0 && work_[i] != 0.0) {
        lcols_[k].push_back({i, work_[i] / pv});
      }
      work_[i] = 0.0;
    }
    lu_nnz_ += static_cast<int64_t>(lcols_[k].size() + ucols_[k].size()) + 1;
  }
  ++stats_.refactorizations;
  return true;
}

void BasisFactorization::Ftran(std::vector<double>* x) {
  std::vector<double>& b = *x;
  // Forward L solve in original row space: after step t fires, the value
  // parked at pivot_row_[t] is (L^{-1} P b)_t.
  for (int t = 0; t < m_; ++t) {
    double d = b[pivot_row_[t]];
    if (d == 0.0) continue;
    for (const Entry& e : lcols_[t]) b[e.idx] -= d * e.val;
  }
  // Backward U solve, column-oriented.
  for (int k = m_ - 1; k >= 0; --k) {
    double z = b[pivot_row_[k]] / udiag_[k];
    solve_[k] = z;
    if (z != 0.0) {
      for (const Entry& e : ucols_[k]) b[pivot_row_[e.idx]] -= e.val * z;
    }
  }
  // Undo the column permutation (step k factored basis position
  // step_pos_[k]), then roll the eta file forward.
  for (int k = 0; k < m_; ++k) b[step_pos_[k]] = solve_[k];
  for (const Eta& eta : etas_) {
    double d = b[eta.r] / eta.diag;
    b[eta.r] = d;
    if (d != 0.0) {
      for (const Entry& e : eta.ents) b[e.idx] -= e.val * d;
    }
  }
}

void BasisFactorization::Btran(std::vector<double>* y) {
  std::vector<double>& c = *y;
  // Eta file transposed, newest first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double s = 0.0;
    for (const Entry& e : it->ents) s += e.val * c[e.idx];
    c[it->r] = (c[it->r] - s) / it->diag;
  }
  // U^T forward solve in step space...
  for (int k = 0; k < m_; ++k) {
    double g = c[step_pos_[k]];
    for (const Entry& e : ucols_[k]) g -= e.val * solve_[e.idx];
    solve_[k] = g / udiag_[k];
  }
  // ...then L^T backward (unit diagonal; lcols_ rows map to later steps).
  for (int t = m_ - 1; t >= 0; --t) {
    double g = solve_[t];
    for (const Entry& e : lcols_[t]) g -= e.val * solve_[row_step_[e.idx]];
    solve_[t] = g;
  }
  for (int t = 0; t < m_; ++t) c[pivot_row_[t]] = solve_[t];
}

void BasisFactorization::BtranUnit(int r, std::vector<double>* rho) {
  rho->assign(m_, 0.0);
  (*rho)[r] = 1.0;
  Btran(rho);
}

bool BasisFactorization::Update(int leave_row,
                                const std::vector<double>& alpha,
                                const std::vector<int>& basis) {
  double piv = alpha[leave_row];
  if (std::abs(piv) < kPivotTol) return Refactorize(basis);
  Eta eta;
  eta.r = leave_row;
  eta.diag = piv;
  for (int i = 0; i < m_; ++i) {
    if (i != leave_row && alpha[i] != 0.0) eta.ents.push_back({i, alpha[i]});
  }
  eta_nnz_ += static_cast<int64_t>(eta.ents.size()) + 1;
  etas_.push_back(std::move(eta));
  ++stats_.updates;
  return true;
}

}  // namespace pb::solver
