// BasisFactorization: the linear-algebra layer of the revised simplex.
//
// The simplex loops (primal phase 1/2 and the dual) never touch the basis
// matrix directly; they go through this class for the four operations
// revised simplex needs:
//
//   Refactorize(basis)      factor B from scratch (basis[i] = column basic
//                           in row i; columns >= n are row slacks, -e_i)
//   Ftran(x)                x := B^{-1} x        (entering column, RHS)
//   Btran(y)                y := B^{-T} y        (duals from basic costs)
//   BtranUnit(r, rho)       rho := row r of B^{-1} (the priced pivot row)
//   Update(r, alpha, basis) column-replace: basic in row r swapped for the
//                           column whose Ftran image is alpha
//
// The factorization is a sparse LU in the spirit of Suhl & Suhl: a
// left-looking Gilbert-Peierls factorization with a static minimum-count
// column order and Markowitz-flavored threshold pivoting (among
// numerically acceptable rows, prefer the sparsest), updated between
// refactorizations by a product-form eta file. All solves run in
// O(nnz(L+U) + nnz(etas)).
//
// It is deterministic: column order, pivot choice, and tie-breaks depend
// only on the basis and the matrix, never on timing or addresses — the
// branch-and-bound determinism rule (bit-identical results at any thread
// count) extends through this layer.

#ifndef PB_SOLVER_FACTORIZATION_H_
#define PB_SOLVER_FACTORIZATION_H_

#include <cstdint>
#include <vector>

#include "solver/model.h"

namespace pb::solver {

/// Smallest acceptable pivot magnitude, in the factorization and in the
/// simplex ratio tests alike.
inline constexpr double kPivotTol = 1e-9;

struct FactorizationStats {
  int64_t refactorizations = 0;  ///< full factorizations computed
  int64_t updates = 0;           ///< successful column-replace updates
};

class BasisFactorization {
 public:
  /// `a` is the model's csc() and must outlive this object.
  BasisFactorization(const CscMatrix& a, int num_structural, int num_rows)
      : a_(a), n_(num_structural), m_(num_rows) {}

  /// Factors the basis from scratch. Returns false when the basis matrix
  /// is numerically singular (no acceptable pivot); the factorization is
  /// then unusable until a successful Refactorize.
  bool Refactorize(const std::vector<int>& basis);

  /// x := B^{-1} x. `x` is dense, size m.
  void Ftran(std::vector<double>* x);

  /// y := B^{-T} y. `y` is dense, size m.
  void Btran(std::vector<double>* y);

  /// rho := row r of B^{-1} (equivalently B^{-T} e_r) — the priced pivot
  /// row the dual ratio test and the reduced-cost update consume.
  void BtranUnit(int r, std::vector<double>* rho);

  /// Replaces the basic column in row `leave_row`; `alpha` is the Ftran
  /// image B^{-1} a_enter of the incoming column, `basis` the already-
  /// updated basis (used only if a small pivot forces an internal
  /// refactorization). Returns false on a singular refactorization.
  bool Update(int leave_row, const std::vector<double>& alpha,
              const std::vector<int>& basis);

  /// True when the eta file has outgrown the LU factors enough that the
  /// caller should refactorize before its periodic schedule.
  bool ShouldRefactorize() const {
    // Once the eta file outweighs the factors, solves cost more than a
    // fresh factorization would save.
    return !etas_.empty() && eta_nnz_ > 2 * (lu_nnz_ + m_);
  }

  const FactorizationStats& stats() const { return stats_; }

 private:
  // Index spaces: "rows" are original row indices, "steps" are elimination
  // order (step k pivots row pivot_row_[k]), "positions" are basis slots
  // (step k factors basis column step_pos_[k]). L columns store original
  // row indices; U columns store earlier step indices.
  struct Entry {
    int idx;     // L: original row; U: earlier step
    double val;
  };
  struct Eta {
    int r = -1;        // replaced basis position
    double diag = 0.0; // alpha[r]
    std::vector<Entry> ents;  // alpha's other nonzeros (position space)
  };

  /// Visits (row, value) of basis column j: CSC entries for structural
  /// columns, the synthesized single entry (j - n, -1) for slacks.
  template <typename Fn>
  void ForEachColumnEntry(int j, Fn&& fn) const {
    if (j < n_) {
      for (int64_t k = a_.col_start[j]; k < a_.col_start[j + 1]; ++k) {
        fn(static_cast<int>(a_.row[k]), a_.value[k]);
      }
    } else {
      fn(j - n_, -1.0);
    }
  }

  const CscMatrix& a_;  ///< structural columns (model.csc()); not owned
  int n_;               ///< structural column count
  int m_;               ///< row count == basis size
  FactorizationStats stats_;

  std::vector<std::vector<Entry>> lcols_;  // per step, below-diagonal part
  std::vector<std::vector<Entry>> ucols_;  // per step, above-diagonal part
  std::vector<double> udiag_;
  std::vector<int> pivot_row_;  // step -> original row
  std::vector<int> row_step_;   // original row -> step (-1 = unpivoted)
  std::vector<int> step_pos_;   // step -> basis position
  std::vector<Eta> etas_;
  int64_t lu_nnz_ = 0;
  int64_t eta_nnz_ = 0;

  // Workspaces (persist across calls to avoid reallocation).
  std::vector<double> work_;
  std::vector<double> solve_;
  std::vector<int> pattern_;
  std::vector<int> reach_;
  std::vector<int> dfs_;
  std::vector<unsigned char> mark_;   // row in pattern_
  std::vector<unsigned char> smark_;  // step in reach_
};

}  // namespace pb::solver

#endif  // PB_SOLVER_FACTORIZATION_H_
