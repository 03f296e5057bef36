// Bounded-variable revised simplex: two-phase primal plus a dual simplex
// for warm re-solves.
//
// This is the LP engine underneath the MILP branch-and-bound. It handles
// ranged constraints (lo <= ax <= hi) by introducing one slack per row
// (ax - s = 0, s in [lo, hi]) and runs a two-phase primal simplex:
//
//   Phase 1 starts from the always-valid slack basis and minimizes the total
//   bound violation of basic variables (piecewise-linear composite phase 1;
//   the cost vector is re-derived each iteration, and infeasible basics
//   block the ratio test at the bound where their cost segment changes).
//
//   Phase 2 is the standard bounded-variable primal simplex with devex
//   pricing and a Bland's-rule fallback for anti-cycling after a stall
//   threshold.
//
// The linear algebra lives behind two layers (see factorization.h and
// pricing.h): a BasisFactorization — sparse LU with eta updates — and a
// devex Pricing object scoring entering columns / leaving rows. Reduced costs
// are maintained incrementally from the priced pivot row (a sparse BTRAN
// per pivot) instead of being recomputed by a dense scan each iteration,
// and are rebuilt from fresh duals on every refactorization and before
// any claim of optimality.
//
// When a warm-start basis arrives that is bound-infeasible but still
// dual-feasible — exactly what a branch-and-bound child inherits after the
// branch tightened one variable bound — the solve enters a bounded-variable
// DUAL simplex instead of the phase-1 primal repair: pick the most-violated
// basic variable (dual devex row weights; lowest-index Bland fallback for
// anti-cycling), run the dual ratio test over the priced pivot row, and
// pivot through the same factorization layer the primal uses.
// Primal feasibility is restored in a few dual pivots while dual
// feasibility (= optimality) is maintained throughout, so the follow-up
// primal phases exit immediately. A dual run that hits numerical trouble
// falls back to the cold primal path before ever concluding infeasible.

#ifndef PB_SOLVER_SIMPLEX_H_
#define PB_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "solver/model.h"

namespace pb::solver {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* LpStatusToString(LpStatus s);

/// Where a variable rests in a simplex basis. Variables 0..n-1 are the
/// model's structural columns; n..n+m-1 are the per-row slacks.
enum class VarStat : int8_t { kBasic, kAtLower, kAtUpper, kFree };

/// Snapshot of a simplex basis, sufficient to warm-start a later solve of
/// the same model (or any model with identical dimensions — structural
/// compatibility is the caller's contract; SolveLp falls back to a cold
/// start whenever the snapshot does not fit or is singular).
struct LpBasis {
  /// basic[i] = index of the variable basic in row i (size m).
  std::vector<int> basic;
  /// Status of every variable, structural then slack (size n + m).
  /// stat[basic[i]] must be kBasic; exactly m entries are kBasic.
  std::vector<VarStat> stat;

  bool empty() const { return basic.empty(); }
  void clear() {
    basic.clear();
    stat.clear();
  }
};

/// Result of one LP solve.
struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  /// Structural variable values (model order); valid when kOptimal.
  std::vector<double> x;
  /// Objective under the model's sense; valid when kOptimal.
  double objective = 0.0;
  int64_t iterations = 0;
  /// Subset of `iterations` spent in the dual simplex (0 for cold solves
  /// and for warm starts repaired by the primal phase 1).
  int64_t dual_iterations = 0;
  /// Full basis factorizations (initial, periodic, and recovery) and
  /// successful column-replace updates between them. Deterministic for a
  /// given model/options, so benches gate on them.
  int64_t refactorizations = 0;
  int64_t basis_updates = 0;
  /// Final basis; populated when kOptimal (for warm-starting related
  /// solves) and when kIterationLimit (so a re-solve with a raised limit
  /// resumes instead of restarting).
  LpBasis basis;
};

struct SimplexOptions {
  int64_t max_iterations = 0; ///< 0 = automatic (scaled to model size)
  /// Use Bland's rule from the first iteration instead of only after the
  /// stall threshold. The default path reaches the anti-cycling branches
  /// only on degenerate cycling, so this is the seam that lets tests
  /// exercise them (MilpStressTest compares it against the default).
  bool always_bland = false;
  /// Enter the dual simplex when a warm basis is bound-infeasible but
  /// dual-feasible (the branch-and-bound child re-solve). Off sends every
  /// warm repair through the composite primal phase 1, the reference the
  /// dual path is checked bit-for-bit against.
  bool use_dual_simplex = true;
};

/// The iteration budget SolveLp will use for `model` under `options`:
/// options.max_iterations when positive, otherwise the automatic limit
/// scaled to the model's size. Exposed so callers (branch-and-bound's
/// iteration-limit re-queue) can raise the limit meaningfully.
int64_t EffectiveIterationLimit(const LpModel& model,
                                const SimplexOptions& options);

/// Solves the LP relaxation of `model` (integrality is ignored).
/// `bound_override`, when non-null, replaces variable bounds (used by
/// branch-and-bound nodes); it must have one (lb, ub) pair per variable.
/// `warm_start`, when non-null and non-empty, seeds the solve from a prior
/// basis of a dimensionally identical model: nonbasic variables snap to
/// their (possibly changed) bounds, a bound-infeasible basis is
/// re-optimized by the dual simplex when it is still dual-feasible
/// (options.use_dual_simplex) and repaired by the composite phase 1
/// otherwise, and a singular or ill-sized snapshot silently falls back to
/// the cold slack basis.
[[nodiscard]] Result<LpSolution> SolveLp(
    const LpModel& model, const SimplexOptions& options = {},
    const std::vector<std::pair<double, double>>* bound_override = nullptr,
    const LpBasis* warm_start = nullptr);

namespace internal {

/// SolveLp minus the model.Validate() pass, for a caller that validated
/// `model` itself and then solves many LPs over it while it stays const:
/// branch-and-bound's node, dive and speculative solves (SolveMilp
/// validates once on entry). The bound_override checks still run.
[[nodiscard]] Result<LpSolution> SolveLpPrevalidated(
    const LpModel& model, const SimplexOptions& options,
    const std::vector<std::pair<double, double>>* bound_override,
    const LpBasis* warm_start);

}  // namespace internal

}  // namespace pb::solver

#endif  // PB_SOLVER_SIMPLEX_H_
