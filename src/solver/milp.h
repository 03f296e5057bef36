// Branch-and-bound MILP solver on top of the bounded-variable simplex.
//
// This stands in for the "state-of-the-art constraint optimization solvers"
// the paper hands its translated package queries to (CPLEX in the authors'
// deployment). Best-first search on the LP relaxation bound, branching on
// the most fractional integer variable, with an LP-rounding primal
// heuristic to obtain incumbents early. With MilpOptions::compute.threads >
// 1 the tree search runs in parallel: helper threads speculatively solve the
// LPs of frontier nodes against a shared incumbent bound while the main
// thread commits results in the exact serial order, so every solve is
// bit-identical for any thread count (see MilpOptions::compute).

#ifndef PB_SOLVER_MILP_H_
#define PB_SOLVER_MILP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "solver/model.h"
#include "solver/simplex.h"

namespace pb::solver {

enum class MilpStatus {
  kOptimal,     ///< proven optimal incumbent
  kInfeasible,  ///< no integer-feasible point exists
  kFeasible,    ///< stopped at a limit with an incumbent (not proven optimal)
  kNoSolution,  ///< stopped at a limit before finding any incumbent
  kUnbounded,   ///< LP relaxation unbounded in the optimization direction
};

const char* MilpStatusToString(MilpStatus s);

/// Per-variable branching history: average objective degradation observed
/// per unit of fractionality when branching a variable down (floor) or up
/// (ceil). Seeds branch-variable selection; sharing one history across
/// repeated solves of structurally identical models (SketchRefine's
/// refine/repair sub-ILP sequence) gives later solves better choices from
/// node one.
struct PseudocostHistory {
  struct Entry {
    double down_sum = 0.0;  ///< accumulated per-unit degradation, floor side
    double up_sum = 0.0;    ///< accumulated per-unit degradation, ceil side
    int32_t down_n = 0;
    int32_t up_n = 0;
  };
  std::vector<Entry> entries;  ///< indexed by variable
  /// Running aggregates over every observation, maintained alongside the
  /// per-entry sums: O(1) has_observations() and global fallback averages
  /// during branch selection instead of a full pass per node.
  double down_sum_all = 0.0;
  double up_sum_all = 0.0;
  int64_t down_n_all = 0;
  int64_t up_n_all = 0;

  bool has_observations() const { return down_n_all + up_n_all > 0; }
};

/// Reusable cross-solve warm-start state, owned by the caller and passed
/// via MilpOptions::warm. SolveMilp reads it on entry (root LP basis,
/// branching history) and updates it on exit. State is keyed on the
/// model's StructuralSignature(): a signature mismatch resets it, so it is
/// always safe to reuse one MilpWarmStart across arbitrary solves — it only
/// ever helps when the structure actually matches. NOT thread-safe: one
/// warm-start object must not be shared by concurrent solves.
struct MilpWarmStart {
  uint64_t model_signature = 0;
  LpBasis root_basis;
  PseudocostHistory pseudocosts;
};

struct MilpOptions {
  double int_tol = 1e-6;         ///< integrality tolerance
  /// Branch-and-bound node budget. Counts LP solves, including the re-
  /// solves of a node whose LP hit its iteration limit (each retry doubles
  /// the LP budget, so retries are real work the cap must bound).
  int64_t max_nodes = 2'000'000;
  double time_limit_s = 300.0;   ///< wall-clock budget
  bool rounding_heuristic = true;
  /// Re-solve each branch-and-bound child from its parent's optimal basis
  /// (the dual simplex or the phase-1 repair handles the tightened bound;
  /// see lp.use_dual_simplex), chain bases through the dive heuristic, and
  /// branch on pseudocost history. Off = the cold reference solver — cold
  /// slack-basis solves, most-fractional branching, and `warm` ignored —
  /// that the warm-start tests and benchmarks compare against.
  bool warm_start_lps = true;
  /// Propagate each branched bound through per-node row activity ranges
  /// before solving the child's LP: tighten implied integer bounds (COUNT
  /// = k rows fix many binaries at once) and discard children whose rows
  /// can no longer be satisfied without any LP work. Preserves the
  /// integer feasible set exactly (the MILP answer never changes); the
  /// ceil/floor tightening may trim LP-fractional corners of a child's
  /// relaxation, so only the bounds and the search path move. Off = every
  /// child pays a full LP (ablation knob).
  bool node_presolve = true;
  /// Optional cross-solve state (borrowed, in/out); see MilpWarmStart.
  MilpWarmStart* warm = nullptr;
  /// Thread budget (see common/budget.h): `compute.threads` threads run
  /// the tree search (`compute.node_threads` only matters to SketchRefine).
  /// N > 1 adds N-1 helpers that speculatively solve the LP relaxations of
  /// nodes near the top of the open heap — a node's LP is a pure function
  /// of its bounds, inherited basis, and iteration budget — skipping nodes
  /// the published incumbent already cuts off, while the main thread
  /// commits results in the exact serial best-first order. The committed
  /// tree (package, bounds, every counter but speculative_lps) is
  /// therefore bit-identical for EVERY thread count, given a deterministic
  /// stopping rule (prefer max_nodes to a mid-search time_limit_s).
  ComputeBudget compute;
  /// Cooperative cancellation, polled once per branch-and-bound node (and
  /// per dive step). The default token is inert. A cancelled solve stops
  /// exactly like a node/time-limit stop: it returns kFeasible with the
  /// incumbent found so far or kNoSolution without one — never a
  /// corrupted result — and MilpResult::cancelled is set so callers can
  /// tell interruption from budget exhaustion.
  CancelToken cancel;
  /// Per-LP options, inherited by every node, dive and speculative solve.
  /// lp.use_dual_simplex = false re-solves warm children with the phase-1
  /// primal repair instead of the dual simplex (no effect without
  /// warm_start_lps, since only warm bases can enter the dual).
  SimplexOptions lp;
};

struct MilpResult {
  MilpStatus status = MilpStatus::kNoSolution;
  std::vector<double> x;     ///< incumbent (valid for kOptimal / kFeasible)
  double objective = 0.0;    ///< incumbent objective
  double best_bound = 0.0;   ///< proven bound on the optimum
  /// Node LP solves performed (iteration-limit re-solves of one node
  /// count individually — see MilpOptions::max_nodes).
  int64_t nodes = 0;
  int64_t lp_iterations = 0; ///< total simplex iterations
  /// Subset of lp_iterations spent in dual-simplex child re-solves.
  int64_t lp_dual_iterations = 0;
  /// Basis factorization work across every LP in the tree: full
  /// refactorizations and column-replace updates (see FactorizationStats).
  /// Deterministic for any thread count, like the iteration counters.
  int64_t lp_refactorizations = 0;
  int64_t lp_basis_updates = 0;
  /// Variable bounds tightened by node presolve across the whole tree.
  int64_t presolve_fixed_bounds = 0;
  /// Children proven infeasible by bound propagation alone (no LP solved,
  /// not counted in `nodes`).
  int64_t presolve_infeasible_children = 0;
  /// LPs solved by helper threads when compute.threads > 1 — speculation hits
  /// and wasted guesses alike. Diagnostic only and timing-dependent: the
  /// ONE nondeterministic counter in this struct (everything else is
  /// identical for every thread count). Always 0 for serial solves.
  int64_t speculative_lps = 0;
  /// True when the solve stopped because MilpOptions::cancel requested it
  /// (the status is then kFeasible or kNoSolution, as for a limit stop).
  bool cancelled = false;
  double solve_seconds = 0.0;

  bool has_solution() const {
    return status == MilpStatus::kOptimal || status == MilpStatus::kFeasible;
  }
};

/// Index of the integer variable whose fractional part is closest to 1/2
/// ("most fractional"), ignoring variables within `int_tol` of an integer;
/// -1 when x is integral. Ties break to the lowest index. Exposed for
/// testing and reused as the branching fallback before pseudocost history
/// accumulates.
int MostFractionalVariable(const LpModel& model, const std::vector<double>& x,
                           double int_tol);

/// Solves a MILP. Pure-LP models (no integer variables) degrade to a single
/// simplex solve. Statuses map: LP infeasible -> kInfeasible, LP unbounded ->
/// kUnbounded.
[[nodiscard]] Result<MilpResult> SolveMilp(const LpModel& model,
                                           const MilpOptions& options = {});

/// Convenience: solve and require a solution, mapping "no solution" statuses
/// onto error Statuses (kInfeasible / kResourceExhausted / kUnbounded).
[[nodiscard]] Result<MilpResult> SolveMilpOrFail(
    const LpModel& model, const MilpOptions& options = {});

}  // namespace pb::solver

#endif  // PB_SOLVER_MILP_H_
