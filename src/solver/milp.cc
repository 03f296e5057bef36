#include "solver/milp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>

#include "common/annotations.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace pb::solver {

const char* MilpStatusToString(MilpStatus s) {
  switch (s) {
    case MilpStatus::kOptimal:    return "Optimal";
    case MilpStatus::kInfeasible: return "Infeasible";
    case MilpStatus::kFeasible:   return "Feasible";
    case MilpStatus::kNoSolution: return "NoSolution";
    case MilpStatus::kUnbounded:  return "Unbounded";
  }
  return "?";
}

int MostFractionalVariable(const LpModel& model, const std::vector<double>& x,
                           double int_tol) {
  int best = -1;
  double best_dist = kInfinity;  // distance of the fractional part to 1/2
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    double frac = std::abs(x[j] - std::round(x[j]));
    if (frac <= int_tol) continue;
    double dist_half = std::abs(frac - 0.5);
    if (dist_half < best_dist) {
      best_dist = dist_half;
      best = j;
    }
  }
  return best;
}

namespace {

/// Absolute bound-vs-incumbent gap below which a node cannot improve on
/// the incumbent.
constexpr double kGapAbs = 1e-9;

using Bounds = std::vector<std::pair<double, double>>;

struct Node {
  Bounds bounds;
  double bound;      // parent LP objective (optimistic bound for this node)
  LpBasis basis;     // parent's optimal basis (empty = cold start)
  /// Per-row activity ranges under `bounds`, maintained incrementally down
  /// the tree by node presolve (empty when node_presolve is off).
  std::vector<RowActivityBounds> acts;
  int branch_var = -1;      // variable branched on to create this node
  double branch_frac = 0.0; // fractional part of the parent's LP value
  bool branch_up = false;   // ceil side (vs floor side)
  int lp_limit_boost = 0;   // times the LP iteration limit was doubled
};

/// Heap entry: the node plus its speculation slot. A node's LP inputs
/// (bounds, basis, lp_limit_boost) are immutable from push to pop, so its
/// relaxation can be solved by any thread at any point in that window; the
/// slot records who did and holds the result. Slot transitions happen
/// under SpecPool::mu; the LP itself runs unlocked.
struct OpenNode {
  Node node;

  enum class Spec : uint8_t {
    kIdle,     ///< nobody has started this node's LP
    kClaimed,  ///< some thread is solving it right now
    kDone,     ///< lp_status / lp below hold the finished solve
  };
  Spec spec = Spec::kIdle;
  /// Popped (or pruned) by the main thread: helpers must not pick it up
  /// even if a stale frontier snapshot still lists it.
  bool dead = false;
  Status lp_status = Status::OK();
  LpSolution lp;
};

using OpenNodePtr = std::shared_ptr<OpenNode>;

/// Best-first: larger is better for max problems, smaller for min. Applied
/// through std::push_heap/pop_heap this reproduces std::priority_queue's
/// ordering decisions exactly (same algorithm, same comparator calls), so
/// the pop order matches the serial solver byte for byte.
struct NodeOrder {
  bool maximize;
  bool operator()(const OpenNodePtr& a, const OpenNodePtr& b) const {
    return maximize ? a->node.bound < b->node.bound
                    : a->node.bound > b->node.bound;
  }
};

/// Shared state between the committing main thread and the speculative LP
/// helpers. The open heap itself stays main-thread-local; helpers only see
/// the published `frontier` snapshot and write into claimed nodes' slots.
struct SpecPool {
  const LpModel* model = nullptr;
  SimplexOptions base_lp;
  int64_t base_lp_limit = 0;  // EffectiveIterationLimit(model, base_lp)
  bool warm_enabled = false;
  bool maximize = false;

  Mutex mu;
  CondVar work_cv;  ///< helpers: frontier refreshed / stop
  CondVar done_cv;  ///< main thread: a claimed LP finished
  /// Speculation candidates, best bound first (refreshed by the main
  /// thread after every commit). Which nodes appear here only affects how
  /// much helper work is useful — never the result. (The OpenNode
  /// spec/dead slots the frontier points at are likewise only touched
  /// under mu while helpers run; they cannot carry PB_GUARDED_BY because
  /// the serial path owns them lock-free when no helpers exist.)
  std::vector<OpenNodePtr> frontier PB_GUARDED_BY(mu);
  bool stop PB_GUARDED_BY(mu) = false;

  /// Incumbent objective, published on every improvement so helpers can
  /// skip frontier nodes the serial commit will prune anyway. Relaxed
  /// reads: a stale value costs at most one wasted LP, never correctness.
  std::atomic<double> incumbent_obj{0.0};
  std::atomic<bool> have_incumbent{false};
  /// LPs solved by helpers (useful and wasted alike; timing-dependent).
  std::atomic<int64_t> speculative_lps{0};
};

/// Helper-thread body: repeatedly claim the best idle frontier node that
/// still beats the published incumbent, solve its LP, and post the result
/// into the node's slot.
void SpeculationLoop(SpecPool* pool) {
  MutexLock lock(&pool->mu);
  for (;;) {
    if (pool->stop) return;
    OpenNodePtr pick;
    for (const OpenNodePtr& cand : pool->frontier) {
      if (cand->spec != OpenNode::Spec::kIdle || cand->dead) continue;
      if (pool->have_incumbent.load(std::memory_order_relaxed)) {
        double inc = pool->incumbent_obj.load(std::memory_order_relaxed);
        bool beats = pool->maximize
                         ? cand->node.bound > inc + kGapAbs
                         : cand->node.bound < inc - kGapAbs;
        if (!beats) continue;  // the commit loop will prune it unsolved
      }
      pick = cand;
      break;
    }
    if (!pick) {
      pool->work_cv.Wait(&pool->mu);
      continue;
    }
    pick->spec = OpenNode::Spec::kClaimed;
    lock.Unlock();

    SimplexOptions lp_opts = pool->base_lp;
    if (pick->node.lp_limit_boost > 0) {
      lp_opts.max_iterations = pool->base_lp_limit
                               << pick->node.lp_limit_boost;
    }
    const LpBasis* start = pool->warm_enabled && !pick->node.basis.empty()
                               ? &pick->node.basis
                               : nullptr;
    Result<LpSolution> r = internal::SolveLpPrevalidated(
        *pool->model, lp_opts, &pick->node.bounds, start);
    pool->speculative_lps.fetch_add(1, std::memory_order_relaxed);

    lock.Lock();
    if (r.ok()) {
      pick->lp = std::move(*r);
    } else {
      pick->lp_status = r.status();
    }
    pick->spec = OpenNode::Spec::kDone;
    pool->done_cv.NotifyAll();
  }
}

/// Recomputes one row's activity range from scratch under the bounds
/// `bounds_of(j)` returns per variable (the fallback when infinite
/// contributions make the incremental form ill-defined).
template <typename BoundsOf>
RowActivityBounds RowActivityUnder(const LpModel& model, int row,
                                   BoundsOf&& bounds_of) {
  double lo = 0.0, hi = 0.0;
  for (const LinearTerm& t : model.constraint(row).terms) {
    const auto& [lb, ub] = bounds_of(t.var);
    RowActivityBounds r = TermActivityRange(t.coeff, lb, ub);
    lo += r.min;
    hi += r.max;
  }
  return {lo, hi};
}

/// Node presolve's per-solve state. The row gate data is computed once from
/// the model's bounds; the rest is scratch reused by every
/// PropagateBranchedBound call of the solve (only the committing thread
/// propagates). Marks are stamped per call, so a call that returns early
/// leaves nothing to clean up.
struct PresolveWorkspace {
  /// Per row: the largest |a_ij| * (ub_j - lb_j) over its integer columns
  /// under the model's bounds. Node bounds only shrink from those, so no
  /// integer term of the row can ever swing its activity further.
  std::vector<double> row_swing;
  /// Per row: the largest |a_ij| * max(|lb_j|, |ub_j|) over its integer
  /// columns — the magnitude a term scan subtracts, which scales the
  /// gate's rounding allowance.
  std::vector<double> row_term_scale;
  /// Bounds `acts` still reflects for each queued variable (valid while
  /// var_mark[v] == stamp). A variable off the queue has had its current
  /// bounds folded in, so it needs no entry.
  Bounds reflected;
  std::vector<uint32_t> var_mark, row_mark;
  std::vector<int> var_queue, row_queue;
  uint32_t stamp = 0;

  explicit PresolveWorkspace(const LpModel& model)
      : row_swing(model.num_constraints(), 0.0),
        row_term_scale(model.num_constraints(), 0.0),
        reflected(model.num_variables()),
        var_mark(model.num_variables(), 0),
        row_mark(model.num_constraints(), 0) {
    for (int i = 0; i < model.num_constraints(); ++i) {
      for (const LinearTerm& t : model.constraint(i).terms) {
        const Variable& v = model.variable(t.var);
        if (!v.is_integer) continue;
        const double lb = v.lb, ub = v.ub;
        double a = std::abs(t.coeff);
        row_swing[i] = std::max(row_swing[i], a * (ub - lb));
        row_term_scale[i] = std::max(
            row_term_scale[i], a * std::max(std::abs(lb), std::abs(ub)));
      }
    }
  }

  /// Starts a propagation: every mark from earlier calls goes stale.
  void NextStamp() {
    if (++stamp == 0) {  // wrapped: clear for real once per 2^32 calls
      std::fill(var_mark.begin(), var_mark.end(), 0);
      std::fill(row_mark.begin(), row_mark.end(), 0);
      stamp = 1;
    }
    var_queue.clear();
    row_queue.clear();
  }
};

/// The integer bounds row `con` implies for its term `t`, starting from the
/// term's current bounds [l, u]: the residual activity range without the
/// term — taken against `refl`, the bounds `ra` reflects for it — is
/// divided through and rounded inward. Returns {l, u} when nothing tightens.
std::pair<double, double> ImpliedTermBounds(const Constraint& con,
                                            const RowActivityBounds& ra,
                                            const LinearTerm& t,
                                            std::pair<double, double> cur,
                                            std::pair<double, double> refl,
                                            double int_tol) {
  RowActivityBounds self = TermActivityRange(t.coeff, refl.first, refl.second);
  double rest_min = ra.min - self.min;
  double rest_max = ra.max - self.max;
  double new_l = cur.first, new_u = cur.second;
  if (t.coeff > 0) {
    if (std::isfinite(con.hi) && std::isfinite(rest_min)) {
      new_u = std::min(new_u, (con.hi - rest_min) / t.coeff);
    }
    if (std::isfinite(con.lo) && std::isfinite(rest_max)) {
      new_l = std::max(new_l, (con.lo - rest_max) / t.coeff);
    }
  } else {
    if (std::isfinite(con.hi) && std::isfinite(rest_min)) {
      new_l = std::max(new_l, (con.hi - rest_min) / t.coeff);
    }
    if (std::isfinite(con.lo) && std::isfinite(rest_max)) {
      new_u = std::min(new_u, (con.lo - rest_max) / t.coeff);
    }
  }
  if (std::isfinite(new_l)) new_l = std::ceil(new_l - int_tol);
  if (std::isfinite(new_u)) new_u = std::floor(new_u + int_tol);
  return {new_l, new_u};
}

/// The slack gate: true when row `r` has so much room on both sides that
/// no integer term can tighten. Tightening a term's bound needs the row's
/// slack on that side (hi - act.min or act.max - lo) to be below the
/// term's swing |a| * (u - l) <= row_swing[r]; an infinite slack (an
/// infinite row bound or activity) never tightens. The allowance on top of
/// the swing covers the rounding of ImpliedTermBounds' three operations.
bool RowCannotTighten(const PresolveWorkspace& ws, int r,
                      const Constraint& con, const RowActivityBounds& ra) {
  constexpr double kGateRel = 1e-9;
  constexpr double kGateAbs = 1e-9;
  const double swing = ws.row_swing[r];
  const double scale = ws.row_term_scale[r];
  auto roomy = [&](double bound, double act, double slack) {
    if (!std::isfinite(slack)) return true;
    return slack > swing + kGateAbs +
                       kGateRel * (std::abs(bound) + std::abs(act) + scale +
                                   swing);
  };
  return roomy(con.hi, ra.min, con.hi - ra.min) &&
         roomy(con.lo, ra.max, ra.max - con.lo);
}

/// Node presolve: propagates a branched bound through the row activity
/// ranges. On entry `bounds` holds the child's bounds with `changed_var`
/// already tightened while `acts` still reflects that variable's old
/// [old_lb, old_ub]; both are updated in place. Tightening is applied to
/// integer variables only, and the ceil/floor step may cut LP-fractional
/// points of the child's relaxation (e.g. 2x <= 1 rounds x's bound from
/// 0.5 to 0) — what is preserved exactly is the child's INTEGER feasible
/// set, so the MILP answer never changes, only the relaxation bounds and
/// the search path. A COUNT = k row whose minimum activity reaches k this
/// way fixes every remaining binary to 0 at once. Returns false when a
/// row's activity range can no longer meet its bounds: the child is
/// infeasible and needs no LP at all. `tightened` counts bound changes
/// beyond the branched one.
///
/// The cost is proportional to what the branch touches: a variable's delta
/// folds into its rows through variable_rows(), and a visited row scans
/// its terms only when the slack gate (RowCannotTighten) cannot rule a
/// tightening out — on dense package rows, most visits stop at the gate.
bool PropagateBranchedBound(const LpModel& model, int changed_var,
                            double old_lb, double old_ub, double int_tol,
                            PresolveWorkspace* ws, Bounds* bounds,
                            std::vector<RowActivityBounds>* acts,
                            int64_t* tightened) {
  constexpr double kFeasEps = 1e-7;
  const auto& vrows = model.variable_rows();
  const int m = model.num_constraints();

  // A tightened variable goes onto the queue with the bounds `acts` still
  // reflects for it; popping it folds the delta into its rows.
  ws->NextStamp();
  const uint32_t stamp = ws->stamp;
  auto reflected = [&](int v) -> const std::pair<double, double>& {
    return ws->var_mark[v] == stamp ? ws->reflected[v] : (*bounds)[v];
  };
  ws->reflected[changed_var] = {old_lb, old_ub};
  ws->var_mark[changed_var] = stamp;
  ws->var_queue.push_back(changed_var);

  // Tightening budget (row visits). Float drift on dense package rows
  // could otherwise re-tighten forever; once spent, rows still drain for
  // their activity updates and infeasibility checks but produce no new
  // tightenings — stopping early is sound, never wrong.
  int row_budget = 8 * m + 64;

  while (!ws->var_queue.empty() || !ws->row_queue.empty()) {
    if (!ws->var_queue.empty()) {
      // Fold one variable's bound delta into every row it touches. This
      // queue always drains fully so `acts` ends consistent with `bounds`
      // (children inherit it).
      int v = ws->var_queue.back();
      ws->var_queue.pop_back();
      ws->var_mark[v] = 0;  // off the queue: reflected(v) is now bounds[v]
      auto [olb, oub] = ws->reflected[v];
      auto [nlb, nub] = (*bounds)[v];
      for (const RowTerm& rt : vrows[v]) {
        RowActivityBounds& ra = (*acts)[rt.row];
        RowActivityBounds was = TermActivityRange(rt.coeff, olb, oub);
        RowActivityBounds now = TermActivityRange(rt.coeff, nlb, nub);
        if (std::isfinite(was.min) && std::isfinite(was.max) &&
            std::isfinite(ra.min) && std::isfinite(ra.max)) {
          ra.min += now.min - was.min;
          ra.max += now.max - was.max;
        } else {
          // `reflected` is exactly what this row's range must mirror
          // mid-propagation (v's entry was just advanced).
          ra = RowActivityUnder(model, rt.row, reflected);
        }
        if (ws->row_mark[rt.row] != stamp) {
          ws->row_mark[rt.row] = stamp;
          ws->row_queue.push_back(rt.row);
        }
      }
      continue;
    }

    int r = ws->row_queue.back();
    ws->row_queue.pop_back();
    ws->row_mark[r] = 0;
    const Constraint& con = model.constraint(r);
    const RowActivityBounds& ra = (*acts)[r];
    if (ra.min > con.hi + kFeasEps || ra.max < con.lo - kFeasEps) {
      return false;  // the row cannot be satisfied: infeasible child
    }
    if (--row_budget < 0) continue;

    if (RowCannotTighten(*ws, r, con, ra)) {
#ifndef NDEBUG
      // Cross-check the gate: the full scan it skips must change nothing.
      for (const LinearTerm& t : con.terms) {
        if (!model.variable(t.var).is_integer) continue;
        const auto cur = (*bounds)[t.var];
        if (cur.first == cur.second) continue;
        const auto implied =
            ImpliedTermBounds(con, ra, t, cur, reflected(t.var), int_tol);
        PB_DCHECK(implied.first <= cur.first && implied.second >= cur.second)
            << "slack gate skipped a tightening in row " << r;
      }
#endif
      continue;
    }

    for (const LinearTerm& t : con.terms) {
      if (!model.variable(t.var).is_integer) continue;
      const auto [l, u] = (*bounds)[t.var];
      if (l == u) continue;
      // Against the bounds `acts` reflects for the term (which may lag
      // `bounds` while the var is queued).
      const auto [new_l, new_u] =
          ImpliedTermBounds(con, ra, t, {l, u}, reflected(t.var), int_tol);
      if (new_l <= l && new_u >= u) continue;  // no improvement
      if (new_l > new_u) return false;         // empty domain
      if (ws->var_mark[t.var] != stamp) {
        ws->reflected[t.var] = {l, u};
        ws->var_mark[t.var] = stamp;
        ws->var_queue.push_back(t.var);
      }
      (*bounds)[t.var] = {new_l, new_u};
      ++*tightened;
    }
  }
  return true;
}

/// Branch-variable selection: pseudocost scoring once any history exists,
/// the caller's most-fractional pick (`fallback`) before that. The score
/// is the product of the estimated objective degradations of the two
/// children (the standard product rule); variables without observations on
/// a side borrow the global average (O(1) from the history's running
/// aggregates). Fully deterministic: ties break to the lowest index via
/// strict >.
int SelectBranchVariable(const LpModel& model, const std::vector<double>& x,
                         double int_tol, const PseudocostHistory& pc,
                         int fallback) {
  if (pc.entries.size() != static_cast<size_t>(model.num_variables()) ||
      !pc.has_observations()) {
    return fallback;
  }
  double global_down =
      pc.down_n_all > 0 ? pc.down_sum_all / pc.down_n_all : 1.0;
  double global_up = pc.up_n_all > 0 ? pc.up_sum_all / pc.up_n_all : 1.0;

  int best = -1;
  double best_score = -1.0;
  constexpr double kEps = 1e-9;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    double frac = x[j] - std::floor(x[j]);
    if (frac <= int_tol || frac >= 1.0 - int_tol) continue;
    const PseudocostHistory::Entry& e = pc.entries[j];
    double down = e.down_n > 0 ? e.down_sum / e.down_n : global_down;
    double up = e.up_n > 0 ? e.up_sum / e.up_n : global_up;
    double score =
        std::max(down * frac, kEps) * std::max(up * (1.0 - frac), kEps);
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

/// Rounds integer variables to the nearest integer within bounds; returns
/// true if the rounded point is feasible for the whole model.
bool TryRound(const LpModel& model, const Bounds& bounds,
              const std::vector<double>& x, double tol,
              std::vector<double>* rounded) {
  *rounded = x;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) continue;
    double r = std::round(x[j]);
    r = std::min(std::max(r, bounds[j].first), bounds[j].second);
    (*rounded)[j] = r;
  }
  return model.IsFeasible(*rounded, tol);
}

/// Diving heuristic: repeatedly fixes the most fractional integer variable
/// to its nearest integer and re-solves the LP. Package models (equality
/// COUNT rows) rarely round feasibly, but they dive very well — this is how
/// the solver finds its first incumbent without exploring the tree. When
/// `seed` is non-null the caller's basis starts the chain (the first dive
/// LP is exactly the caller's LP, so it prices out immediately) and each
/// step's basis warm-starts the next.
/// Returns true with an integer-feasible point in *out on success.
bool TryDive(const LpModel& model, Bounds bounds, const SimplexOptions& lp_opts,
             double int_tol, const LpBasis* seed, const CancelToken& cancel,
             MilpResult* tallies, std::vector<double>* out) {
  constexpr int kMaxDepth = 400;
  const bool warm = seed != nullptr;
  LpBasis chain;
  if (warm) chain = *seed;
  for (int depth = 0; depth < kMaxDepth; ++depth) {
    // The dive is a chain of up to kMaxDepth LP solves; without this check
    // a cancel issued mid-dive would only take effect at the next node pop.
    if (cancel.cancel_requested()) return false;
    auto lp = internal::SolveLpPrevalidated(model, lp_opts, &bounds,
                                            warm ? &chain : nullptr);
    if (!lp.ok()) return false;
    tallies->lp_iterations += lp->iterations;
    tallies->lp_dual_iterations += lp->dual_iterations;
    tallies->lp_refactorizations += lp->refactorizations;
    tallies->lp_basis_updates += lp->basis_updates;
    if (lp->status != LpStatus::kOptimal) return false;
    if (warm) chain = std::move(lp->basis);
    int j = MostFractionalVariable(model, lp->x, int_tol);
    if (j < 0) {
      *out = lp->x;
      for (int v = 0; v < model.num_variables(); ++v) {
        if (model.variable(v).is_integer) (*out)[v] = std::round((*out)[v]);
      }
      return model.IsFeasible(*out, int_tol);
    }
    double fixed = std::round(lp->x[j]);
    fixed = std::min(std::max(fixed, bounds[j].first), bounds[j].second);
    bounds[j] = {fixed, fixed};
  }
  return false;
}

}  // namespace

Result<MilpResult> SolveMilp(const LpModel& model, const MilpOptions& options) {
  // The model is const for the whole solve, so this one check covers every
  // node, dive and speculative LP below (internal::SolveLpPrevalidated).
  PB_RETURN_IF_ERROR(model.Validate());
  Stopwatch timer;
  const bool maximize = model.sense() == ObjectiveSense::kMaximize;
  auto better = [&](double a, double b) {
    return maximize ? a > b + kGapAbs : a < b - kGapAbs;
  };

  MilpResult result;
  const int n = model.num_variables();

  // warm_start_lps=false is the faithful pre-warm-start ablation: cold LP
  // solves, most-fractional branching, and no cross-solve state at all.
  const bool warm_enabled = options.warm_start_lps;
  const SimplexOptions& base_lp = options.lp;
  const bool presolve_enabled =
      options.node_presolve && model.num_constraints() > 0;

  // Cross-solve warm-start state: usable only while the model's structure
  // matches what the state was learned on; reset otherwise.
  MilpWarmStart* warm = warm_enabled ? options.warm : nullptr;
  if (warm != nullptr) {
    uint64_t sig = model.StructuralSignature();
    if (warm->model_signature != sig) {
      warm->root_basis.clear();
      warm->pseudocosts = PseudocostHistory{};
      warm->model_signature = sig;
    }
  }
  PseudocostHistory local_pc;
  PseudocostHistory& pc = warm != nullptr ? warm->pseudocosts : local_pc;
  pc.entries.resize(n);

  Bounds root_bounds(n);
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    double lo = v.lb, hi = v.ub;
    // Integer variables get their bounds tightened to integers up front.
    if (v.is_integer) {
      if (std::isfinite(lo)) lo = std::ceil(lo - options.int_tol);
      if (std::isfinite(hi)) hi = std::floor(hi + options.int_tol);
    }
    root_bounds[j] = {lo, hi};
  }

  // Root activity ranges for node presolve: the model-level cache when the
  // integer tightening above changed nothing (the common case — package
  // binaries already have integral bounds), a fresh per-row pass otherwise.
  std::vector<RowActivityBounds> root_acts;
  if (presolve_enabled) {
    root_acts = model.row_activity_bounds();
    bool bounds_match_model = true;
    for (int j = 0; j < n && bounds_match_model; ++j) {
      const Variable& v = model.variable(j);
      bounds_match_model =
          root_bounds[j].first == v.lb && root_bounds[j].second == v.ub;
    }
    if (!bounds_match_model) {
      for (int i = 0; i < model.num_constraints(); ++i) {
        root_acts[i] = RowActivityUnder(
            model, i, [&](int j) -> const auto& { return root_bounds[j]; });
      }
    }
  }
  // Built on the first branch: a solve that ends at the root (most
  // SketchRefine sub-ILPs) never pays for it.
  std::optional<PresolveWorkspace> presolve_ws;

  // ---- Speculative parallelism (see MilpOptions::compute). The open
  // heap and every commit stay on this thread; helpers only pre-solve LPs
  // of published frontier nodes. A pure LP (no integer variables) is a
  // single solve — nothing to speculate on.
  // Deprecated-alias resolution (see ComputeBudget): either knob works,
  // the larger wins, and both default to 1.
  const int num_threads = ResolveThreads(options.compute.threads);
  const bool parallel = num_threads > 1 && model.has_integer_variables();
  SpecPool spec;
  std::unique_ptr<ThreadPool> helper_pool;
  std::unique_ptr<TaskGroup> helper_group;
  if (parallel) {
    // Materialize the model's lazy structural caches before any helper can
    // read the model concurrently: every node LP reads csc(), and
    // a cold cache fill racing a reader is a data race.
    model.csc();
    if (presolve_enabled) model.variable_rows();
    spec.model = &model;
    spec.base_lp = base_lp;
    spec.base_lp_limit = EffectiveIterationLimit(model, base_lp);
    spec.warm_enabled = warm_enabled;
    spec.maximize = maximize;
  }
  auto stop_helpers = [&] {
    if (helper_group == nullptr) return;
    {
      MutexLock lock(&spec.mu);
      spec.stop = true;
    }
    spec.work_cv.NotifyAll();
    helper_group->Wait();
    helper_group.reset();
    result.speculative_lps =
        spec.speculative_lps.load(std::memory_order_relaxed);
  };
  // Early returns (LP solve errors) must drain helpers before the locals
  // they reference go out of scope.
  struct StopGuard {
    decltype(stop_helpers)* fn;
    ~StopGuard() { (*fn)(); }
  } stop_guard{&stop_helpers};

  // The open heap, managed with push_heap/pop_heap (== priority_queue's
  // internals) so the serial pop order is preserved exactly while nodes
  // get the stable addresses speculation needs.
  NodeOrder node_order{maximize};
  std::vector<OpenNodePtr> open;
  auto push_open = [&](OpenNodePtr entry) {
    open.push_back(std::move(entry));
    std::push_heap(open.begin(), open.end(), node_order);
  };
  auto pop_open = [&] {
    std::pop_heap(open.begin(), open.end(), node_order);
    OpenNodePtr top = std::move(open.back());
    open.pop_back();
    return top;
  };
  // Publish the speculation frontier: the best few open nodes, taken from
  // the heap array's prefix (the shallow levels hold the best bounds) and
  // sorted best-first. Approximate by design — what helpers pre-solve only
  // affects how much of their work is useful, never the result.
  const size_t frontier_width = static_cast<size_t>(num_threads) * 4;
  std::vector<OpenNodePtr> frontier_scratch;
  auto publish_frontier = [&] {
    // Helpers spawn lazily on the first non-empty frontier: a solve that
    // ends at the root (the common SketchRefine sub-ILP case) never pays
    // for thread creation at all.
    if (helper_pool == nullptr) {
      if (open.empty()) return;
      helper_pool = std::make_unique<ThreadPool>(num_threads - 1);
      helper_group = std::make_unique<TaskGroup>(helper_pool.get());
      for (int t = 0; t < num_threads - 1; ++t) {
        helper_group->Spawn([&spec] { SpeculationLoop(&spec); });
      }
    }
    frontier_scratch.assign(
        open.begin(),
        open.begin() +
            static_cast<ptrdiff_t>(std::min(open.size(), frontier_width * 2)));
    std::sort(frontier_scratch.begin(), frontier_scratch.end(),
              [&](const OpenNodePtr& a, const OpenNodePtr& b) {
                return node_order(b, a);  // best bound first
              });
    if (frontier_scratch.size() > frontier_width) {
      frontier_scratch.resize(frontier_width);
    }
    {
      MutexLock lock(&spec.mu);
      spec.frontier = frontier_scratch;
    }
    spec.work_cv.NotifyAll();
  };

  {
    auto root = std::make_shared<OpenNode>();
    root->node.bounds = std::move(root_bounds);
    root->node.acts = std::move(root_acts);
    root->node.bound = maximize ? kInfinity : -kInfinity;
    if (warm != nullptr) root->node.basis = warm->root_basis;
    push_open(std::move(root));
  }

  bool have_incumbent = false;
  std::vector<double> incumbent;
  double incumbent_obj = 0.0;
  // Mirror every incumbent improvement into the helpers' prune bar.
  auto publish_incumbent = [&] {
    spec.incumbent_obj.store(incumbent_obj, std::memory_order_relaxed);
    spec.have_incumbent.store(true, std::memory_order_relaxed);
  };
  bool root_unbounded = false;
  bool root_basis_captured = false;
  // Optimistic bounds of subtrees abandoned because their LP would not
  // finish within the (repeatedly doubled) iteration limit. These must
  // survive into best_bound / status reporting: an abandoned subtree may
  // hold the true optimum.
  bool abandoned_any = false;
  double abandoned_bound = maximize ? -kInfinity : kInfinity;
  // Doubling the LP budget this many times (~4000x) before giving up on a
  // node keeps pathological LPs from stalling the whole solve forever.
  constexpr int kMaxLpLimitBoost = 12;

  while (!open.empty()) {
    if (options.cancel.cancel_requested()) {
      // Cooperative cancellation: identical to a limit stop (open stays
      // non-empty, so the status honestly reports unexplored work), plus
      // the `cancelled` flag for callers that need to tell the two apart.
      result.cancelled = true;
      break;
    }
    if (result.nodes >= options.max_nodes ||
        timer.ElapsedSeconds() > options.time_limit_s) {
      break;  // open is non-empty here, so work_remaining stays true
    }
    OpenNodePtr cur = pop_open();
    Node& node = cur->node;

    // Take the node off the speculation market. Whatever its slot says
    // now is final: kIdle means this thread solves it (nobody else will
    // start — dead nodes are never claimed), kClaimed/kDone means a helper
    // got there first and the result is (or will be) in the slot.
    OpenNode::Spec slot = OpenNode::Spec::kIdle;
    if (parallel) {
      MutexLock lock(&spec.mu);
      cur->dead = true;
      slot = cur->spec;
    }

    // Bound-based pruning against the incumbent. A helper may be solving
    // this node right now; the shared_ptr keeps it alive until that solve
    // finishes, and nobody reads the wasted result.
    if (have_incumbent && !better(node.bound, incumbent_obj)) continue;

    ++result.nodes;
    // Refresh the helpers' frontier before touching this node's LP: while
    // this thread waits for (or computes) the current relaxation, helpers
    // pre-solve the nodes most likely to be popped next.
    if (parallel) publish_frontier();
    LpSolution lp;
    if (slot != OpenNode::Spec::kIdle) {
      // Committed speculation: identical to solving here (the LP solve is a
      // pure function of inputs the node has owned since push), so every
      // counter below stays bit-identical to the serial solver's.
      MutexLock lock(&spec.mu);
      while (cur->spec != OpenNode::Spec::kDone) spec.done_cv.Wait(&spec.mu);
      PB_RETURN_IF_ERROR(cur->lp_status);
      lp = std::move(cur->lp);
    } else {
      SimplexOptions lp_opts = base_lp;
      if (node.lp_limit_boost > 0) {
        lp_opts.max_iterations = EffectiveIterationLimit(model, base_lp)
                                 << node.lp_limit_boost;
      }
      const LpBasis* start =
          warm_enabled && !node.basis.empty() ? &node.basis : nullptr;
      PB_ASSIGN_OR_RETURN(lp, internal::SolveLpPrevalidated(
                                  model, lp_opts, &node.bounds, start));
    }
    result.lp_iterations += lp.iterations;
    result.lp_dual_iterations += lp.dual_iterations;
    result.lp_refactorizations += lp.refactorizations;
    result.lp_basis_updates += lp.basis_updates;

    if (lp.status == LpStatus::kInfeasible) continue;
    if (lp.status == LpStatus::kUnbounded) {
      // An unbounded relaxation with no incumbent yet (the root included)
      // means the MILP may be unbounded; surface it conservatively.
      if (!have_incumbent) {
        root_unbounded = true;
        break;
      }
      continue;
    }
    if (lp.status == LpStatus::kIterationLimit) {
      // The node's subtree must not be lost: re-queue it with a doubled
      // LP budget, resuming from the partial basis. Only after the boost
      // cap is the subtree abandoned — and then its optimistic bound
      // still reaches the reported best_bound below.
      if (node.lp_limit_boost < kMaxLpLimitBoost) {
        auto retry = std::make_shared<OpenNode>();
        retry->node = std::move(node);
        ++retry->node.lp_limit_boost;
        if (warm_enabled) retry->node.basis = std::move(lp.basis);
        push_open(std::move(retry));
      } else {
        abandoned_any = true;
        abandoned_bound = maximize ? std::max(abandoned_bound, node.bound)
                                   : std::min(abandoned_bound, node.bound);
      }
      continue;
    }

    double node_bound = lp.objective;
    if (!root_basis_captured && node.branch_var < 0 && warm != nullptr) {
      // First optimal solve of the root (re-queues included): remember its
      // basis for the next structurally identical model.
      warm->root_basis = lp.basis;
      root_basis_captured = true;
    }

    // Pseudocost observation: objective degradation from the parent's LP
    // bound, normalized by the branching distance. Commits happen in the
    // serial pop order, so the history every later branch decision sees is
    // identical for any thread count.
    if (warm_enabled && node.branch_var >= 0 && std::isfinite(node.bound)) {
      double degradation = maximize ? node.bound - node_bound
                                    : node_bound - node.bound;
      degradation = std::max(degradation, 0.0);
      double denom =
          node.branch_up ? 1.0 - node.branch_frac : node.branch_frac;
      if (denom > 1e-9) {
        PseudocostHistory::Entry& e = pc.entries[node.branch_var];
        if (node.branch_up) {
          e.up_sum += degradation / denom;
          ++e.up_n;
          pc.up_sum_all += degradation / denom;
          ++pc.up_n_all;
        } else {
          e.down_sum += degradation / denom;
          ++e.down_n;
          pc.down_sum_all += degradation / denom;
          ++pc.down_n_all;
        }
      }
    }

    if (have_incumbent && !better(node_bound, incumbent_obj)) continue;

    int frac_var = MostFractionalVariable(model, lp.x, options.int_tol);
    if (frac_var < 0) {
      // Integer feasible: snap and accept as incumbent.
      std::vector<double> snapped = lp.x;
      for (int j = 0; j < n; ++j) {
        if (model.variable(j).is_integer) snapped[j] = std::round(snapped[j]);
      }
      double obj = model.ObjectiveValue(snapped);
      if (!have_incumbent || better(obj, incumbent_obj)) {
        have_incumbent = true;
        incumbent = std::move(snapped);
        incumbent_obj = obj;
        publish_incumbent();
      }
      continue;
    }

    // Primal heuristics: cheap rounding at every node; one LP dive from the
    // root when rounding produced nothing (package models have equality
    // rows that defeat rounding but dive well).
    if (options.rounding_heuristic) {
      std::vector<double> rounded;
      if (TryRound(model, node.bounds, lp.x, options.int_tol, &rounded)) {
        double obj = model.ObjectiveValue(rounded);
        if (!have_incumbent || better(obj, incumbent_obj)) {
          have_incumbent = true;
          incumbent = std::move(rounded);
          incumbent_obj = obj;
          publish_incumbent();
        }
      }
      // Root identified by branch_var (result.nodes would miss a root that
      // was re-queued after an LP iteration limit).
      if (!have_incumbent && node.branch_var < 0) {
        std::vector<double> dived;
        if (TryDive(model, node.bounds, base_lp, options.int_tol,
                    warm_enabled ? &lp.basis : nullptr, options.cancel,
                    &result, &dived)) {
          have_incumbent = true;
          incumbent_obj = model.ObjectiveValue(dived);
          incumbent = std::move(dived);
          publish_incumbent();
        }
      }
    }

    // Branch: floor side and ceil side, both warm-started from this node's
    // optimal basis (they differ from it by one variable bound). Node
    // presolve then propagates that one bound through the row activity
    // ranges: children whose rows become unsatisfiable are discarded with
    // zero LP work, and implied integer fixings ride into the child's
    // bound set, which the dual re-solve picks up directly.
    int branch_var = warm_enabled
                         ? SelectBranchVariable(model, lp.x, options.int_tol,
                                                pc, frac_var)
                         : frac_var;
    if (branch_var < 0) branch_var = frac_var;
    double xv = lp.x[branch_var];
    double frac = xv - std::floor(xv);
    const double parent_lb = node.bounds[branch_var].first;
    const double parent_ub = node.bounds[branch_var].second;
    node.basis.clear();  // superseded by lp.basis; don't copy it into `down`
    if (presolve_enabled && !presolve_ws) presolve_ws.emplace(model);
    auto down = std::make_shared<OpenNode>();
    down->node = node;
    down->node.bound = node_bound;
    if (warm_enabled) down->node.basis = lp.basis;
    down->node.branch_var = branch_var;
    down->node.branch_frac = frac;
    down->node.branch_up = false;
    down->node.lp_limit_boost = 0;
    down->node.bounds[branch_var].second =
        std::min(down->node.bounds[branch_var].second, std::floor(xv));
    bool push_down = down->node.bounds[branch_var].first <=
                     down->node.bounds[branch_var].second;
    if (push_down && presolve_enabled &&
        !PropagateBranchedBound(model, branch_var, parent_lb, parent_ub,
                                options.int_tol, &*presolve_ws,
                                &down->node.bounds,
                                &down->node.acts,
                                &result.presolve_fixed_bounds)) {
      ++result.presolve_infeasible_children;
      push_down = false;
    }
    if (push_down) push_open(std::move(down));
    auto up = std::make_shared<OpenNode>();
    up->node = std::move(node);
    up->node.bound = node_bound;
    if (warm_enabled) up->node.basis = std::move(lp.basis);
    up->node.branch_var = branch_var;
    up->node.branch_frac = frac;
    up->node.branch_up = true;
    up->node.lp_limit_boost = 0;
    up->node.bounds[branch_var].first =
        std::max(up->node.bounds[branch_var].first, std::ceil(xv));
    bool push_up =
        up->node.bounds[branch_var].first <= up->node.bounds[branch_var].second;
    if (push_up && presolve_enabled &&
        !PropagateBranchedBound(model, branch_var, parent_lb, parent_ub,
                                options.int_tol, &*presolve_ws,
                                &up->node.bounds,
                                &up->node.acts,
                                &result.presolve_fixed_bounds)) {
      ++result.presolve_infeasible_children;
      push_up = false;
    }
    if (push_up) push_open(std::move(up));
  }

  // Drain helpers before reading their shared tallies (and before any of
  // the locals they reference can die). Idempotent with the guard.
  stop_helpers();

  // Best remaining optimistic bound over ALL unexplored work: open nodes
  // (the heap is bound-ordered, so the front is the best) plus any
  // abandoned subtrees.
  bool work_remaining = !open.empty() || abandoned_any;
  double remaining_bound = maximize ? -kInfinity : kInfinity;
  if (!open.empty()) remaining_bound = open.front()->node.bound;
  if (abandoned_any) {
    remaining_bound = maximize ? std::max(remaining_bound, abandoned_bound)
                               : std::min(remaining_bound, abandoned_bound);
  }

  result.solve_seconds = timer.ElapsedSeconds();
  if (root_unbounded && !have_incumbent) {
    result.status = MilpStatus::kUnbounded;
    return result;
  }
  if (have_incumbent) {
    result.x = std::move(incumbent);
    result.objective = incumbent_obj;
    // Optimality is proven when no unexplored work remains, or when none of
    // it can beat the incumbent (a bound-based proof is valid even when a
    // node/time limit stopped the search).
    bool proven = !work_remaining || !better(remaining_bound, incumbent_obj);
    result.best_bound = proven ? incumbent_obj : remaining_bound;
    result.status = proven ? MilpStatus::kOptimal : MilpStatus::kFeasible;
    return result;
  }
  result.status = work_remaining ? MilpStatus::kNoSolution
                                 : MilpStatus::kInfeasible;
  result.best_bound = remaining_bound;
  return result;
}

Result<MilpResult> SolveMilpOrFail(const LpModel& model,
                                   const MilpOptions& options) {
  PB_ASSIGN_OR_RETURN(MilpResult r, SolveMilp(model, options));
  switch (r.status) {
    case MilpStatus::kOptimal:
    case MilpStatus::kFeasible:
      return r;
    case MilpStatus::kInfeasible:
      return Status::Infeasible("no integer-feasible solution exists");
    case MilpStatus::kUnbounded:
      return Status::Unbounded("objective is unbounded");
    case MilpStatus::kNoSolution:
      return Status::ResourceExhausted(
          "solver limits reached before finding a solution");
  }
  return Status::Internal("unknown MILP status");
}

}  // namespace pb::solver
