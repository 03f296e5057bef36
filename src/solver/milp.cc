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

/// True when objective `a` beats `b` by more than kGapAbs under the sense.
bool Improves(bool maximize, double a, double b) {
  return maximize ? a > b + kGapAbs : a < b - kGapAbs;
}

/// What a finished tree search leaves for end-of-solve classification.
struct SearchOutcome {
  bool unbounded = false;  ///< an unbounded relaxation before any incumbent
  bool have_incumbent = false;
  std::vector<double> x;   ///< the incumbent (empty under a bare cutoff)
  double objective = 0.0;
  bool work_remaining = false;  ///< open or abandoned subtrees remain
  double remaining_bound = 0.0; ///< their best optimistic bound
};

/// One best-first branch-and-bound search over one model: the open heap,
/// the incumbent, the speculation helpers and node presolve's workspace.
/// SolveMilp runs the root in one over the full model; when root
/// reduced-cost fixing removes columns, the rest of the tree runs in a
/// second one over the compacted model (see FixAtRoot). Both commit into
/// the same MilpResult, so the node budget, the time limit and every tally
/// span the whole solve.
class TreeSearch {
 public:
  /// `pc` is indexed by `model`'s columns. `warm`, when non-null, receives
  /// the root LP's optimal basis.
  TreeSearch(const LpModel& model, const MilpOptions& options,
             PseudocostHistory* pc, MilpWarmStart* warm,
             const Stopwatch& timer, MilpResult* result)
      : model_(model),
        options_(options),
        pc_(*pc),
        warm_(warm),
        timer_(timer),
        result_(*result),
        maximize_(model.sense() == ObjectiveSense::kMaximize),
        warm_enabled_(options.warm_start_lps),
        presolve_enabled_(options.node_presolve && model.num_constraints() > 0),
        num_threads_(ResolveThreads(options.compute.threads)),
        // A pure LP (no integer variables) is a single solve — nothing to
        // speculate on.
        parallel_(num_threads_ > 1 && model.has_integer_variables()),
        order_{maximize_},
        frontier_width_(static_cast<size_t>(num_threads_) * 4) {
    if (parallel_) {
      // Materialize the model's lazy structural caches before any helper
      // can read the model concurrently: every node LP reads csc(), and a
      // cold cache fill racing a reader is a data race.
      model.csc();
      if (presolve_enabled_) model.variable_rows();
      spec_.model = &model;
      spec_.base_lp = options.lp;
      spec_.base_lp_limit = EffectiveIterationLimit(model, options.lp);
      spec_.warm_enabled = warm_enabled_;
      spec_.maximize = maximize_;
    }
  }
  // Helpers reference this object: drain them before any member dies
  // (also on the early returns of LP solve errors).
  ~TreeSearch() { StopHelpers(); }
  TreeSearch(const TreeSearch&) = delete;
  TreeSearch& operator=(const TreeSearch&) = delete;

  void Push(Node node) {
    auto entry = std::make_shared<OpenNode>();
    entry->node = std::move(node);
    open_.push_back(std::move(entry));
    std::push_heap(open_.begin(), open_.end(), order_);
  }

  /// Prunes every node that cannot beat `objective`, without a point for
  /// it: the compacted tree's cutoff is the full model's incumbent.
  void SetCutoff(double objective) {
    have_incumbent_ = true;
    incumbent_obj_ = objective;
    PublishIncumbent();
  }

  /// Runs the search until the heap empties or a budget stops it. With
  /// `pause_at_root` it instead returns once the root's LP is optimal,
  /// fractional and through the primal heuristics — just before it would
  /// branch. paused() then holds the root, its LP and its branching
  /// candidate; ResumeRoot() branches it here, or the caller hands it to a
  /// compacted search.
  Status Run(bool pause_at_root);

  /// Branches `node`, whose LP solution `lp` is optimal with the integer
  /// column `frac_var` fractional, and pushes the surviving children.
  void Branch(Node node, LpSolution lp, int frac_var);

  bool paused() const { return paused_; }
  const Node& paused_node() const { return paused_node_; }
  const LpSolution& paused_lp() const { return paused_lp_; }
  void ResumeRoot() {
    paused_ = false;
    Branch(std::move(paused_node_), std::move(paused_lp_), paused_frac_var_);
  }

  bool have_incumbent() const { return have_incumbent_; }
  double incumbent_obj() const { return incumbent_obj_; }

  /// Moves the search's end state out (call once it has stopped).
  SearchOutcome TakeOutcome() {
    SearchOutcome out;
    out.unbounded = root_unbounded_;
    out.have_incumbent = have_incumbent_;
    out.x = std::move(incumbent_);
    out.objective = incumbent_obj_;
    // Best remaining optimistic bound over ALL unexplored work: open nodes
    // (the heap is bound-ordered, so the front is the best) plus any
    // abandoned subtrees.
    out.work_remaining = !open_.empty() || abandoned_any_;
    out.remaining_bound = maximize_ ? -kInfinity : kInfinity;
    if (!open_.empty()) out.remaining_bound = open_.front()->node.bound;
    if (abandoned_any_) {
      out.remaining_bound =
          maximize_ ? std::max(out.remaining_bound, abandoned_bound_)
                    : std::min(out.remaining_bound, abandoned_bound_);
    }
    return out;
  }

 private:
  bool Better(double a, double b) const { return Improves(maximize_, a, b); }

  OpenNodePtr PopOpen() {
    std::pop_heap(open_.begin(), open_.end(), order_);
    OpenNodePtr top = std::move(open_.back());
    open_.pop_back();
    return top;
  }

  /// Publishes the speculation frontier: the best few open nodes, taken
  /// from the heap array's prefix (the shallow levels hold the best bounds)
  /// and sorted best-first. Approximate by design — what helpers pre-solve
  /// only affects how much of their work is useful, never the result.
  void PublishFrontier() {
    // Helpers spawn lazily on the first non-empty frontier: a solve that
    // ends at the root (the common SketchRefine sub-ILP case) never pays
    // for thread creation at all.
    if (helper_pool_ == nullptr) {
      if (open_.empty()) return;
      helper_pool_ = std::make_unique<ThreadPool>(num_threads_ - 1);
      helper_group_ = std::make_unique<TaskGroup>(helper_pool_.get());
      for (int t = 0; t < num_threads_ - 1; ++t) {
        helper_group_->Spawn([this] { SpeculationLoop(&spec_); });
      }
    }
    frontier_scratch_.assign(
        open_.begin(),
        open_.begin() + static_cast<ptrdiff_t>(
                            std::min(open_.size(), frontier_width_ * 2)));
    std::sort(frontier_scratch_.begin(), frontier_scratch_.end(),
              [&](const OpenNodePtr& a, const OpenNodePtr& b) {
                return order_(b, a);  // best bound first
              });
    if (frontier_scratch_.size() > frontier_width_) {
      frontier_scratch_.resize(frontier_width_);
    }
    {
      MutexLock lock(&spec_.mu);
      spec_.frontier = frontier_scratch_;
    }
    spec_.work_cv.NotifyAll();
  }

  /// Drains the helpers and folds their tally into the result. Idempotent.
  void StopHelpers() {
    if (helper_group_ == nullptr) return;
    {
      MutexLock lock(&spec_.mu);
      spec_.stop = true;
    }
    spec_.work_cv.NotifyAll();
    helper_group_->Wait();
    helper_group_.reset();
    result_.speculative_lps +=
        spec_.speculative_lps.load(std::memory_order_relaxed);
  }

  /// Mirrors an incumbent improvement into the helpers' prune bar.
  void PublishIncumbent() {
    spec_.incumbent_obj.store(incumbent_obj_, std::memory_order_relaxed);
    spec_.have_incumbent.store(true, std::memory_order_relaxed);
  }

  /// Takes `x` as the incumbent when it is the first or beats the current.
  void Accept(std::vector<double> x, double objective) {
    if (have_incumbent_ && !Better(objective, incumbent_obj_)) return;
    have_incumbent_ = true;
    incumbent_ = std::move(x);
    incumbent_obj_ = objective;
    PublishIncumbent();
  }

  const LpModel& model_;
  const MilpOptions& options_;
  PseudocostHistory& pc_;
  MilpWarmStart* const warm_;
  const Stopwatch& timer_;
  MilpResult& result_;
  const bool maximize_;
  const bool warm_enabled_;
  const bool presolve_enabled_;
  const int num_threads_;
  const bool parallel_;

  // ---- Speculative parallelism (see MilpOptions::compute). The open heap
  // and every commit stay on the thread that calls Run; helpers only
  // pre-solve LPs of published frontier nodes.
  SpecPool spec_;
  std::unique_ptr<ThreadPool> helper_pool_;
  std::unique_ptr<TaskGroup> helper_group_;

  // The open heap, managed with push_heap/pop_heap (== priority_queue's
  // internals) so the serial pop order is preserved exactly while nodes
  // get the stable addresses speculation needs.
  NodeOrder order_;
  std::vector<OpenNodePtr> open_;
  const size_t frontier_width_;
  std::vector<OpenNodePtr> frontier_scratch_;

  // Built on the first branch: a solve that ends at the root (most
  // SketchRefine sub-ILPs) never pays for it.
  std::optional<PresolveWorkspace> presolve_ws_;

  bool have_incumbent_ = false;
  std::vector<double> incumbent_;
  double incumbent_obj_ = 0.0;
  bool root_unbounded_ = false;
  bool root_basis_captured_ = false;
  // Optimistic bounds of subtrees abandoned because their LP would not
  // finish within the (repeatedly doubled) iteration limit. These must
  // survive into best_bound / status reporting: an abandoned subtree may
  // hold the true optimum.
  bool abandoned_any_ = false;
  double abandoned_bound_ = maximize_ ? -kInfinity : kInfinity;

  bool paused_ = false;
  Node paused_node_;
  LpSolution paused_lp_;
  int paused_frac_var_ = -1;
};

Status TreeSearch::Run(bool pause_at_root) {
  // Doubling the LP budget this many times (~4000x) before giving up on a
  // node keeps pathological LPs from stalling the whole solve forever.
  constexpr int kMaxLpLimitBoost = 12;

  while (!open_.empty()) {
    if (options_.cancel.cancel_requested()) {
      // Cooperative cancellation: identical to a limit stop (open stays
      // non-empty, so the status honestly reports unexplored work), plus
      // the `cancelled` flag for callers that need to tell the two apart.
      result_.cancelled = true;
      break;
    }
    if (result_.nodes >= options_.max_nodes ||
        timer_.ElapsedSeconds() > options_.time_limit_s) {
      break;  // open is non-empty here, so work_remaining stays true
    }
    OpenNodePtr cur = PopOpen();
    Node& node = cur->node;

    // Take the node off the speculation market. Whatever its slot says
    // now is final: kIdle means this thread solves it (nobody else will
    // start — dead nodes are never claimed), kClaimed/kDone means a helper
    // got there first and the result is (or will be) in the slot.
    OpenNode::Spec slot = OpenNode::Spec::kIdle;
    if (parallel_) {
      MutexLock lock(&spec_.mu);
      cur->dead = true;
      slot = cur->spec;
    }

    // Bound-based pruning against the incumbent. A helper may be solving
    // this node right now; the shared_ptr keeps it alive until that solve
    // finishes, and nobody reads the wasted result.
    if (have_incumbent_ && !Better(node.bound, incumbent_obj_)) continue;

    ++result_.nodes;
    // Refresh the helpers' frontier before touching this node's LP: while
    // this thread waits for (or computes) the current relaxation, helpers
    // pre-solve the nodes most likely to be popped next.
    if (parallel_) PublishFrontier();
    LpSolution lp;
    if (slot != OpenNode::Spec::kIdle) {
      // Committed speculation: identical to solving here (the LP solve is a
      // pure function of inputs the node has owned since push), so every
      // counter below stays bit-identical to the serial solver's.
      MutexLock lock(&spec_.mu);
      while (cur->spec != OpenNode::Spec::kDone) spec_.done_cv.Wait(&spec_.mu);
      PB_RETURN_IF_ERROR(cur->lp_status);
      lp = std::move(cur->lp);
    } else {
      SimplexOptions lp_opts = options_.lp;
      if (node.lp_limit_boost > 0) {
        lp_opts.max_iterations = EffectiveIterationLimit(model_, options_.lp)
                                 << node.lp_limit_boost;
      }
      const LpBasis* start =
          warm_enabled_ && !node.basis.empty() ? &node.basis : nullptr;
      PB_ASSIGN_OR_RETURN(lp, internal::SolveLpPrevalidated(
                                  model_, lp_opts, &node.bounds, start));
    }
    result_.lp_iterations += lp.iterations;
    result_.lp_dual_iterations += lp.dual_iterations;
    result_.lp_refactorizations += lp.refactorizations;
    result_.lp_basis_updates += lp.basis_updates;

    if (lp.status == LpStatus::kInfeasible) continue;
    if (lp.status == LpStatus::kUnbounded) {
      // An unbounded relaxation with no incumbent yet (the root included)
      // means the MILP may be unbounded; surface it conservatively.
      if (!have_incumbent_) {
        root_unbounded_ = true;
        break;
      }
      continue;
    }
    if (lp.status == LpStatus::kIterationLimit) {
      // The node's subtree must not be lost: re-queue it with a doubled
      // LP budget, resuming from the partial basis. Only after the boost
      // cap is the subtree abandoned — and then its optimistic bound
      // still reaches the reported best_bound.
      if (node.lp_limit_boost < kMaxLpLimitBoost) {
        Node retry = std::move(node);
        ++retry.lp_limit_boost;
        if (warm_enabled_) retry.basis = std::move(lp.basis);
        Push(std::move(retry));
      } else {
        abandoned_any_ = true;
        abandoned_bound_ = maximize_ ? std::max(abandoned_bound_, node.bound)
                                     : std::min(abandoned_bound_, node.bound);
      }
      continue;
    }

    double node_bound = lp.objective;
    if (!root_basis_captured_ && node.branch_var < 0 && warm_ != nullptr) {
      // First optimal solve of the root (re-queues included): remember its
      // basis for the next structurally identical model.
      warm_->root_basis = lp.basis;
      root_basis_captured_ = true;
    }

    // Pseudocost observation: objective degradation from the parent's LP
    // bound, normalized by the branching distance. Commits happen in the
    // serial pop order, so the history every later branch decision sees is
    // identical for any thread count.
    if (warm_enabled_ && node.branch_var >= 0 && std::isfinite(node.bound)) {
      double degradation = maximize_ ? node.bound - node_bound
                                     : node_bound - node.bound;
      degradation = std::max(degradation, 0.0);
      double denom =
          node.branch_up ? 1.0 - node.branch_frac : node.branch_frac;
      if (denom > 1e-9) {
        PseudocostHistory::Entry& e = pc_.entries[node.branch_var];
        if (node.branch_up) {
          e.up_sum += degradation / denom;
          ++e.up_n;
          pc_.up_sum_all += degradation / denom;
          ++pc_.up_n_all;
        } else {
          e.down_sum += degradation / denom;
          ++e.down_n;
          pc_.down_sum_all += degradation / denom;
          ++pc_.down_n_all;
        }
      }
    }

    if (have_incumbent_ && !Better(node_bound, incumbent_obj_)) continue;

    int frac_var = MostFractionalVariable(model_, lp.x, options_.int_tol);
    if (frac_var < 0) {
      // Integer feasible: snap and accept as incumbent.
      std::vector<double> snapped = lp.x;
      for (int j = 0; j < model_.num_variables(); ++j) {
        if (model_.variable(j).is_integer) snapped[j] = std::round(snapped[j]);
      }
      double obj = model_.ObjectiveValue(snapped);
      Accept(std::move(snapped), obj);
      continue;
    }

    // Primal heuristics: cheap rounding at every node; one LP dive from the
    // root when rounding produced nothing (package models have equality
    // rows that defeat rounding but dive well).
    if (options_.rounding_heuristic) {
      std::vector<double> rounded;
      if (TryRound(model_, node.bounds, lp.x, options_.int_tol, &rounded)) {
        double obj = model_.ObjectiveValue(rounded);
        Accept(std::move(rounded), obj);
      }
      // Root identified by branch_var (result.nodes would miss a root that
      // was re-queued after an LP iteration limit).
      if (!have_incumbent_ && node.branch_var < 0) {
        std::vector<double> dived;
        if (TryDive(model_, node.bounds, options_.lp, options_.int_tol,
                    warm_enabled_ ? &lp.basis : nullptr, options_.cancel,
                    &result_, &dived)) {
          double obj = model_.ObjectiveValue(dived);
          Accept(std::move(dived), obj);
        }
      }
      // A heuristic point that meets this node's bound closes the node.
      if (have_incumbent_ && !Better(node_bound, incumbent_obj_)) continue;
    }

    if (pause_at_root && node.branch_var < 0) {
      paused_ = true;
      paused_node_ = std::move(node);
      paused_lp_ = std::move(lp);
      paused_frac_var_ = frac_var;
      return Status::OK();
    }
    Branch(std::move(node), std::move(lp), frac_var);
  }

  // Drain helpers before their shared tally is read.
  StopHelpers();
  return Status::OK();
}

void TreeSearch::Branch(Node node, LpSolution lp, int frac_var) {
  // Floor side and ceil side, both warm-started from this node's optimal
  // basis (they differ from it by one variable bound). Node presolve then
  // propagates that one bound through the row activity ranges: children
  // whose rows become unsatisfiable are discarded with zero LP work, and
  // implied integer fixings ride into the child's bound set, which the
  // dual re-solve picks up directly.
  int branch_var = warm_enabled_
                       ? SelectBranchVariable(model_, lp.x, options_.int_tol,
                                              pc_, frac_var)
                       : frac_var;
  if (branch_var < 0) branch_var = frac_var;
  const double xv = lp.x[branch_var];
  const double frac = xv - std::floor(xv);
  const double parent_lb = node.bounds[branch_var].first;
  const double parent_ub = node.bounds[branch_var].second;
  node.basis.clear();  // superseded by lp.basis; don't copy it into `down`
  node.bound = lp.objective;
  node.branch_var = branch_var;
  node.branch_frac = frac;
  node.lp_limit_boost = 0;
  if (presolve_enabled_ && !presolve_ws_) presolve_ws_.emplace(model_);
  // Applies node presolve to a child whose branched bound is already set;
  // false when the child is empty or proven infeasible.
  auto keep = [&](Node* child) {
    const auto [lb, ub] = child->bounds[branch_var];
    if (lb > ub) return false;
    if (presolve_enabled_ &&
        !PropagateBranchedBound(model_, branch_var, parent_lb, parent_ub,
                                options_.int_tol, &*presolve_ws_,
                                &child->bounds, &child->acts,
                                &result_.presolve_fixed_bounds)) {
      ++result_.presolve_infeasible_children;
      return false;
    }
    return true;
  };
  Node down = node;
  if (warm_enabled_) down.basis = lp.basis;
  down.branch_up = false;
  down.bounds[branch_var].second =
      std::min(down.bounds[branch_var].second, std::floor(xv));
  if (keep(&down)) Push(std::move(down));
  Node up = std::move(node);
  if (warm_enabled_) up.basis = std::move(lp.basis);
  up.branch_up = true;
  up.bounds[branch_var].first =
      std::max(up.bounds[branch_var].first, std::ceil(xv));
  if (keep(&up)) Push(std::move(up));
}

/// Root reduced-cost fixing. At the root LP's optimum z (in the simplex's
/// minimization sense) every point x of the relaxation satisfies
/// c'x = z + sum_j d_j (x_j - x*_j) over the nonbasic columns, and each
/// term is >= 0. An integer column resting at a bound whose |d_j| exceeds
/// the gap between z and the incumbent therefore sits at that bound in
/// every solution that beats the incumbent: moving it one unit gives an LP
/// bound no better than the incumbent + kGapAbs. Such columns are fixed for
/// the whole tree, which then runs over the survivors only. A relative
/// margin on top of the gap keeps any column that could tie.
struct RootFixing {
  /// The surviving columns, in their original order, with every fixed
  /// column's row contribution folded into the row bounds. All rows stay,
  /// so slack indices keep their offsets from the structural count.
  LpModel model;
  std::vector<int> columns;  ///< compacted column k is columns[k]
  std::vector<double> fixed_x;   ///< full length: fixed columns' values
  double objective_offset = 0.0; ///< fixed columns' objective contribution
  int64_t num_fixed = 0;
  /// The root node and its LP optimum, restated over `model`.
  Node root;
  LpSolution root_lp;

  /// A point of `model` restated over the full model's columns.
  std::vector<double> Expand(const std::vector<double>& x) const {
    std::vector<double> full = fixed_x;
    for (size_t k = 0; k < columns.size(); ++k) full[columns[k]] = x[k];
    return full;
  }
};

/// Fixes the root's columns by reduced cost (see RootFixing); nullopt when
/// none qualifies. `root` and `lp` are the root node and its optimal,
/// fractional LP; `incumbent_obj` the incumbent the heuristics found.
std::optional<RootFixing> FixAtRoot(const LpModel& model, const Node& root,
                                    const LpSolution& lp,
                                    double incumbent_obj) {
  // Relative safety margin for rounding in the reduced costs and in the
  // row-bound shifts of the compacted model.
  constexpr double kFixRel = 1e-9;
  const int n = model.num_variables();
  const int m = model.num_constraints();
  const double sign = model.sense() == ObjectiveSense::kMaximize ? -1.0 : 1.0;
  const double gap = std::max(0.0, sign * (incumbent_obj - lp.objective));
  const double threshold =
      gap + kGapAbs +
      kFixRel * (std::abs(incumbent_obj) + std::abs(lp.objective));

  RootFixing f;
  f.fixed_x.assign(n, 0.0);
  std::vector<int> new_index(n, -1);
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    const auto [lb, ub] = root.bounds[j];
    const double d = lp.reduced_costs[j];
    const VarStat stat = lp.basis.stat[j];
    double value = 0.0;
    bool fix = false;
    if (v.is_integer && lb < ub) {
      if (stat == VarStat::kAtLower && std::isfinite(lb) && d > threshold) {
        fix = true;
        value = lb;
      } else if (stat == VarStat::kAtUpper && std::isfinite(ub) &&
                 -d > threshold) {
        fix = true;
        value = ub;
      }
    }
    if (fix) {
      f.fixed_x[j] = value;
      f.objective_offset += v.objective * value;
      ++f.num_fixed;
    } else {
      new_index[j] = static_cast<int>(f.columns.size());
      f.columns.push_back(j);
    }
  }
  if (f.num_fixed == 0) return std::nullopt;

  const int kept = static_cast<int>(f.columns.size());
  for (int j : f.columns) {
    const Variable& v = model.variable(j);
    f.model.AddVariable(v.name, root.bounds[j].first, root.bounds[j].second,
                        v.objective, v.is_integer);
  }
  for (int i = 0; i < m; ++i) {
    const Constraint& c = model.constraint(i);
    std::vector<LinearTerm> terms;
    double shift = 0.0;
    for (const LinearTerm& t : c.terms) {
      if (new_index[t.var] >= 0) {
        terms.push_back({new_index[t.var], t.coeff});
      } else {
        shift += t.coeff * f.fixed_x[t.var];
      }
    }
    f.model.AddConstraint(c.name, std::move(terms), c.lo - shift,
                          c.hi - shift);
  }
  f.model.SetSense(model.sense());

  f.root.bounds.reserve(kept);
  for (int j : f.columns) f.root.bounds.push_back(root.bounds[j]);
  if (!root.acts.empty()) f.root.acts = f.model.row_activity_bounds();

  // The root optimum restated: fixed columns leave at their bounds, so
  // the basis keeps exactly its m basic variables (basic columns are never
  // fixed) and stays optimal for the compacted model.
  f.root_lp.status = LpStatus::kOptimal;
  f.root_lp.objective = lp.objective - f.objective_offset;
  f.root_lp.x.reserve(kept);
  for (int j : f.columns) f.root_lp.x.push_back(lp.x[j]);
  LpBasis& basis = f.root_lp.basis;
  basis.basic.resize(m);
  for (int i = 0; i < m; ++i) {
    const int b = lp.basis.basic[i];
    basis.basic[i] = b < n ? new_index[b] : kept + (b - n);
    PB_DCHECK(basis.basic[i] >= 0) << "a basic column was fixed";
  }
  basis.stat.reserve(kept + m);
  for (int j : f.columns) basis.stat.push_back(lp.basis.stat[j]);
  basis.stat.insert(basis.stat.end(), lp.basis.stat.begin() + n,
                    lp.basis.stat.end());
  return f;
}

/// Pseudocost history restated over `columns` (the running aggregates are
/// global and carry over unchanged), and the reverse scatter.
PseudocostHistory GatherPseudocosts(const PseudocostHistory& pc,
                                    const std::vector<int>& columns) {
  PseudocostHistory sub = pc;
  sub.entries.clear();
  sub.entries.reserve(columns.size());
  for (int j : columns) sub.entries.push_back(pc.entries[j]);
  return sub;
}

void ScatterPseudocosts(const PseudocostHistory& sub,
                        const std::vector<int>& columns,
                        PseudocostHistory* pc) {
  for (size_t k = 0; k < columns.size(); ++k) {
    pc->entries[columns[k]] = sub.entries[k];
  }
  pc->down_sum_all = sub.down_sum_all;
  pc->up_sum_all = sub.up_sum_all;
  pc->down_n_all = sub.down_n_all;
  pc->up_n_all = sub.up_n_all;
}

}  // namespace

Result<MilpResult> SolveMilp(const LpModel& model, const MilpOptions& options) {
  // The model is const for the whole solve, so this one check covers every
  // node, dive and speculative LP below (internal::SolveLpPrevalidated).
  PB_RETURN_IF_ERROR(model.Validate());
  Stopwatch timer;
  const bool maximize = model.sense() == ObjectiveSense::kMaximize;
  MilpResult result;
  const int n = model.num_variables();

  // Cross-solve warm-start state: usable only while the model's structure
  // matches what the state was learned on; reset otherwise.
  // warm_start_lps=false is the faithful pre-warm-start ablation: cold LP
  // solves, most-fractional branching, and no cross-solve state at all.
  MilpWarmStart* warm = options.warm_start_lps ? options.warm : nullptr;
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

  Node root;
  root.bounds.resize(n);
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    double lo = v.lb, hi = v.ub;
    // Integer variables get their bounds tightened to integers up front.
    if (v.is_integer) {
      if (std::isfinite(lo)) lo = std::ceil(lo - options.int_tol);
      if (std::isfinite(hi)) hi = std::floor(hi + options.int_tol);
    }
    root.bounds[j] = {lo, hi};
  }
  // Root activity ranges for node presolve: the model-level cache when the
  // integer tightening above changed nothing (the common case — package
  // binaries already have integral bounds), a fresh per-row pass otherwise.
  if (options.node_presolve && model.num_constraints() > 0) {
    root.acts = model.row_activity_bounds();
    bool bounds_match_model = true;
    for (int j = 0; j < n && bounds_match_model; ++j) {
      const Variable& v = model.variable(j);
      bounds_match_model =
          root.bounds[j].first == v.lb && root.bounds[j].second == v.ub;
    }
    if (!bounds_match_model) {
      for (int i = 0; i < model.num_constraints(); ++i) {
        root.acts[i] = RowActivityUnder(
            model, i, [&](int j) -> const auto& { return root.bounds[j]; });
      }
    }
  }
  root.bound = maximize ? kInfinity : -kInfinity;
  if (warm != nullptr) root.basis = warm->root_basis;

  // The root runs over the full model. Once its LP and the dive have
  // produced an incumbent, reduced-cost fixing decides which columns the
  // rest of the tree still needs.
  TreeSearch full(model, options, &pc, warm, timer, &result);
  full.Push(std::move(root));
  PB_RETURN_IF_ERROR(full.Run(/*pause_at_root=*/true));
  std::optional<RootFixing> fixing;
  if (full.paused() && full.have_incumbent()) {
    fixing = FixAtRoot(model, full.paused_node(), full.paused_lp(),
                       full.incumbent_obj());
  }
  SearchOutcome out;
  if (!fixing) {
    if (full.paused()) {
      full.ResumeRoot();
      PB_RETURN_IF_ERROR(full.Run(/*pause_at_root=*/false));
    }
    out = full.TakeOutcome();
  } else {
    // The compacted tree starts from the root's two children, warm from
    // the root basis, and only looks for points that beat the incumbent;
    // its answer, bound and pseudocost observations map back here.
    result.reduced_cost_fixed = fixing->num_fixed;
    PseudocostHistory sub_pc = GatherPseudocosts(pc, fixing->columns);
    TreeSearch tree(fixing->model, options, &sub_pc, nullptr, timer, &result);
    tree.SetCutoff(full.incumbent_obj() - fixing->objective_offset);
    const int frac_var = MostFractionalVariable(
        fixing->model, fixing->root_lp.x, options.int_tol);
    tree.Branch(std::move(fixing->root), std::move(fixing->root_lp),
                frac_var);
    Status status = tree.Run(/*pause_at_root=*/false);
    ScatterPseudocosts(sub_pc, fixing->columns, &pc);
    PB_RETURN_IF_ERROR(status);
    out = full.TakeOutcome();
    SearchOutcome sub = tree.TakeOutcome();
    if (!sub.x.empty()) {
      out.x = fixing->Expand(sub.x);
      out.objective = model.ObjectiveValue(out.x);
    }
    out.work_remaining = sub.work_remaining;
    out.remaining_bound = sub.remaining_bound + fixing->objective_offset;
  }

  result.solve_seconds = timer.ElapsedSeconds();
  if (out.unbounded && !out.have_incumbent) {
    result.status = MilpStatus::kUnbounded;
    return result;
  }
  if (out.have_incumbent) {
    result.x = std::move(out.x);
    result.objective = out.objective;
    // Optimality is proven when no unexplored work remains, or when none of
    // it can beat the incumbent (a bound-based proof is valid even when a
    // node/time limit stopped the search).
    bool proven = !out.work_remaining ||
                  !Improves(maximize, out.remaining_bound, out.objective);
    result.best_bound = proven ? out.objective : out.remaining_bound;
    result.status = proven ? MilpStatus::kOptimal : MilpStatus::kFeasible;
    return result;
  }
  result.status = out.work_remaining ? MilpStatus::kNoSolution
                                     : MilpStatus::kInfeasible;
  result.best_bound = out.remaining_bound;
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
