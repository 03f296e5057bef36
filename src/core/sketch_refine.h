// SketchRefine: scalable approximate package evaluation.
//
// The demo paper's Challenges section (§5) calls for principled scaling of
// package evaluation beyond what one monolithic ILP can handle; the
// follow-up PaQL paper (Brucato et al., VLDB 2016) answers with
// SketchRefine, implemented here as the engine's scalability extension:
//
//   Offline  PARTITION the candidate tuples into groups of at most tau
//            tuples that are similar on the attributes the query
//            aggregates; pick one representative per group.
//   Sketch   Solve the package query over the representatives only, where
//            a representative may repeat up to its group's size — an ILP
//            with n/tau variables instead of n.
//   Refine   Replace each representative's multiplicity m_g with real
//            tuples from its group by solving a small ILP over the group's
//            members with all other groups pinned at their sketch
//            (representative) contributions. Those sub-ILPs depend only on
//            the sketch solution, so they run in parallel on a thread
//            pool and merge in deterministic group order. If the merged
//            package drifts out of feasibility (chosen members aggregate
//            differently than their representative), a sequential repair
//            pass rebuilds it greedily, propagating actual residuals group
//            by group; backtracking excludes a group whose sub-ILP is
//            infeasible and restarts from the sketch. Every pass is
//            deterministic, so results are identical for any thread count
//            as long as the solver's stopping rule is (i.e. no sub-ILP
//            hits MilpOptions::time_limit_s mid-search — prefer node
//            budgets when exact reproducibility matters).
//
// The refine/repair sub-ILP sequence re-solves structurally identical
// models per group (the repair pass shifts only constraint ranges), so each
// group's solver warm-start state — root LP basis plus pseudocost branching
// history — is cached from the parallel pass and re-seeded into that
// group's repair solve. Reuse is task-local and consumed in deterministic
// repair order, so thread-count invariance is preserved.
//
// The result is validated against the original query; approximation shows
// up only in the objective value, which the E6 bench compares to Direct.
//
// Incremental maintenance (HTAP): the partition is reusable state, not a
// per-call throwaway. A caller that keeps a SketchRefineState alive across
// calls (SketchRefineOptions::state) turns appends into maintenance work
// instead of a rebuild: new candidates are routed to their nearest group
// (in the state's frozen feature normalization), groups that grow past a
// size threshold split and undersized ones merge, and only "dirty" groups
// — those whose membership changed, or whose residual constraints moved —
// are re-solved, each from its saved per-group MilpWarmStart. A clean
// group whose residual repeats exactly reuses its cached sub-solution
// without any solver work. Because the solver is deterministic and warm
// starts never change results (pinned by test_warm_start), a maintained
// call is bit-identical to re-solving every group cold over the same
// partition; reuse only removes work, never changes answers.

#ifndef PB_CORE_SKETCH_REFINE_H_
#define PB_CORE_SKETCH_REFINE_H_

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "core/package.h"
#include "solver/milp.h"

namespace pb::core {

/// Persistent partitioning state for one (query, table) pair, owned by the
/// caller and passed via SketchRefineOptions::state. SketchRefine reads it
/// on entry and updates it on exit:
///
///   - empty / incompatible state -> a full partition build populates it;
///   - compatible state over a grown candidate set -> incremental
///     maintenance (route new candidates, split/merge, re-solve only the
///     dirty groups).
///
/// Compatibility requires the same query (weights per candidate and the
/// feature dimensionality derive from it) over the same table with rows
/// only appended since the state was built: WHERE predicates are per-row,
/// so the surviving candidate positions of the old prefix are unchanged
/// and new candidates can only appear at the end. The caller is
/// responsible for that discipline (the Engine keys states on query text
/// and drops them on any non-append catalog mutation); SketchRefine itself
/// only checks the cheap invariants (dimensionality, monotone growth).
///
/// NOT thread-safe: like MilpWarmStart, one state must not be shared by
/// concurrent calls.
struct SketchRefineState {
  struct Group {
    std::vector<size_t> members;  ///< candidate positions
    size_t rep = 0;               ///< representative (candidate position)
    /// Membership changed since the last successful solve (or the group
    /// was never solved): the representative must be recomputed and the
    /// cached sub-solution is gone.
    bool dirty = true;
    /// Per-group solver warm start (root basis + pseudocosts), reused
    /// across calls whenever this group's sub-ILP is re-solved.
    solver::MilpWarmStart warm;
    /// Cached refine sub-solution from the last successful call, valid
    /// while the group stays clean. Reused verbatim when the residual it
    /// was solved against repeats exactly (same model bit-for-bit, and the
    /// solver is deterministic — so reuse cannot change the answer).
    bool has_solution = false;
    std::vector<double> cached_others;
    solver::MilpResult cached_solution;
  };

  /// Candidates covered by `groups` (positions [0, n_candidates) of the
  /// filtered candidate vector).
  size_t n_candidates = 0;
  size_t dims = 0;  ///< feature dimensionality the state was built with
  /// Frozen per-dimension normalization captured at build time. Routing
  /// and centroid geometry must live in the space the partition was built
  /// in, so the affine map is state — appended values are mapped with it,
  /// not re-normalized.
  std::vector<double> feat_lo;
  std::vector<double> feat_span;
  std::vector<Group> groups;
  /// Sketch-phase warm start (survives across calls; the signature check
  /// resets it automatically when the group count changes).
  solver::MilpWarmStart sketch_warm;

  /// Drops every cached sub-solution and warm start while keeping the
  /// partition itself — the "cold re-solve over the same partition"
  /// baseline the incremental path is benchmarked (and bit-compared)
  /// against.
  void InvalidateSolutions() {
    for (Group& g : groups) {
      g.warm = solver::MilpWarmStart();
      g.has_solution = false;
      g.cached_others.clear();
      g.cached_solution = solver::MilpResult();
    }
    sketch_warm = solver::MilpWarmStart();
  }
};

struct SketchRefineOptions {
  /// Maximum tuples per partition (tau). Smaller = finer approximation,
  /// larger sketch model.
  size_t partition_size = 64;
  /// Backtracking budget: how many failed groups may be excluded from the
  /// sketch before giving up.
  int max_backtracks = 4;
  /// Thread budget (see common/budget.h). The Refine phase solves
  /// threads / node_threads groups at once, each sub-ILP with
  /// node_threads-way tree parallelism (node_threads is clamped into
  /// [1, threads]; 1, the default, is all group-level fan-out — raise it
  /// when few large groups leave the pool underfilled). The Sketch ILP and
  /// the sequential repair re-solves get all `threads` as tree
  /// parallelism. Any budget and split give a bit-identical result when
  /// the solver stops deterministically (a sub-ILP that hits
  /// `milp.time_limit_s` mid-search can surface a different incumbent; use
  /// `milp.max_nodes` when reproducibility matters).
  ///
  /// Cancellation and deadlines ride in `milp`: milp.cancel is polled
  /// between every phase and sub-solve here (and inside each solve's own
  /// tree search), and milp.time_limit_s bounds the WHOLE SketchRefine
  /// call — each sub-solve's limit is clamped to the time remaining, so
  /// the pipeline cannot overshoot the budget by a factor of its solve
  /// count. A cancelled or out-of-time call returns found == false with
  /// whatever phase counters were already earned; it never returns a
  /// partially merged package.
  ComputeBudget compute;
  solver::MilpOptions milp;

  // ----- Incremental maintenance (HTAP) ------------------------------------

  /// Optional cross-call partition state (borrowed, in/out); see
  /// SketchRefineState. Null = the classic one-shot pipeline.
  SketchRefineState* state = nullptr;
  /// A maintained group larger than this re-splits into tau-bounded parts
  /// (0 = 2 * partition_size). Routing alone never re-partitions, so the
  /// threshold bounds how far a hot group can drift from tau before it is
  /// split back.
  size_t split_threshold = 0;
  /// A maintained group smaller than this merges into its nearest
  /// neighbour (0 = never merge). Appends never shrink groups, so merges
  /// only fire when splits leave slivers behind or the caller lowers tau.
  size_t merge_min_size = 0;
  /// Routing radius: an appended candidate farther than this (L2 in the
  /// state's frozen normalized feature space) from every representative
  /// starts a new singleton group instead of stretching the nearest one
  /// (0 = unlimited, always route).
  double route_max_distance = 0.0;
  /// Reuse cached sub-solutions of clean groups whose residuals repeat
  /// exactly. Off = re-solve every refined group (the cold baseline; the
  /// result is bit-identical either way, only the work differs).
  bool reuse_group_solutions = true;
};

struct SketchRefineResult {
  bool found = false;
  Package package;
  double objective = 0.0;
  size_t num_partitions = 0;
  size_t sketch_variables = 0;
  int backtracks = 0;
  /// True when the run stopped early because milp.cancel requested it or
  /// the milp.time_limit_s whole-call budget ran out (found is then false).
  bool cancelled = false;
  /// Sequential repair passes taken after a parallel refine drifted out of
  /// feasibility (0 when the independent solves merged cleanly).
  int repair_passes = 0;
  int64_t refine_ilps_solved = 0;
  /// Total simplex iterations across every MILP solved (sketch, refine,
  /// repair) — the substrate-cost metric the warm-start benchmarks compare.
  int64_t lp_iterations = 0;
  /// Subset of lp_iterations spent in dual-simplex child re-solves
  /// (0 when milp.lp.use_dual_simplex or milp.warm_start_lps is off).
  int64_t lp_dual_iterations = 0;
  /// Basis refactorizations across every MILP solved — the factorization-
  /// layer cost metric the engine benchmarks gate alongside iterations.
  int64_t lp_refactorizations = 0;
  double partition_seconds = 0.0;
  double sketch_seconds = 0.0;
  double refine_seconds = 0.0;
  /// Feature blocks whose spread bounds came from the partitioner's zone
  /// index instead of a value scan (identity-ordered ranges only; see
  /// PartitionCandidatesColumnar). Deterministic for a given query + table.
  int64_t zone_map_skipped_blocks = 0;
  // ----- Incremental maintenance counters (0 without options.state) -------
  /// The partition came from options.state (incremental maintenance ran
  /// instead of a full build).
  bool state_reused = false;
  /// Appended candidates routed into existing (or new singleton) groups.
  int64_t appended_routed = 0;
  /// Refined groups re-solved this call (dirty membership, moved residual,
  /// or reuse disabled).
  int64_t dirty_groups = 0;
  /// Refined groups answered from the state's cached sub-solutions with
  /// zero solver work.
  int64_t groups_reused = 0;
  int64_t groups_split = 0;   ///< maintained groups re-split (over threshold)
  int64_t groups_merged = 0;  ///< maintained groups merged away (under min)
};

/// Offline partitioning, exposed for reuse across queries on the same
/// table (the 2016 paper's "offline" phase). `features` are per-candidate
/// numeric vectors; groups have at most `partition_size` members.
/// (Row-major convenience wrapper; transposes and delegates to the
/// column-major form below.)
std::vector<std::vector<size_t>> PartitionCandidates(
    const std::vector<std::vector<double>>& features, size_t partition_size);

/// Column-major partitioning over `n` candidates: feature_cols[d] is one
/// contiguous span of dimension d (length n) — e.g. a per-candidate gather
/// of a table column. This is the form the engine's hot path uses.
///
/// The recursive median split scans every dimension of a range to find the
/// widest spread. For ranges still in identity order (no reordering has
/// touched them yet — always true for the top-level range and for ranges
/// produced by positional splits), those scans are answered from a zone
/// index built once per call: per-block min/max over each feature column,
/// so fully covered blocks never re-read their values. When
/// `zone_map_skipped_blocks` is non-null it accumulates one count per
/// (dimension, block) answered from the index.
std::vector<std::vector<size_t>> PartitionCandidatesColumnar(
    const std::vector<std::vector<double>>& feature_cols, size_t n,
    size_t partition_size, int64_t* zone_map_skipped_blocks = nullptr);

/// Runs Sketch + Refine for an ILP-translatable query.
Result<SketchRefineResult> SketchRefine(
    const paql::AnalyzedQuery& aq, const SketchRefineOptions& options = {});

}  // namespace pb::core

#endif  // PB_CORE_SKETCH_REFINE_H_
