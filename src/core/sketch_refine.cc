#include "core/sketch_refine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/pruning.h"
#include "db/ops.h"

namespace pb::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One linear requirement over candidate positions (query constraints plus
/// the synthetic non-empty row).
struct Row {
  std::vector<double> w;  // per candidate position
  double lo = -kInf;
  double hi = kInf;
  std::string name;
};

/// Zone granularity of the partitioner's spread index. Independent of the
/// table's storage block size: the index lives over candidate positions
/// (post-filter, post-normalization), not table rows.
constexpr size_t kSpreadBlock = 4096;

/// Per-block min/max over every feature column, built once per partition
/// call. Identity-ordered ranges answer their spread scans from this index
/// block-at-a-time instead of re-reading the values.
struct SpreadIndex {
  size_t n = 0;
  std::vector<std::vector<double>> mins;  // mins[d][b]
  std::vector<std::vector<double>> maxs;
  int64_t skipped_blocks = 0;

  static SpreadIndex Build(const std::vector<std::vector<double>>& cols,
                           size_t n) {
    SpreadIndex idx;
    idx.n = n;
    const size_t blocks = (n + kSpreadBlock - 1) / kSpreadBlock;
    idx.mins.resize(cols.size());
    idx.maxs.resize(cols.size());
    for (size_t d = 0; d < cols.size(); ++d) {
      idx.mins[d].resize(blocks);
      idx.maxs[d].resize(blocks);
      const double* f = cols[d].data();
      for (size_t b = 0; b < blocks; ++b) {
        const size_t lo = b * kSpreadBlock;
        const size_t hi = std::min(n, lo + kSpreadBlock);
        double mn = kInf, mx = -kInf;
        for (size_t i = lo; i < hi; ++i) {
          mn = std::min(mn, f[i]);
          mx = std::max(mx, f[i]);
        }
        idx.mins[d][b] = mn;
        idx.maxs[d][b] = mx;
      }
    }
    return idx;
  }

  /// Spread bounds of dimension d over the contiguous candidate range
  /// [begin, end): zone entries for fully covered blocks, value scans for
  /// the ragged edges.
  std::pair<double, double> MinMax(size_t d, const double* f, size_t begin,
                                   size_t end) {
    double mn = kInf, mx = -kInf;
    size_t i = begin;
    while (i < end) {
      const size_t b = i / kSpreadBlock;
      const size_t block_lo = b * kSpreadBlock;
      const size_t block_hi = std::min(n, block_lo + kSpreadBlock);
      if (i == block_lo && block_hi <= end) {
        mn = std::min(mn, mins[d][b]);
        mx = std::max(mx, maxs[d][b]);
        ++skipped_blocks;
        i = block_hi;
      } else {
        const size_t stop = std::min(end, block_hi);
        for (; i < stop; ++i) {
          mn = std::min(mn, f[i]);
          mx = std::max(mx, f[i]);
        }
      }
    }
    return {mn, mx};
  }
};

/// Recursive median split over one index range [begin, end) of `order`.
/// `feature_cols` is column-major: feature_cols[d][i] is dimension d of
/// candidate i, so each spread scan and the split comparator walk one
/// contiguous span. `aligned` records that order[i] == i throughout the
/// range (true at the top level and preserved by positional splits, lost
/// after an nth_element); aligned ranges take their spread bounds from the
/// zone index.
void SplitRange(const std::vector<std::vector<double>>& feature_cols,
                std::vector<size_t>& order, size_t begin, size_t end,
                size_t partition_size, bool aligned, SpreadIndex* index,
                std::vector<std::vector<size_t>>* groups) {
  size_t count = end - begin;
  if (count <= partition_size) {
    groups->emplace_back(order.begin() + begin, order.begin() + end);
    return;
  }
  // Pick the dimension with the largest spread inside this range.
  size_t dims = feature_cols.size();
  size_t best_dim = 0;
  double best_spread = -1.0;
  for (size_t d = 0; d < dims; ++d) {
    const double* f = feature_cols[d].data();
    double mn = kInf, mx = -kInf;
    if (aligned) {
      std::tie(mn, mx) = index->MinMax(d, f, begin, end);
    } else {
      for (size_t i = begin; i < end; ++i) {
        double v = f[order[i]];
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
    }
    if (mx - mn > best_spread) {
      best_spread = mx - mn;
      best_dim = d;
    }
  }
  size_t mid = begin + count / 2;
  if (best_spread <= 0.0 || dims == 0) {
    // All-identical features: split positionally (alignment survives).
    SplitRange(feature_cols, order, begin, mid, partition_size, aligned,
               index, groups);
    SplitRange(feature_cols, order, mid, end, partition_size, aligned, index,
               groups);
    return;
  }
  const double* f = feature_cols[best_dim].data();
  std::nth_element(order.begin() + begin, order.begin() + mid,
                   order.begin() + end,
                   [f](size_t a, size_t b) { return f[a] < f[b]; });
  SplitRange(feature_cols, order, begin, mid, partition_size, /*aligned=*/false,
             index, groups);
  SplitRange(feature_cols, order, mid, end, partition_size, /*aligned=*/false,
             index, groups);
}

/// The member closest to the group's feature centroid (L2, ties to the
/// earliest member). The same rule serves the full build and the
/// per-dirty-group recompute of the maintained path, so both produce
/// identical representatives for identical memberships.
size_t ComputeRep(const std::vector<size_t>& members,
                  const std::vector<std::vector<double>>& feature_cols) {
  const size_t dims = feature_cols.size();
  std::vector<double> centroid(dims, 0.0);
  for (size_t d = 0; d < dims; ++d) {
    const double* f = feature_cols[d].data();
    for (size_t i : members) centroid[d] += f[i];
  }
  for (double& c : centroid) c /= static_cast<double>(members.size());
  size_t rep = members[0];
  double best = kInf;
  for (size_t m = 0; m < members.size(); ++m) {
    double dist = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      double delta = feature_cols[d][members[m]] - centroid[d];
      dist += delta * delta;
    }
    if (dist < best) {
      best = dist;
      rep = members[m];
    }
  }
  return rep;
}

/// Incremental partition maintenance over a compatible state: route the
/// appended candidates [state->n_candidates, n) to their nearest
/// representative, split groups past the size threshold, merge undersized
/// ones, and recompute representatives for every dirty group. Everything
/// here is single-threaded and deterministic (ties break to the lowest
/// group index), so the maintained partition — and therefore the solve —
/// is identical for any thread count.
void MaintainPartition(SketchRefineState* state,
                       const std::vector<std::vector<double>>& feature_cols,
                       size_t n, const SketchRefineOptions& options,
                       SketchRefineResult* out) {
  const size_t dims = feature_cols.size();
  auto mark_dirty = [](SketchRefineState::Group& g) {
    g.dirty = true;
    g.has_solution = false;
    g.cached_others.clear();
    g.cached_solution = solver::MilpResult();
  };

  // ---- Route appended candidates to the nearest representative.
  const double radius2 =
      options.route_max_distance > 0.0
          ? options.route_max_distance * options.route_max_distance
          : kInf;
  for (size_t p = state->n_candidates; p < n; ++p) {
    size_t best_g = 0;
    double best_d2 = kInf;
    for (size_t g = 0; g < state->groups.size(); ++g) {
      double d2 = 0.0;
      const size_t rep = state->groups[g].rep;
      for (size_t d = 0; d < dims; ++d) {
        double delta = feature_cols[d][p] - feature_cols[d][rep];
        d2 += delta * delta;
      }
      if (d2 < best_d2) {
        best_d2 = d2;
        best_g = g;
      }
    }
    if (best_d2 > radius2) {
      // Too far from every group: a singleton keeps the outlier from
      // stretching a representative into meaninglessness.
      SketchRefineState::Group fresh;
      fresh.members.push_back(p);
      fresh.rep = p;
      mark_dirty(fresh);
      state->groups.push_back(std::move(fresh));
    } else {
      state->groups[best_g].members.push_back(p);
      mark_dirty(state->groups[best_g]);
    }
    ++out->appended_routed;
  }

  // ---- Split groups that drifted past the size threshold back into
  // tau-bounded parts (same recursive median split as the full build,
  // scoped to the group's members). The first part replaces the group in
  // place; the rest append, so untouched group indices never shift.
  const size_t split_threshold = options.split_threshold > 0
                                     ? options.split_threshold
                                     : 2 * options.partition_size;
  const size_t original_groups = state->groups.size();
  for (size_t gi = 0; gi < original_groups; ++gi) {
    if (state->groups[gi].members.size() <= split_threshold) continue;
    const std::vector<size_t> members = std::move(state->groups[gi].members);
    std::vector<std::vector<double>> local(
        dims, std::vector<double>(members.size()));
    for (size_t d = 0; d < dims; ++d) {
      for (size_t m = 0; m < members.size(); ++m) {
        local[d][m] = feature_cols[d][members[m]];
      }
    }
    std::vector<std::vector<size_t>> parts = PartitionCandidatesColumnar(
        local, members.size(), options.partition_size);
    for (size_t pi = 0; pi < parts.size(); ++pi) {
      std::vector<size_t> part;
      part.reserve(parts[pi].size());
      for (size_t local_idx : parts[pi]) part.push_back(members[local_idx]);
      if (pi == 0) {
        state->groups[gi].members = std::move(part);
        mark_dirty(state->groups[gi]);
      } else {
        SketchRefineState::Group fresh;
        fresh.members = std::move(part);
        mark_dirty(fresh);
        state->groups.push_back(std::move(fresh));
      }
    }
    ++out->groups_split;
  }

  // ---- Merge undersized groups into their nearest neighbour (by
  // representative distance; representatives may be stale for dirty
  // groups, which only moves WHERE a sliver lands, never correctness —
  // the target is re-solved either way).
  if (options.merge_min_size > 0) {
    for (size_t gi = 0; gi < state->groups.size();) {
      if (state->groups.size() == 1 ||
          state->groups[gi].members.size() >= options.merge_min_size) {
        ++gi;
        continue;
      }
      size_t best_g = gi == 0 ? 1 : 0;
      double best_d2 = kInf;
      for (size_t g = 0; g < state->groups.size(); ++g) {
        if (g == gi) continue;
        double d2 = 0.0;
        for (size_t d = 0; d < dims; ++d) {
          double delta = feature_cols[d][state->groups[gi].rep] -
                         feature_cols[d][state->groups[g].rep];
          d2 += delta * delta;
        }
        if (d2 < best_d2) {
          best_d2 = d2;
          best_g = g;
        }
      }
      SketchRefineState::Group& target = state->groups[best_g];
      target.members.insert(target.members.end(),
                            state->groups[gi].members.begin(),
                            state->groups[gi].members.end());
      mark_dirty(target);
      state->groups.erase(state->groups.begin() + gi);
      ++out->groups_merged;
      // Do not advance: the next group slid into slot gi.
    }
  }

  // ---- Dirty groups get fresh representatives; clean ones keep theirs
  // (same membership => ComputeRep would return the same answer anyway).
  for (SketchRefineState::Group& g : state->groups) {
    if (g.dirty) g.rep = ComputeRep(g.members, feature_cols);
  }
  state->n_candidates = n;
}

}  // namespace

std::vector<std::vector<size_t>> PartitionCandidatesColumnar(
    const std::vector<std::vector<double>>& feature_cols, size_t n,
    size_t partition_size, int64_t* zone_map_skipped_blocks) {
  std::vector<std::vector<size_t>> groups;
  if (n == 0) return groups;
  partition_size = std::max<size_t>(partition_size, 1);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  SpreadIndex index = SpreadIndex::Build(feature_cols, n);
  SplitRange(feature_cols, order, 0, order.size(), partition_size,
             /*aligned=*/true, &index, &groups);
  if (zone_map_skipped_blocks != nullptr) {
    *zone_map_skipped_blocks += index.skipped_blocks;
  }
  return groups;
}

std::vector<std::vector<size_t>> PartitionCandidates(
    const std::vector<std::vector<double>>& features, size_t partition_size) {
  if (features.empty()) return {};
  // Transpose the row-major input; the engine itself builds column-major
  // features directly and calls PartitionCandidatesColumnar.
  size_t dims = features[0].size();
  std::vector<std::vector<double>> cols(
      dims, std::vector<double>(features.size()));
  for (size_t i = 0; i < features.size(); ++i) {
    for (size_t d = 0; d < dims; ++d) cols[d][i] = features[i][d];
  }
  return PartitionCandidatesColumnar(cols, features.size(), partition_size);
}

Result<SketchRefineResult> SketchRefine(const paql::AnalyzedQuery& aq,
                                        const SketchRefineOptions& options) {
  if (!aq.IlpEligible()) {
    return Status::Unimplemented(
        "SketchRefine requires an ILP-translatable query");
  }
  if (!aq.extreme_constraints.empty()) {
    return Status::Unimplemented(
        "SketchRefine does not support MIN/MAX global constraints "
        "(representatives do not preserve extremes)");
  }

  SketchRefineResult out;
  Stopwatch phase_timer;
  // The authoritative thread budget for every solve this call runs; a
  // caller-set options.milp.compute is always overridden from it at each
  // solve site (like options.milp.warm) so no path can oversubscribe the
  // host.
  const int thread_budget = ResolveThreads(options.compute.threads);

  // Interruption plumbing: milp.cancel is polled between phases and
  // sub-solves (each solve also polls it per node), and milp.time_limit_s
  // bounds the WHOLE call — every sub-solve's own limit is clamped to the
  // time remaining so the pipeline never overshoots by its solve count.
  const CancelToken cancel = options.milp.cancel;
  const Deadline deadline = Deadline::AfterSeconds(options.milp.time_limit_s);
  auto interrupted = [&] {
    return cancel.cancel_requested() || deadline.expired();
  };
  auto budgeted_milp = [&] {
    solver::MilpOptions m = options.milp;
    m.time_limit_s = std::min(m.time_limit_s, deadline.SecondsRemaining());
    return m;
  };

  // ---- Candidates, weights, rows.
  PB_ASSIGN_OR_RETURN(std::vector<size_t> candidates,
                      db::FilterIndices(*aq.table, aq.query.where));
  const size_t n = candidates.size();
  if (n == 0) {
    // Only the empty package is possible.
    Package empty;
    PB_ASSIGN_OR_RETURN(bool valid, SatisfiesGlobalConstraints(aq, empty));
    out.found = valid;
    return out;
  }

  std::vector<std::vector<double>> agg_w(aq.aggs.size());
  for (size_t a = 0; a < aq.aggs.size(); ++a) {
    PB_ASSIGN_OR_RETURN(agg_w[a],
                        ComputeAggWeights(aq.aggs[a], *aq.table, candidates));
  }
  std::vector<Row> rows;
  for (const paql::LinearConstraint& lc : aq.linear_constraints) {
    Row row;
    row.w.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (const paql::LinearAggTerm& t : lc.terms) {
        row.w[i] += t.coeff * agg_w[t.agg_index][i];
      }
    }
    row.lo = lc.lo;
    row.hi = lc.hi;
    row.name = lc.source_text;
    rows.push_back(std::move(row));
  }
  if (aq.requires_nonempty) {
    Row row;
    row.w.assign(n, 1.0);
    row.lo = 1.0;
    row.name = "nonempty";
    rows.push_back(std::move(row));
  }
  std::vector<double> obj_w(n, 0.0);
  if (aq.has_objective) {
    for (const paql::LinearAggTerm& t : aq.objective_terms) {
      for (size_t i = 0; i < n; ++i) {
        obj_w[i] += t.coeff * agg_w[t.agg_index][i];
      }
    }
  }
  const auto sense = aq.has_objective && !aq.maximize
                         ? solver::ObjectiveSense::kMinimize
                         : solver::ObjectiveSense::kMaximize;

  // ---- Offline partitioning on normalized (constraint-weight, objective)
  // feature space: tuples similar on every dimension the query touches end
  // up in one group, which is what lets a representative stand in for them.
  // Features are column-major — one contiguous span per dimension — so the
  // normalization, split scans, and centroid sums are tight vector passes.
  const size_t dims = rows.size() + (aq.has_objective ? 1 : 0);
  std::vector<std::vector<double>> feature_cols(dims);
  for (size_t r = 0; r < rows.size(); ++r) feature_cols[r] = rows[r].w;
  if (aq.has_objective) feature_cols[rows.size()] = obj_w;

  // A caller-held state turns the partition into maintained structure: a
  // compatible state (same dimensionality, candidates only appended) is
  // updated in place; anything else falls back to a full build that
  // (re)populates it. The cheap checks here catch dimension drift; the
  // same-query/append-only discipline is the caller's contract (see
  // SketchRefineState).
  SketchRefineState* state = options.state;
  const bool incremental = state != nullptr && !state->groups.empty() &&
                           state->dims == dims &&
                           state->n_candidates <= n &&
                           state->feat_lo.size() == dims;
  if (incremental) {
    // Frozen normalization: routing and centroid geometry must live in
    // the space the partition was built in, so the affine map comes from
    // the state instead of a per-call min/max.
    for (size_t d = 0; d < dims; ++d) {
      const double lo = state->feat_lo[d];
      const double span = state->feat_span[d];
      std::vector<double>& col = feature_cols[d];
      if (span > 0) {
        for (double& v : col) v = (v - lo) / span;
      } else {
        std::fill(col.begin(), col.end(), 0.0);
      }
    }
  } else {
    if (state != nullptr) {
      // Incompatible (or first-use) state: rebuild it from scratch.
      *state = SketchRefineState();
      state->dims = dims;
      state->feat_lo.resize(dims);
      state->feat_span.resize(dims);
    }
    for (size_t d = 0; d < dims; ++d) {
      std::vector<double>& col = feature_cols[d];
      auto [mn, mx] = std::minmax_element(col.begin(), col.end());
      double lo = *mn, span = *mx - *mn;
      if (state != nullptr) {
        state->feat_lo[d] = lo;
        state->feat_span[d] = span;
      }
      if (span > 0) {
        for (double& v : col) v = (v - lo) / span;
      } else {
        std::fill(col.begin(), col.end(), 0.0);
      }
    }
  }

  std::vector<std::vector<size_t>> groups;
  std::vector<size_t> rep;
  if (incremental) {
    out.state_reused = true;
    MaintainPartition(state, feature_cols, n, options, &out);
    groups.reserve(state->groups.size());
    rep.reserve(state->groups.size());
    for (const SketchRefineState::Group& g : state->groups) {
      groups.push_back(g.members);
      rep.push_back(g.rep);
    }
  } else {
    groups = PartitionCandidatesColumnar(
        feature_cols, n, options.partition_size, &out.zone_map_skipped_blocks);
    rep.resize(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      rep[g] = ComputeRep(groups[g], feature_cols);
    }
    if (state != nullptr) {
      state->groups.resize(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        state->groups[g].members = groups[g];
        state->groups[g].rep = rep[g];
        state->groups[g].dirty = true;
      }
      state->n_candidates = n;
    }
  }
  out.num_partitions = groups.size();
  out.partition_seconds = phase_timer.ElapsedSeconds();

  // ---- Sketch (+ refine, with backtracking over excluded groups).
  std::vector<bool> excluded(groups.size(), false);
  // Sketch-phase warm state: the caller's persistent copy when a state is
  // in play (so it survives across calls), otherwise call-local — never
  // options.milp.warm, which would be consumed (and so clobbered) by
  // SketchRefine's internal solves. A backtrack rebuilds the sketch with
  // fewer variables, which the signature check detects and resets
  // automatically.
  solver::MilpWarmStart local_sketch_warm;
  solver::MilpWarmStart& sketch_warm =
      state != nullptr ? state->sketch_warm : local_sketch_warm;
  for (int attempt = 0; attempt <= options.max_backtracks; ++attempt) {
    if (interrupted()) {
      out.cancelled = true;
      return out;
    }
    // Sketch model: one integer variable per (non-excluded) group.
    phase_timer.Restart();
    solver::LpModel sketch;
    sketch.SetSense(sense);
    std::vector<int> var_of_group(groups.size(), -1);
    for (size_t g = 0; g < groups.size(); ++g) {
      if (excluded[g]) continue;
      double cap = static_cast<double>(groups[g].size()) *
                   static_cast<double>(aq.max_multiplicity);
      var_of_group[g] =
          sketch.AddVariable("g" + std::to_string(g), 0.0, cap,
                             obj_w[rep[g]], /*is_integer=*/true);
    }
    for (const Row& row : rows) {
      std::vector<solver::LinearTerm> terms;
      for (size_t g = 0; g < groups.size(); ++g) {
        if (var_of_group[g] >= 0 && row.w[rep[g]] != 0.0) {
          terms.push_back({var_of_group[g], row.w[rep[g]]});
        }
      }
      sketch.AddConstraint(row.name, std::move(terms), row.lo, row.hi);
    }
    if (sketch.num_variables() == 0) break;
    out.sketch_variables = sketch.num_variables();
    solver::MilpOptions sketch_milp = budgeted_milp();
    sketch_milp.warm = &sketch_warm;
    // The sketch ILP is one monolithic solve, so the whole thread budget
    // goes to its tree search (bit-identical for any count).
    sketch_milp.compute.threads = thread_budget;
    PB_ASSIGN_OR_RETURN(solver::MilpResult sk,
                        solver::SolveMilp(sketch, sketch_milp));
    out.lp_iterations += sk.lp_iterations;
    out.lp_dual_iterations += sk.lp_dual_iterations;
    out.lp_refactorizations += sk.lp_refactorizations;
    out.sketch_seconds += phase_timer.ElapsedSeconds();
    if (interrupted()) {
      // A cancelled/out-of-time sketch solve surfaces kNoSolution; report
      // the interruption rather than a (misleading) plain failure.
      out.cancelled = true;
      return out;
    }
    if (!sk.has_solution()) break;  // sketch infeasible: give up

    std::vector<int64_t> group_mult(groups.size(), 0);
    for (size_t g = 0; g < groups.size(); ++g) {
      if (var_of_group[g] >= 0) {
        group_mult[g] =
            static_cast<int64_t>(std::llround(sk.x[var_of_group[g]]));
      }
    }

    // Refine groups in decreasing sketch-multiplicity order (stable sort:
    // the order, and therefore the result, is fully deterministic).
    phase_timer.Restart();
    std::vector<size_t> refine_order;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (group_mult[g] > 0) refine_order.push_back(g);
    }
    std::stable_sort(
        refine_order.begin(), refine_order.end(),
        [&](size_t a, size_t b) { return group_mult[a] > group_mult[b]; });

    // Residual sub-ILP for group g: what its members must deliver given the
    // per-row contribution `others` of everyone else. Variable k is the
    // k-th member of the group (indices are dense).
    auto build_sub = [&](size_t g, const std::vector<double>& others) {
      solver::LpModel sub;
      sub.SetSense(sense);
      for (size_t k = 0; k < groups[g].size(); ++k) {
        sub.AddVariable("m" + std::to_string(k), 0.0,
                        static_cast<double>(aq.max_multiplicity),
                        obj_w[groups[g][k]], /*is_integer=*/true);
      }
      for (size_t r = 0; r < rows.size(); ++r) {
        const Row& row = rows[r];
        std::vector<solver::LinearTerm> terms;
        for (size_t k = 0; k < groups[g].size(); ++k) {
          if (row.w[groups[g][k]] != 0.0) {
            terms.push_back({static_cast<int>(k), row.w[groups[g][k]]});
          }
        }
        sub.AddConstraint(row.name, std::move(terms),
                          row.lo == -kInf ? -kInf : row.lo - others[r],
                          row.hi == kInf ? kInf : row.hi - others[r]);
      }
      return sub;
    };
    auto package_from = [&](const std::vector<int64_t>& m) {
      Package p;
      for (size_t i = 0; i < n; ++i) {
        if (m[i] > 0) p.Add(candidates[i], m[i]);
      }
      return p;
    };

    // Independent pass: each group's residual is taken against the sketch
    // state (every other group at its representative multiplicity), so the
    // sub-ILPs share nothing and fan out across the pool. Models are built
    // single-threaded in refine order; workers only solve.
    struct RefineTask {
      std::vector<double> others;  // per-row contribution of everyone else
      solver::LpModel model;
      solver::MilpResult solution;
      /// Solver warm-start state (root basis + pseudocosts) for this
      /// group's solves, re-seeded into the repair pass's re-solve of the
      /// same group — the models are structurally identical, only the
      /// residual ranges move. Points at the group's persistent slot when
      /// a SketchRefineState is in play (so it survives across calls),
      /// else at local_warm. Distinct groups own distinct slots, so the
      /// parallel fan-out never shares warm state.
      solver::MilpWarmStart* warm = nullptr;
      solver::MilpWarmStart local_warm;
      /// Answered from the state's cached sub-solution; no solver work.
      bool reused = false;
      Status status = Status::OK();
    };
    // Per-row activity of the whole sketch state; each task's residual is
    // that minus the group's own representative contribution, O(rows) per
    // group instead of a full O(rows * n) recompute.
    std::vector<double> base(rows.size(), 0.0);
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t g : refine_order) {
        base[r] += rows[r].w[rep[g]] * group_mult[g];
      }
    }
    std::vector<RefineTask> tasks(refine_order.size());
    for (size_t t = 0; t < refine_order.size(); ++t) {
      size_t g = refine_order[t];
      tasks[t].others.resize(rows.size());
      for (size_t r = 0; r < rows.size(); ++r) {
        tasks[t].others[r] =
            base[r] - rows[r].w[rep[g]] * static_cast<double>(group_mult[g]);
      }
      SketchRefineState::Group* sg =
          state != nullptr ? &state->groups[g] : nullptr;
      tasks[t].warm = sg != nullptr ? &sg->warm : &tasks[t].local_warm;
      if (sg != nullptr && options.reuse_group_solutions && !sg->dirty &&
          sg->has_solution && tasks[t].others == sg->cached_others) {
        // Clean group, identical residual: the cached sub-solution IS what
        // a re-solve would return (same model bit-for-bit, deterministic
        // solver), so skip the solver entirely.
        tasks[t].solution = sg->cached_solution;
        tasks[t].reused = true;
        ++out.groups_reused;
        continue;
      }
      tasks[t].model = build_sub(g, tasks[t].others);
      ++out.dirty_groups;
      ++out.refine_ilps_solved;
    }
    // Thread-budget split: group-level fan-out times node-level tree
    // parallelism stays within compute.threads — compute.node_threads is
    // clamped into [1, budget] so the budget is authoritative. Any split
    // yields the identical result — each MILP solve is thread-count
    // invariant — so the knob only moves where the hardware effort goes.
    const int node_threads =
        std::min(ResolveThreads(options.compute.node_threads), thread_budget);
    auto solve_task = [&](RefineTask& task) {
      // Reused tasks carry their answer already; nothing to solve.
      if (task.reused) return;
      // A task that starts after interruption leaves its solution at the
      // kNoSolution default — the merge below then routes through repair,
      // whose own interruption check returns before any re-solve.
      if (interrupted()) return;
      // Each task owns its warm-start slot (task-local or its group's
      // persistent one — distinct either way): safe under the thread pool
      // (no sharing) and deterministic (the slot depends only on the
      // task's own solves). A caller-provided options.milp.warm would be
      // shared across concurrent tasks, so it is always overridden here.
      solver::MilpOptions task_milp = budgeted_milp();
      task_milp.warm = task.warm;
      // Like `warm`, always overridden: a caller-set milp.compute would
      // multiply with the group fan-out and overrun the budget.
      task_milp.compute.threads = node_threads;
      Result<solver::MilpResult> sr = solver::SolveMilp(task.model, task_milp);
      if (sr.ok()) {
        task.solution = std::move(sr).value();
      } else {
        task.status = sr.status();
      }
    };
    size_t workers = std::min<size_t>(
        static_cast<size_t>(std::max(thread_budget / node_threads, 1)),
        tasks.size());
    if (workers <= 1) {
      for (RefineTask& task : tasks) solve_task(task);
    } else {
      // The waiting thread steals queued tasks (TaskGroup::Wait), making
      // it the last of the `workers` budgeted solvers — so the pool gets
      // workers - 1 threads, not workers.
      ThreadPool pool(workers - 1);
      TaskGroup group(&pool);
      for (RefineTask& task : tasks) {
        group.Spawn([&solve_task, &task] { solve_task(task); });
      }
      group.Wait();
    }
    for (const RefineTask& task : tasks) {
      PB_RETURN_IF_ERROR(task.status);
      // Reused tasks did no solver work this call: their cached result's
      // counters were charged when it was originally solved.
      if (task.reused) continue;
      out.lp_iterations += task.solution.lp_iterations;
      out.lp_dual_iterations += task.solution.lp_dual_iterations;
      out.lp_refactorizations += task.solution.lp_refactorizations;
    }
    if (interrupted()) {
      out.refine_seconds += phase_timer.ElapsedSeconds();
      out.cancelled = true;
      return out;
    }

    // Deterministic merge in refine order. The merged package stands only
    // if every group solved and the result validates.
    bool all_solved = true;
    for (const RefineTask& task : tasks) {
      if (!task.solution.has_solution()) {
        all_solved = false;
        break;
      }
    }
    Package pkg;
    bool valid = false;
    std::vector<int64_t> mult(n, 0);
    if (all_solved) {
      for (size_t t = 0; t < tasks.size(); ++t) {
        size_t g = refine_order[t];
        for (size_t k = 0; k < groups[g].size(); ++k) {
          mult[groups[g][k]] +=
              static_cast<int64_t>(std::llround(tasks[t].solution.x[k]));
        }
      }
      pkg = package_from(mult);
      PB_ASSIGN_OR_RETURN(valid, IsValidPackage(aq, pkg));
    }

    bool failed_group = false;
    size_t failed_g = 0;
    if (!valid) {
      // Repair: the independent solves let per-group drift accumulate
      // (chosen members aggregate differently than their representative),
      // and a group infeasible against the sketch residuals may still be
      // feasible against the actual ones. Rebuild greedily, propagating
      // actual residuals group by group as the 2016 paper's refine does; a
      // parallel result (solution or proven infeasibility) is reused when
      // its residuals match the actual state exactly — always true for the
      // first group, and for every group while no drift has occurred. The
      // pass depends only on the tasks' deterministic results, so any
      // thread count still yields an identical outcome. The actual residual
      // is tracked as (base - own rep contribution) + drift so that a
      // zero-drift prefix reproduces the task residuals bit-for-bit.
      ++out.repair_passes;
      mult.assign(n, 0);
      for (size_t g : refine_order) mult[rep[g]] += group_mult[g];
      std::vector<double> drift(rows.size(), 0.0);
      for (size_t t = 0; t < refine_order.size(); ++t) {
        if (interrupted()) {
          out.refine_seconds += phase_timer.ElapsedSeconds();
          out.cancelled = true;
          return out;
        }
        size_t g = refine_order[t];
        std::vector<double> others(rows.size());
        for (size_t r = 0; r < rows.size(); ++r) {
          others[r] = tasks[t].others[r] + drift[r];
        }
        const solver::MilpResult* sol = &tasks[t].solution;
        solver::MilpResult fresh;
        if (others != tasks[t].others) {
          ++out.refine_ilps_solved;
          // Same group, same model structure, shifted residual ranges: the
          // task's cached root basis and pseudocost history carry over
          // (sequential pass, so borrowing the task's warm state is safe).
          solver::MilpOptions repair_milp = budgeted_milp();
          repair_milp.warm = tasks[t].warm;
          // The repair pass is sequential: each re-solve gets the whole
          // thread budget as tree parallelism.
          repair_milp.compute.threads = thread_budget;
          PB_ASSIGN_OR_RETURN(
              fresh, solver::SolveMilp(build_sub(g, others), repair_milp));
          out.lp_iterations += fresh.lp_iterations;
          out.lp_dual_iterations += fresh.lp_dual_iterations;
          out.lp_refactorizations += fresh.lp_refactorizations;
          sol = &fresh;
        }
        if (!sol->has_solution()) {
          failed_group = true;
          failed_g = g;
          break;
        }
        mult[rep[g]] -= group_mult[g];
        for (size_t r = 0; r < rows.size(); ++r) {
          drift[r] -= rows[r].w[rep[g]] * static_cast<double>(group_mult[g]);
        }
        for (size_t k = 0; k < groups[g].size(); ++k) {
          int64_t m = static_cast<int64_t>(std::llround(sol->x[k]));
          if (m == 0) continue;
          mult[groups[g][k]] += m;
          for (size_t r = 0; r < rows.size(); ++r) {
            drift[r] += rows[r].w[groups[g][k]] * static_cast<double>(m);
          }
        }
      }
      if (!failed_group) {
        pkg = package_from(mult);
        PB_ASSIGN_OR_RETURN(valid, IsValidPackage(aq, pkg));
      }
    }
    out.refine_seconds += phase_timer.ElapsedSeconds();

    if (failed_group) {
      excluded[failed_g] = true;
      ++out.backtracks;
      continue;
    }
    if (!valid) {
      // The repair pass's last group enforces exact residuals, so a fully
      // repaired package that still fails validation either missed a row
      // by solver-scale round-off (IsValidPackage compares exactly while
      // the solver accepts feas_tol slack) or broke a real invariant.
      // Distinguish the two: a round-off near-miss is an honest failed
      // attempt — and retrying is deterministic (same sketch, same
      // excluded set), so stop rather than burn backtracks on identical
      // failures — while a gross violation is surfaced as an error
      // instead of the old silent backtrack, which could only hand back
      // found=false over an invalid solve.
      constexpr double kRowSlack = 1e-5;
      bool near_valid = true;
      for (size_t r = 0; r < rows.size() && near_valid; ++r) {
        double act = 0.0;
        for (size_t i = 0; i < n; ++i) {
          if (mult[i] != 0) {
            act += rows[r].w[i] * static_cast<double>(mult[i]);
          }
        }
        double slack = kRowSlack * std::max(1.0, std::abs(act));
        near_valid =
            act >= rows[r].lo - slack && act <= rows[r].hi + slack;
      }
      if (near_valid) break;  // tolerance drift: report found == false
      return Status::Internal(
          "SketchRefine repair produced an invalid package despite exact "
          "residual propagation (solver invariant violated)");
    }
    out.found = true;
    PB_ASSIGN_OR_RETURN(out.objective, PackageObjective(aq, pkg));
    out.package = std::move(pkg);
    if (state != nullptr) {
      // Persist this call's refine results: each refined group caches the
      // residual it was solved against plus its sub-solution (the
      // task-level pair — repair re-solves depend on drift ordering and
      // are not replayable, so they are never cached). Every group is now
      // clean: memberships and representatives match what was just solved.
      for (size_t t = 0; t < refine_order.size(); ++t) {
        SketchRefineState::Group& sg = state->groups[refine_order[t]];
        sg.has_solution = true;
        sg.cached_others = std::move(tasks[t].others);
        sg.cached_solution = std::move(tasks[t].solution);
      }
      for (SketchRefineState::Group& sg : state->groups) sg.dirty = false;
    }
    return out;
  }

  return out;  // found == false: sketch/refine failed within the budget
}

}  // namespace pb::core
