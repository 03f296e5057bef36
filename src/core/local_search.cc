#include "core/local_search.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>

#include "common/random.h"
#include "common/stopwatch.h"
#include "db/ops.h"

namespace pb::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFeasTol = 1e-9;
/// Accepted moves per restart.
constexpr int64_t kMaxIterations = 5000;

/// Incremental view of a package over the candidate list: per-linear-row
/// sums, occurrence count, and objective, all maintained in O(rows) per
/// single-tuple move.
class SearchState {
 public:
  Status Init(const paql::AnalyzedQuery& aq,
              std::vector<size_t> candidates) {
    aq_ = &aq;
    candidates_ = std::move(candidates);
    n_ = candidates_.size();
    std::vector<std::vector<double>> agg_w(aq.aggs.size());
    for (size_t a = 0; a < aq.aggs.size(); ++a) {
      PB_ASSIGN_OR_RETURN(
          agg_w[a], ComputeAggWeights(aq.aggs[a], *aq.table, candidates_));
    }
    const size_t rows = aq.linear_constraints.size();
    w_.assign(rows, std::vector<double>(n_, 0.0));
    lo_.resize(rows);
    hi_.resize(rows);
    scale_.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      const paql::LinearConstraint& lc = aq.linear_constraints[r];
      lo_[r] = lc.lo;
      hi_[r] = lc.hi;
      scale_[r] = 1.0;
      if (std::isfinite(lc.lo)) {
        scale_[r] = std::max(scale_[r], std::abs(lc.lo));
      }
      if (std::isfinite(lc.hi)) {
        scale_[r] = std::max(scale_[r], std::abs(lc.hi));
      }
      for (size_t i = 0; i < n_; ++i) {
        for (const paql::LinearAggTerm& t : lc.terms) {
          w_[r][i] += t.coeff * agg_w[t.agg_index][i];
        }
      }
    }
    obj_w_.assign(n_, 0.0);
    if (aq.has_objective && aq.objective_linear) {
      for (const paql::LinearAggTerm& t : aq.objective_terms) {
        for (size_t i = 0; i < n_; ++i) {
          obj_w_[i] += t.coeff * agg_w[t.agg_index][i];
        }
      }
    }
    // Whether linear rows fully determine validity.
    exact_linear_ = aq.ilp_translatable && aq.extreme_constraints.empty() &&
                    !aq.requires_nonempty;
    mult_.assign(n_, 0);
    sums_.assign(rows, 0.0);
    return Status::OK();
  }

  size_t n() const { return n_; }
  int64_t count() const { return count_; }
  const std::vector<int64_t>& mult() const { return mult_; }
  double objective() const { return obj_; }
  bool has_linear_objective() const { return !obj_w_.empty(); }
  double move_obj_delta(size_t add, size_t drop) const {
    return obj_w_[add] - obj_w_[drop];
  }
  double add_obj_delta(size_t add) const { return obj_w_[add]; }

  void Clear() {
    std::fill(mult_.begin(), mult_.end(), 0);
    std::fill(sums_.begin(), sums_.end(), 0.0);
    count_ = 0;
    obj_ = 0.0;
  }

  void Apply(size_t i, int64_t delta) {
    mult_[i] += delta;
    count_ += delta;
    for (size_t r = 0; r < sums_.size(); ++r) {
      sums_[r] += w_[r][i] * static_cast<double>(delta);
    }
    obj_ += obj_w_.empty() ? 0.0 : obj_w_[i] * static_cast<double>(delta);
  }

  /// Normalized violation of the linear rows at the current point.
  double Violation() const { return ViolationWith(nullptr, 0, nullptr, 0); }

  /// Violation if `add` gained `da` occurrences and `drop` lost `dd`
  /// (hypothetical move, nothing mutated). Pass null to skip a side.
  double ViolationWith(const size_t* add, int64_t da, const size_t* drop,
                       int64_t dd) const {
    double total = 0.0;
    for (size_t r = 0; r < sums_.size(); ++r) {
      double s = sums_[r];
      if (add) s += w_[r][*add] * static_cast<double>(da);
      if (drop) s -= w_[r][*drop] * static_cast<double>(dd);
      if (s < lo_[r] - kFeasTol) total += (lo_[r] - s) / scale_[r];
      if (s > hi_[r] + kFeasTol) total += (s - hi_[r]) / scale_[r];
    }
    return total;
  }

  Package ToPackage() const {
    Package pkg;
    for (size_t i = 0; i < n_; ++i) {
      if (mult_[i] > 0) pkg.Add(candidates_[i], mult_[i]);
    }
    return pkg;
  }

  /// Exact validity: linear rows plus — when they are not the whole story —
  /// the original global-constraint expression.
  Result<bool> IsValid() const {
    if (Violation() > 0) return false;
    if (exact_linear_) return true;
    return SatisfiesGlobalConstraints(*aq_, ToPackage());
  }

  const paql::AnalyzedQuery& aq() const { return *aq_; }
  const std::vector<size_t>& candidates() const { return candidates_; }

 private:
  const paql::AnalyzedQuery* aq_ = nullptr;
  std::vector<size_t> candidates_;
  size_t n_ = 0;
  std::vector<std::vector<double>> w_;
  std::vector<double> lo_, hi_, scale_, obj_w_, sums_;
  std::vector<int64_t> mult_;
  int64_t count_ = 0;
  double obj_ = 0.0;
  bool exact_linear_ = false;
};

}  // namespace

Result<LocalSearchResult> LocalSearch(const paql::AnalyzedQuery& aq,
                                      const LocalSearchOptions& options) {
  Stopwatch timer;
  LocalSearchResult out;

  PB_ASSIGN_OR_RETURN(std::vector<size_t> candidates,
                      db::FilterIndices(*aq.table, aq.query.where));
  if (candidates.empty()) {
    // Only the empty package is possible.
    SearchState probe;
    PB_RETURN_IF_ERROR(probe.Init(aq, {}));
    PB_ASSIGN_OR_RETURN(bool valid, probe.IsValid());
    out.found = valid;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }
  PB_ASSIGN_OR_RETURN(CardinalityBounds bounds,
                      DeriveCardinalityBounds(aq, candidates));
  if (bounds.infeasible) {
    out.seconds = timer.ElapsedSeconds();
    return out;  // pruning already proves there is nothing to find
  }

  SearchState state;
  PB_RETURN_IF_ERROR(state.Init(aq, std::move(candidates)));
  const size_t n = state.n();
  const int64_t max_mult = aq.max_multiplicity;
  const int64_t card_lo = std::max<int64_t>(bounds.lo, 0);
  const int64_t card_hi =
      std::min<int64_t>(bounds.hi, static_cast<int64_t>(n) * max_mult);

  Rng rng(options.seed);
  bool best_found = false;
  Package best_pkg;
  double best_obj = aq.maximize ? -kInf : kInf;

  auto obj_better = [&](double a, double b) {
    return aq.maximize ? a > b + 1e-12 : a < b - 1e-12;
  };

  for (int restart = 0; restart < options.max_restarts; ++restart) {
    if (timer.ElapsedSeconds() > options.time_limit_s) break;
    out.restarts_used = restart + 1;

    // ---- Start package: random cardinality within the pruned bounds,
    // random members (paper: "a starting package P0, which can be
    // constructed, for example, at random").
    state.Clear();
    int64_t target = card_lo == card_hi
                         ? card_lo
                         : rng.UniformInt(card_lo, std::min(card_hi,
                                                            card_lo + 64));
    target = std::max<int64_t>(target, aq.requires_nonempty ? 1 : 0);
    for (int64_t placed = 0; placed < target; ++placed) {
      size_t i = rng.Index(n);
      // Respect the multiplicity cap; linear probe for a free slot.
      for (size_t step = 0; step < n; ++step) {
        size_t j = (i + step) % n;
        if (state.mult()[j] < max_mult) {
          state.Apply(j, 1);
          break;
        }
      }
    }

    // ---- Phase 1: reduce violation; Phase 2: improve objective.
    int64_t iterations = 0;
    while (iterations < kMaxIterations &&
           timer.ElapsedSeconds() <= options.time_limit_s) {
      ++iterations;
      double current_violation = state.Violation();
      bool feasible = current_violation <= 0;
      if (feasible && !aq.has_objective) break;

      // Scan moves, first-improving, randomized start offsets.
      bool accepted = false;
      size_t member_off = rng.Index(n);
      size_t cand_off = rng.Index(n);

      // (a) single-tuple swaps: drop one occurrence of p, add one of c.
      for (size_t pi = 0; pi < n && !accepted; ++pi) {
        size_t p = (pi + member_off) % n;
        if (state.mult()[p] == 0) continue;
        for (size_t ci = 0; ci < n && !accepted; ++ci) {
          size_t c = (ci + cand_off) % n;
          if (c == p || state.mult()[c] >= max_mult) continue;
          ++out.moves_evaluated;
          double v = state.ViolationWith(&c, 1, &p, 1);
          bool improves;
          if (!feasible) {
            improves = v < current_violation - 1e-12;
          } else {
            improves = v <= 0 && state.has_linear_objective() &&
                       obj_better(state.objective() +
                                      state.move_obj_delta(c, p),
                                  state.objective());
          }
          if (improves) {
            state.Apply(p, -1);
            state.Apply(c, +1);
            accepted = true;
            ++out.moves_accepted;
          }
        }
      }

      // (b) cardinality moves: add or drop one occurrence.
      if (!accepted) {
        if (state.count() < card_hi) {
          for (size_t ci = 0; ci < n && !accepted; ++ci) {
            size_t c = (ci + cand_off) % n;
            if (state.mult()[c] >= max_mult) continue;
            ++out.moves_evaluated;
            double v = state.ViolationWith(&c, 1, nullptr, 0);
            bool improves =
                !feasible
                    ? v < current_violation - 1e-12
                    : (v <= 0 && state.has_linear_objective() &&
                       obj_better(state.objective() + state.add_obj_delta(c),
                                  state.objective()));
            if (improves && state.count() + 1 <= card_hi) {
              state.Apply(c, +1);
              accepted = true;
              ++out.moves_accepted;
            }
          }
        }
        if (!accepted && state.count() > card_lo) {
          for (size_t pi = 0; pi < n && !accepted; ++pi) {
            size_t p = (pi + member_off) % n;
            if (state.mult()[p] == 0) continue;
            ++out.moves_evaluated;
            double v = state.ViolationWith(nullptr, 0, &p, 1);
            bool improves =
                !feasible
                    ? v < current_violation - 1e-12
                    : (v <= 0 && state.has_linear_objective() &&
                       obj_better(state.objective() - state.add_obj_delta(p),
                                  state.objective()));
            if (improves && state.count() - 1 >= card_lo) {
              state.Apply(p, -1);
              accepted = true;
              ++out.moves_accepted;
            }
          }
        }
      }

      if (!accepted) break;  // local optimum for this restart
    }
    out.iterations += iterations;

    // Record the restart's outcome.
    PB_ASSIGN_OR_RETURN(bool valid, state.IsValid());
    if (valid) {
      Package pkg = state.ToPackage();
      double obj = 0.0;
      if (aq.has_objective) {
        PB_ASSIGN_OR_RETURN(obj, PackageObjective(aq, pkg));
      }
      if (!best_found || (aq.has_objective && obj_better(obj, best_obj))) {
        best_found = true;
        best_pkg = std::move(pkg);
        best_obj = obj;
      }
      if (!aq.has_objective) break;  // feasibility query answered
    }
  }

  out.found = best_found;
  if (best_found) {
    out.package = std::move(best_pkg);
    out.objective = aq.has_objective ? best_obj : 0.0;
  }
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<db::Table> FindSingleTupleReplacementsViaJoin(
    const paql::AnalyzedQuery& aq, const Package& p0) {
  if (!aq.ilp_translatable) {
    return Status::Unimplemented(
        "the join formulation requires linear global constraints");
  }
  PB_ASSIGN_OR_RETURN(std::vector<size_t> candidates,
                      db::FilterIndices(*aq.table, aq.query.where));

  // Per-row combined weights for members and candidates.
  const size_t rows = aq.linear_constraints.size();
  std::vector<std::vector<double>> agg_w(aq.aggs.size());
  for (size_t a = 0; a < aq.aggs.size(); ++a) {
    PB_ASSIGN_OR_RETURN(agg_w[a],
                        ComputeAggWeights(aq.aggs[a], *aq.table, candidates));
  }

  // Build the two relations of the paper's query: P0 (the current package)
  // and R (the candidates), each carrying the per-constraint weight columns.
  db::Schema p_schema, r_schema;
  PB_RETURN_IF_ERROR(p_schema.AddColumn({"pid", db::ValueType::kInt}));
  PB_RETURN_IF_ERROR(r_schema.AddColumn({"rid", db::ValueType::kInt}));
  for (size_t r = 0; r < rows; ++r) {
    PB_RETURN_IF_ERROR(
        p_schema.AddColumn({"pw" + std::to_string(r), db::ValueType::kDouble}));
    PB_RETURN_IF_ERROR(
        r_schema.AddColumn({"rw" + std::to_string(r), db::ValueType::kDouble}));
  }
  db::Table p_table("P0", std::move(p_schema));
  db::Table r_table("R", std::move(r_schema));

  // Map base row -> candidate position for weight lookup.
  std::vector<double> sums(rows, 0.0);
  std::unordered_map<size_t, size_t> cand_pos;
  for (size_t i = 0; i < candidates.size(); ++i) cand_pos[candidates[i]] = i;

  for (size_t m = 0; m < p0.rows.size(); ++m) {
    auto it = cand_pos.find(p0.rows[m]);
    if (it == cand_pos.end()) {
      return Status::InvalidArgument(
          "package member does not satisfy the base constraints");
    }
    db::Tuple row;
    row.push_back(db::Value::Int(static_cast<int64_t>(p0.rows[m])));
    for (size_t r = 0; r < rows; ++r) {
      double w = 0.0;
      for (const paql::LinearAggTerm& t : aq.linear_constraints[r].terms) {
        w += t.coeff * agg_w[t.agg_index][it->second];
      }
      row.push_back(db::Value::Double(w));
      sums[r] += w * static_cast<double>(p0.multiplicity[m]);
    }
    // One P0 row per distinct member (the swap removes one occurrence).
    p_table.AppendUnchecked(std::move(row));
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    db::Tuple row;
    row.push_back(db::Value::Int(static_cast<int64_t>(candidates[i])));
    for (size_t r = 0; r < rows; ++r) {
      double w = 0.0;
      for (const paql::LinearAggTerm& t : aq.linear_constraints[r].terms) {
        w += t.coeff * agg_w[t.agg_index][i];
      }
      row.push_back(db::Value::Double(w));
    }
    r_table.AppendUnchecked(std::move(row));
  }

  // The paper's predicate, generalized per linear constraint r:
  //   lo_r <= S_r - P0.pw_r + R.rw_r <= hi_r
  db::ExprPtr pred;
  for (size_t r = 0; r < rows; ++r) {
    const paql::LinearConstraint& lc = aq.linear_constraints[r];
    db::ExprPtr new_sum = db::Binary(
        db::BinaryOp::kAdd,
        db::Binary(db::BinaryOp::kSub, db::LitDouble(sums[r]),
                   db::Col("pw" + std::to_string(r))),
        db::Col("rw" + std::to_string(r)));
    if (std::isfinite(lc.lo)) {
      pred = db::AndMaybe(pred, db::Binary(db::BinaryOp::kGe,
                                           new_sum->Clone(),
                                           db::LitDouble(lc.lo)));
    }
    if (std::isfinite(lc.hi)) {
      pred = db::AndMaybe(pred, db::Binary(db::BinaryOp::kLe,
                                           std::move(new_sum),
                                           db::LitDouble(lc.hi)));
    }
  }
  // Do not "replace" a tuple with itself.
  pred = db::AndMaybe(
      pred, db::Binary(db::BinaryOp::kNe, db::Col("pid"), db::Col("rid")));

  return db::CrossJoin(p_table, r_table, pred, "replacements");
}

Result<KReplacementProbe> CountKReplacements(const paql::AnalyzedQuery& aq,
                                             const Package& p0, int k,
                                             uint64_t budget) {
  if (k < 1 || k > 3) {
    return Status::InvalidArgument("k must be 1, 2, or 3");
  }
  Stopwatch timer;
  KReplacementProbe probe;
  PB_ASSIGN_OR_RETURN(std::vector<size_t> candidates,
                      db::FilterIndices(*aq.table, aq.query.where));
  std::vector<size_t> members = p0.rows;
  const size_t np = members.size();
  const size_t nr = candidates.size();
  if (np < static_cast<size_t>(k)) return probe;

  // Enumerate k distinct members to drop and k candidates (with repetition
  // across slots but respecting multiplicity) to add; this is exactly the
  // 2k-way join of the paper.
  std::vector<size_t> drop_idx(k), add_idx(k);
  std::function<Status(int)> choose_add = [&](int depth) -> Status {
    if (probe.truncated) return Status::OK();
    if (depth == k) {
      ++probe.combinations_examined;
      if (probe.combinations_examined >= budget) {
        probe.truncated = true;
        return Status::OK();
      }
      Package trial = p0;
      for (int d = 0; d < k; ++d) trial.Remove(members[drop_idx[d]], 1);
      bool cap_ok = true;
      for (int d = 0; d < k && cap_ok; ++d) {
        trial.Add(candidates[add_idx[d]], 1);
        if (trial.MultiplicityOf(candidates[add_idx[d]]) >
            aq.max_multiplicity) {
          cap_ok = false;
        }
      }
      if (cap_ok) {
        PB_ASSIGN_OR_RETURN(bool valid, SatisfiesGlobalConstraints(aq, trial));
        if (valid) ++probe.valid_replacements;
      }
      return Status::OK();
    }
    for (size_t c = (depth == 0 ? 0 : add_idx[depth - 1]); c < nr; ++c) {
      add_idx[depth] = c;
      PB_RETURN_IF_ERROR(choose_add(depth + 1));
      if (probe.truncated) break;
    }
    return Status::OK();
  };
  std::function<Status(int, size_t)> choose_drop = [&](int depth,
                                                       size_t from) -> Status {
    if (probe.truncated) return Status::OK();
    if (depth == k) return choose_add(0);
    for (size_t p = from; p < np; ++p) {
      drop_idx[depth] = p;
      PB_RETURN_IF_ERROR(choose_drop(depth + 1, p + 1));
      if (probe.truncated) break;
    }
    return Status::OK();
  };
  PB_RETURN_IF_ERROR(choose_drop(0, 0));
  probe.seconds = timer.ElapsedSeconds();
  return probe;
}

}  // namespace pb::core
