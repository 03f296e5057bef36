#include "ui/explore.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/local_search.h"
#include "core/translator.h"
#include "db/ops.h"

namespace pb::ui {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

ExplorationSession::ExplorationSession(const paql::AnalyzedQuery* aq,
                                       ExploreOptions options)
    : aq_(aq), options_(options), next_seed_(options.seed) {}

Status ExplorationSession::Start() {
  core::QueryEvaluator evaluator(nullptr);  // catalog not needed: aq is bound
  PB_ASSIGN_OR_RETURN(core::EvaluationResult r,
                      evaluator.Evaluate(*aq_, options_.evaluation));
  sample_ = std::move(r.package);
  history_.push_back(sample_.Fingerprint());
  rounds_ = 1;
  return Status::OK();
}

Status ExplorationSession::Lock(size_t base_row) {
  if (sample_.MultiplicityOf(base_row) == 0) {
    return Status::InvalidArgument(
        "row " + std::to_string(base_row) + " is not in the current sample");
  }
  locked_.insert(base_row);
  return Status::OK();
}

Status ExplorationSession::Unlock(size_t base_row) {
  if (locked_.erase(base_row) == 0) {
    return Status::NotFound("row " + std::to_string(base_row) +
                            " is not locked");
  }
  return Status::OK();
}

Result<core::Package> ExplorationSession::SolveWithLocks() {
  const paql::AnalyzedQuery& aq = *aq_;
  if (aq.IlpEligible()) {
    PB_ASSIGN_OR_RETURN(core::IlpTranslation translation,
                        core::TranslateToIlp(aq));
    // Lock: x_i >= multiplicity the user kept (capped by REPEAT).
    for (size_t locked_row : locked_) {
      bool found = false;
      for (size_t j = 0; j < translation.candidates.size(); ++j) {
        if (translation.candidates[j] == locked_row) {
          int64_t keep =
              std::min(sample_.MultiplicityOf(locked_row),
                       aq.max_multiplicity);
          translation.model.mutable_variable(static_cast<int>(j)).lb =
              static_cast<double>(std::max<int64_t>(keep, 1));
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument(
            "locked row no longer satisfies the base constraints");
      }
    }
    // No-good cuts: exclude recent samples (binary case only; with REPEAT
    // the solver may legitimately return a multiplicity variant).
    if (aq.max_multiplicity == 1) {
      // Cut the current sample directly (the requirement is "replace the
      // unselected tuples with something new").
      std::vector<solver::LinearTerm> terms;
      double rhs = -1.0;
      for (size_t j = 0; j < translation.candidates.size(); ++j) {
        bool in_pkg = sample_.MultiplicityOf(translation.candidates[j]) > 0;
        terms.push_back({static_cast<int>(j), in_pkg ? 1.0 : -1.0});
        if (in_pkg) rhs += 1.0;
      }
      translation.model.AddConstraint("exclude_current", std::move(terms),
                                      -kInf, rhs);
    }
    PB_ASSIGN_OR_RETURN(
        solver::MilpResult r,
        solver::SolveMilp(translation.model, options_.evaluation.milp));
    if (!r.has_solution()) {
      return Status::Infeasible(
          "no alternative package keeps all locked tuples");
    }
    return core::DecodeSolution(translation, r.x);
  }

  // Heuristic path: restart local search until a package contains the
  // locked tuples and differs from the current sample.
  core::LocalSearchOptions ls = options_.evaluation.local_search;
  for (int attempt = 0; attempt < 8; ++attempt) {
    ls.seed = next_seed_++;
    PB_ASSIGN_OR_RETURN(core::LocalSearchResult r, core::LocalSearch(aq, ls));
    if (!r.found) continue;
    bool keeps_locked = true;
    for (size_t row : locked_) {
      if (r.package.MultiplicityOf(row) == 0) {
        keeps_locked = false;
        break;
      }
    }
    if (keeps_locked && r.package.Fingerprint() != sample_.Fingerprint()) {
      return r.package;
    }
  }
  return Status::Infeasible(
      "local search found no alternative package keeping the locked tuples");
}

Status ExplorationSession::Resample() {
  PB_ASSIGN_OR_RETURN(core::Package pkg, SolveWithLocks());
  sample_ = std::move(pkg);
  history_.push_back(sample_.Fingerprint());
  if (history_.size() > options_.history_window * 2) {
    history_.erase(history_.begin(),
                   history_.end() - options_.history_window);
  }
  ++rounds_;
  return Status::OK();
}

Result<std::vector<Suggestion>> ExplorationSession::InferConstraints() const {
  std::vector<Suggestion> out;
  if (locked_.empty()) return out;
  const db::Table& table = *aq_->table;

  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    const std::string& col = table.schema().column(c).name;
    // Numeric columns: BETWEEN [min, max] of the locked rows.
    double mn = kInf, mx = -kInf;
    bool numeric = true;
    bool string_common = true;
    // at() returns a materialized Value, so the common string is kept by
    // value rather than by pointer into the table.
    std::optional<db::Value> common;
    for (size_t row : locked_) {
      const db::Value v = table.at(row, c);
      if (v.is_numeric()) {
        double d = v.is_int() ? static_cast<double>(v.AsInt())
                              : v.AsDoubleExact();
        mn = std::min(mn, d);
        mx = std::max(mx, d);
        string_common = false;
      } else if (v.is_string()) {
        numeric = false;
        if (!common) {
          common = v;
        } else if (common->Compare(v) != 0) {
          string_common = false;
        }
      } else {
        numeric = false;
        string_common = false;
      }
    }
    if (numeric && mn <= mx) {
      Suggestion s;
      s.kind = Suggestion::Kind::kBaseConstraint;
      s.base = db::Between(db::Col(col), db::LitDouble(mn), db::LitDouble(mx));
      s.paql = s.base->ToString();
      s.description = "each tuple's " + col + " should stay between " +
                      db::Value::Double(mn).ToString() + " and " +
                      db::Value::Double(mx).ToString() +
                      " (the range of your selected tuples)";
      out.push_back(std::move(s));
    } else if (string_common && common) {
      Suggestion s;
      s.kind = Suggestion::Kind::kBaseConstraint;
      s.base = db::Binary(db::BinaryOp::kEq, db::Col(col),
                          db::LitString(common->AsString()));
      s.paql = s.base->ToString();
      s.description = "every selected tuple has " + col + " = '" +
                      common->AsString() + "'; keep only such tuples";
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace pb::ui
