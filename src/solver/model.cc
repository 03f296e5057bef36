#include "solver/model.h"

#include <cmath>
#include <map>
#include <sstream>

#include "common/strings.h"

namespace pb::solver {

// Copies and moves transfer only the authoritative data; caches rebuild
// lazily in the destination (see the header comment). `other`'s caches are
// deliberately not read: another thread may be filling them right now.
LpModel::LpModel(const LpModel& other)
    : variables_(other.variables_),
      constraints_(other.constraints_),
      sense_(other.sense_) {}

LpModel& LpModel::operator=(const LpModel& other) {
  if (this == &other) return *this;
  variables_ = other.variables_;
  constraints_ = other.constraints_;
  sense_ = other.sense_;
  structural_caches_valid_.store(false, std::memory_order_relaxed);
  csc_valid_.store(false, std::memory_order_relaxed);
  return *this;
}

LpModel::LpModel(LpModel&& other) noexcept
    : variables_(std::move(other.variables_)),
      constraints_(std::move(other.constraints_)),
      sense_(other.sense_) {
  other.structural_caches_valid_.store(false, std::memory_order_relaxed);
  other.csc_valid_.store(false, std::memory_order_relaxed);
}

LpModel& LpModel::operator=(LpModel&& other) noexcept {
  if (this == &other) return *this;
  variables_ = std::move(other.variables_);
  constraints_ = std::move(other.constraints_);
  sense_ = other.sense_;
  structural_caches_valid_.store(false, std::memory_order_relaxed);
  csc_valid_.store(false, std::memory_order_relaxed);
  other.structural_caches_valid_.store(false, std::memory_order_relaxed);
  other.csc_valid_.store(false, std::memory_order_relaxed);
  return *this;
}

int LpModel::AddVariable(std::string name, double lb, double ub,
                         double objective, bool is_integer) {
  if (name.empty()) name = "x" + std::to_string(variables_.size());
  variables_.push_back({std::move(name), lb, ub, objective, is_integer});
  structural_caches_valid_.store(false, std::memory_order_relaxed);
  csc_valid_.store(false, std::memory_order_relaxed);
  return static_cast<int>(variables_.size()) - 1;
}

int LpModel::AddConstraint(std::string name, std::vector<LinearTerm> terms,
                           double lo, double hi) {
  if (name.empty()) name = "c" + std::to_string(constraints_.size());
  // Merge duplicate variables and drop zeros.
  std::map<int, double> merged;
  for (const LinearTerm& t : terms) merged[t.var] += t.coeff;
  std::vector<LinearTerm> clean;
  clean.reserve(merged.size());
  for (const auto& [var, coeff] : merged) {
    if (coeff != 0.0) clean.push_back({var, coeff});
  }
  constraints_.push_back({std::move(name), std::move(clean), lo, hi});
  structural_caches_valid_.store(false, std::memory_order_relaxed);
  csc_valid_.store(false, std::memory_order_relaxed);
  return static_cast<int>(constraints_.size()) - 1;
}

namespace {

/// Fills both structural caches in one pass over the rows.
void BuildStructuralCaches(const std::vector<Variable>& variables,
                           const std::vector<Constraint>& constraints,
                           std::vector<RowActivityBounds>* acts,
                           std::vector<std::vector<RowTerm>>* vrows) {
  acts->assign(constraints.size(), RowActivityBounds{});
  vrows->assign(variables.size(), {});
  for (size_t i = 0; i < constraints.size(); ++i) {
    double lo = 0.0, hi = 0.0;
    for (const LinearTerm& t : constraints[i].terms) {
      const Variable& v = variables[t.var];
      RowActivityBounds r = TermActivityRange(t.coeff, v.lb, v.ub);
      lo += r.min;
      hi += r.max;
      (*vrows)[t.var].push_back({static_cast<int>(i), t.coeff});
    }
    (*acts)[i] = {lo, hi};
  }
}

}  // namespace

// Double-checked fill: the relaxed fast path pairs with the release store
// under cache_mu_, so a reader that sees `true` also sees the filled
// arrays; readers that lose the race park on the mutex until the fill is
// published. After publication the data is immutable until a builder call
// (which requires exclusive access anyway).
// NO_THREAD_SAFETY_ANALYSIS (here and in the two accessors below): the
// sanctioned double-checked-locking escape. The unlocked fast-path read of
// the cache array is safe because the acquire load of the valid flag pairs
// with the release store performed under cache_mu_ at fill time, and the
// data is immutable once published (builder calls require exclusive access
// and reset the flag). See docs/adr/0003-concurrency-invariants.md.
const std::vector<RowActivityBounds>& LpModel::row_activity_bounds() const
    PB_NO_THREAD_SAFETY_ANALYSIS {
  if (!structural_caches_valid_.load(std::memory_order_acquire)) {
    MutexLock lock(&cache_mu_);
    if (!structural_caches_valid_.load(std::memory_order_relaxed)) {
      BuildStructuralCaches(variables_, constraints_, &row_activity_cache_,
                            &variable_rows_cache_);
      structural_caches_valid_.store(true, std::memory_order_release);
    }
  }
  return row_activity_cache_;
}

const std::vector<std::vector<RowTerm>>& LpModel::variable_rows() const
    PB_NO_THREAD_SAFETY_ANALYSIS {
  if (!structural_caches_valid_.load(std::memory_order_acquire)) {
    MutexLock lock(&cache_mu_);
    if (!structural_caches_valid_.load(std::memory_order_relaxed)) {
      BuildStructuralCaches(variables_, constraints_, &row_activity_cache_,
                            &variable_rows_cache_);
      structural_caches_valid_.store(true, std::memory_order_release);
    }
  }
  return variable_rows_cache_;
}

const CscMatrix& LpModel::csc() const PB_NO_THREAD_SAFETY_ANALYSIS {
  if (!csc_valid_.load(std::memory_order_acquire)) {
    MutexLock lock(&cache_mu_);
    if (csc_valid_.load(std::memory_order_relaxed)) return csc_cache_;
    // Two row-major passes: count entries per column, then fill. Scanning
    // rows in order 0..m-1 leaves every column's row indices ascending,
    // which the sparse LU's symbolic phase relies on.
    CscMatrix& a = csc_cache_;
    const int n = num_variables();
    a.col_start.assign(n + 1, 0);
    for (const Constraint& c : constraints_) {
      for (const LinearTerm& t : c.terms) ++a.col_start[t.var + 1];
    }
    for (int j = 0; j < n; ++j) a.col_start[j + 1] += a.col_start[j];
    a.row.assign(static_cast<size_t>(a.col_start[n]), 0);
    a.value.assign(static_cast<size_t>(a.col_start[n]), 0.0);
    std::vector<int64_t> next(a.col_start.begin(), a.col_start.end() - 1);
    for (size_t i = 0; i < constraints_.size(); ++i) {
      for (const LinearTerm& t : constraints_[i].terms) {
        int64_t k = next[t.var]++;
        a.row[k] = static_cast<int32_t>(i);
        a.value[k] = t.coeff;
      }
    }
    csc_valid_.store(true, std::memory_order_release);
  }
  return csc_cache_;
}

bool LpModel::has_integer_variables() const {
  for (const Variable& v : variables_) {
    if (v.is_integer) return true;
  }
  return false;
}

Status LpModel::Validate() const {
  if (variables_.empty()) {
    return Status::InvalidArgument("model has no variables");
  }
  for (size_t j = 0; j < variables_.size(); ++j) {
    const Variable& v = variables_[j];
    if (std::isnan(v.lb) || std::isnan(v.ub) || v.lb == kInfinity ||
        v.ub == -kInfinity) {
      return Status::InvalidArgument("variable '" + v.name +
                                     "' has a NaN, +inf lower or -inf upper "
                                     "bound");
    }
    if (v.lb > v.ub) {
      return Status::Infeasible("variable '" + v.name + "' has lb > ub");
    }
  }
  for (const Constraint& c : constraints_) {
    if (std::isnan(c.lo) || std::isnan(c.hi) || c.lo == kInfinity ||
        c.hi == -kInfinity) {
      return Status::InvalidArgument("constraint '" + c.name +
                                     "' has a NaN, +inf lower or -inf upper "
                                     "bound");
    }
    if (c.lo > c.hi) {
      return Status::Infeasible("constraint '" + c.name + "' has lo > hi");
    }
    for (const LinearTerm& t : c.terms) {
      if (t.var < 0 || t.var >= num_variables()) {
        return Status::InvalidArgument("constraint '" + c.name +
                                       "' references unknown variable");
      }
      if (!std::isfinite(t.coeff)) {
        return Status::InvalidArgument("constraint '" + c.name +
                                       "' has a non-finite coefficient");
      }
    }
  }
  return Status::OK();
}

double LpModel::ObjectiveValue(const std::vector<double>& x) const {
  double obj = 0.0;
  for (size_t j = 0; j < variables_.size() && j < x.size(); ++j) {
    obj += variables_[j].objective * x[j];
  }
  return obj;
}

double LpModel::Activity(int i, const std::vector<double>& x) const {
  double a = 0.0;
  for (const LinearTerm& t : constraints_[i].terms) a += t.coeff * x[t.var];
  return a;
}

bool LpModel::IsFeasible(const std::vector<double>& x, double tol) const {
  if (x.size() != variables_.size()) return false;
  for (size_t j = 0; j < variables_.size(); ++j) {
    if (x[j] < variables_[j].lb - tol || x[j] > variables_[j].ub + tol) {
      return false;
    }
  }
  for (int i = 0; i < num_constraints(); ++i) {
    double a = Activity(i, x);
    if (a < constraints_[i].lo - tol || a > constraints_[i].hi + tol) {
      return false;
    }
  }
  return true;
}

uint64_t LpModel::StructuralSignature() const {
  // FNV-1a over the structural facts warm-start state depends on.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(variables_.size()));
  mix(static_cast<uint64_t>(constraints_.size()));
  mix(sense_ == ObjectiveSense::kMaximize ? 0x9e3779b9ULL : 0x85ebca6bULL);
  for (const Variable& v : variables_) mix(v.is_integer ? 2u : 1u);
  for (const Constraint& c : constraints_) {
    mix(static_cast<uint64_t>(c.terms.size()));
    for (const LinearTerm& t : c.terms) {
      mix(static_cast<uint64_t>(t.var) + 0x9e3779b97f4a7c15ULL);
    }
  }
  return h;
}

namespace {
std::string BoundToLp(double v) {
  if (v == kInfinity) return "+inf";
  if (v == -kInfinity) return "-inf";
  return FormatDouble(v);
}
}  // namespace

std::string LpModel::ToLpFormat() const {
  std::ostringstream out;
  out << (sense_ == ObjectiveSense::kMaximize ? "Maximize" : "Minimize")
      << "\n obj:";
  for (size_t j = 0; j < variables_.size(); ++j) {
    const Variable& v = variables_[j];
    if (v.objective == 0.0) continue;
    out << (v.objective >= 0 ? " + " : " - ")
        << FormatDouble(std::abs(v.objective)) << " " << v.name;
  }
  out << "\nSubject To\n";
  for (const Constraint& c : constraints_) {
    // Ranged rows are emitted as two inequalities for maximum portability.
    auto emit = [&](const char* suffix, const char* op, double rhs) {
      out << " " << c.name << suffix << ":";
      for (const LinearTerm& t : c.terms) {
        out << (t.coeff >= 0 ? " + " : " - ")
            << FormatDouble(std::abs(t.coeff)) << " "
            << variables_[t.var].name;
      }
      out << " " << op << " " << FormatDouble(rhs) << "\n";
    };
    if (c.lo == c.hi) {
      emit("", "=", c.lo);
    } else {
      if (c.lo != -kInfinity) emit("_lo", ">=", c.lo);
      if (c.hi != kInfinity) emit("_hi", "<=", c.hi);
    }
  }
  out << "Bounds\n";
  for (const Variable& v : variables_) {
    out << " " << BoundToLp(v.lb) << " <= " << v.name
        << " <= " << BoundToLp(v.ub) << "\n";
  }
  bool any_int = false;
  for (const Variable& v : variables_) {
    if (v.is_integer) {
      if (!any_int) {
        out << "General\n";
        any_int = true;
      }
      out << " " << v.name << "\n";
    }
  }
  out << "End\n";
  return out.str();
}

}  // namespace pb::solver
