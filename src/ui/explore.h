// Adaptive exploration (paper §3.3): "PACKAGEBUILDER initially presents a
// sample package that satisfies a few basic constraints. Users can then
// select good tuples within the sample, and request a new sample that
// replaces the unselected tuples. Users can repeat this process until they
// reach the ideal package. PACKAGEBUILDER uses these selections to narrow
// the search space as well as to identify additional package constraints."
//
// The session keeps the current sample and the set of locked (user-
// selected) tuples. Resample() finds a fresh valid package that (a) keeps
// every locked tuple and (b) differs from the current sample — implemented
// with lower-bound fixings plus a no-good cut on the solver path, and with
// a locked-core local search otherwise. InferConstraints() turns the locked
// tuples into suggested base constraints (the "identify additional package
// constraints" half).

#ifndef PB_UI_EXPLORE_H_
#define PB_UI_EXPLORE_H_

#include <set>
#include <vector>

#include "common/status.h"
#include "core/package.h"
#include "ui/suggest.h"

namespace pb::ui {

/// One trial-and-error query-building session.
class ExplorationSession {
 public:
  /// Binds the session to an analyzed query. `aq` must outlive the session.
  explicit ExplorationSession(const paql::AnalyzedQuery* aq);

  /// Finds the initial sample package.
  Status Start();

  const core::Package& sample() const { return sample_; }
  const std::set<size_t>& locked_rows() const { return locked_; }
  size_t rounds() const { return rounds_; }

  /// Locks/unlocks a base-table row of the current sample.
  Status Lock(size_t base_row);
  Status Unlock(size_t base_row);

  /// Replaces the unselected tuples: finds a valid package containing all
  /// locked tuples and differing from the current sample. Returns
  /// kInfeasible when no such package exists.
  Status Resample();

  /// Suggested base constraints generalizing the locked tuples: numeric
  /// attributes become BETWEEN [min, max] over the locked rows; categorical
  /// attributes shared by all locked rows become equality predicates.
  Result<std::vector<Suggestion>> InferConstraints() const;

 private:
  Result<core::Package> SolveWithLocks();

  const paql::AnalyzedQuery* aq_;
  core::Package sample_;
  std::set<size_t> locked_;
  size_t rounds_ = 0;
  uint64_t next_seed_ = 42;  // local-search seed of the next resample
};

}  // namespace pb::ui

#endif  // PB_UI_EXPLORE_H_
