// Heuristic local search (paper §4.2).
//
// Starting from a (random or greedy) package P0, the engine scans k-tuple
// replacements that reduce constraint violation, then — once feasible —
// replacements that improve the objective. The paper implements the 1-tuple
// scan as a single SQL query over P0 x R; this module provides both that
// literal formulation (FindSingleTupleReplacementsViaJoin, used by the E2
// bench and by adaptive exploration) and an optimized in-memory scan with
// incremental aggregate maintenance.
//
// Each step tries single-tuple swaps, then add-one / drop-one moves ("the
// query can be modified to explore packages of different cardinalities",
// §4.2); once feasible, it hill-climbs the objective. As the paper notes,
// k simultaneous replacements correspond to a 2k-way join and "quickly
// become intractable"; the search therefore stays at k = 1, and the
// CountKReplacements probe exists to reproduce that blow-up.

#ifndef PB_CORE_LOCAL_SEARCH_H_
#define PB_CORE_LOCAL_SEARCH_H_

#include <cstdint>

#include "common/status.h"
#include "core/package.h"
#include "core/pruning.h"
#include "db/table.h"

namespace pb::core {

struct LocalSearchOptions {
  uint64_t seed = 42;
  int max_restarts = 8;
  double time_limit_s = 10.0;
};

struct LocalSearchResult {
  bool found = false;          ///< a valid package was reached
  Package package;
  double objective = 0.0;
  int restarts_used = 0;
  int64_t iterations = 0;      ///< total improvement steps across restarts
  int64_t moves_evaluated = 0; ///< candidate moves examined
  int64_t moves_accepted = 0;
  double seconds = 0.0;
};

/// Runs restart-based greedy local search. Exact for feasibility claims
/// (the returned package is re-validated) but — per the paper — incomplete:
/// !found does not prove infeasibility.
Result<LocalSearchResult> LocalSearch(const paql::AnalyzedQuery& aq,
                                      const LocalSearchOptions& options = {});

/// The paper's literal replacement finder: builds P0 and R as engine tables
/// and evaluates the single-tuple-swap validity predicate as one
/// selection over their cartesian product, returning (package_row,
/// replacement_row) pairs that lead to valid packages. Only supports
/// ILP-translatable queries (the predicate must be linear).
Result<db::Table> FindSingleTupleReplacementsViaJoin(
    const paql::AnalyzedQuery& aq, const Package& p0);

/// Cost probe for the 2k-way-join claim: counts valid k-replacements by
/// nested enumeration, stopping after `budget` combination evaluations.
/// Returns the number of combinations examined (== budget when truncated).
struct KReplacementProbe {
  uint64_t combinations_examined = 0;
  uint64_t valid_replacements = 0;
  bool truncated = false;
  double seconds = 0.0;
};
Result<KReplacementProbe> CountKReplacements(const paql::AnalyzedQuery& aq,
                                             const Package& p0, int k,
                                             uint64_t budget);

}  // namespace pb::core

#endif  // PB_CORE_LOCAL_SEARCH_H_
