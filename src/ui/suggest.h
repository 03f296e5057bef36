// Constraint suggestion (paper §3.1): "As a user interacts with the
// template by highlighting elements in the sample package, PACKAGEBUILDER
// suggests constraints. For example, when the user selects a cell within
// the 'fats' column, the system proposes several constraints that would
// restrict the amount of fat in each meal, and objectives that would
// minimize the total amount of fat."
//
// This module is the backend of that interaction: given a highlight target
// (cell / column / row) over the current sample package, it produces ranked
// suggestions — base constraints, global constraints, and objectives — each
// carrying both its PaQL spelling and a natural-language description.

#ifndef PB_UI_SUGGEST_H_
#define PB_UI_SUGGEST_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/package.h"
#include "paql/ast.h"

namespace pb::ui {

/// What the user highlighted in the sample-package table.
struct Highlight {
  enum class Kind { kCell, kColumn, kRow };
  Kind kind = Kind::kCell;
  /// Position within the *sample package* (not the base table).
  size_t package_position = 0;  // for kCell / kRow
  std::string column;           // for kCell / kColumn
};

/// One proposed refinement of the query.
struct Suggestion {
  enum class Kind { kBaseConstraint, kGlobalConstraint, kObjective };
  Kind kind = Kind::kBaseConstraint;
  /// PaQL fragment ("R.fat <= 30", "SUM(P.fat) <= 120", "MINIMIZE SUM(P.fat)").
  std::string paql;
  /// English rendering shown next to the control (Figure 1's natural
  /// language descriptions).
  std::string description;
  /// Parsed forms, ready to merge into a Query (exactly one is set,
  /// matching `kind`).
  db::ExprPtr base;
  paql::GExprPtr global;
  std::optional<paql::Objective> objective;
};

/// Produces up to 12 suggestions for a highlight over `sample` (a package
/// against `table`); range suggestions span the observed value +/- 20%.
/// Fails only on unknown columns / invalid positions.
Result<std::vector<Suggestion>> SuggestConstraints(
    const db::Table& table, const core::Package& sample,
    const Highlight& highlight);

/// Merges a suggestion into a query: base constraints AND-extend WHERE,
/// global constraints AND-extend SUCH THAT, objectives replace the
/// objective.
void ApplySuggestion(const Suggestion& suggestion, paql::Query* query);

}  // namespace pb::ui

#endif  // PB_UI_SUGGEST_H_
