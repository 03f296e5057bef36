// Package-space visual summary (paper §3.2): "The system analyzes the
// current query specification and selects two dimensions to visually layout
// the valid packages along. Users can use the visual summary to navigate
// through the available packages by selecting glyphs that represent them."
//
// The backend work is (a) scoring candidate dimensions — one per aggregate
// the query mentions, plus the objective — and picking the most informative
// uncorrelated pair, and (b) producing the 2-D layout plus a glyph grid.

#ifndef PB_UI_SUMMARY_H_
#define PB_UI_SUMMARY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/package.h"

namespace pb::ui {

/// One candidate layout dimension: an aggregate evaluated per package.
struct SummaryDimension {
  std::string label;   ///< "SUM(calories)", "COUNT(*)", "objective"
  paql::AggCall agg;
};

/// The computed layout.
struct PackageSpaceSummary {
  SummaryDimension x_dim, y_dim;
  /// Per-package coordinates in (x_dim, y_dim) space, parallel to the input
  /// package list.
  std::vector<std::pair<double, double>> points;
  /// Glyph grid size (columns x rows).
  static constexpr size_t kGridWidth = 24;
  static constexpr size_t kGridHeight = 12;
  /// Glyph counts bucketed on the grid (row-major, kGridHeight rows).
  std::vector<int> grid = std::vector<int>(kGridWidth * kGridHeight, 0);
  double x_min = 0, x_max = 0, y_min = 0, y_max = 0;

  /// Index of the package whose point is nearest to (x, y) — the backend of
  /// "selecting glyphs". Returns -1 when empty.
  int NearestPackage(double x, double y) const;

  /// ASCII rendering of the grid (digit = package count, '*' for >9), with
  /// the highlighted package marked '@'.
  std::string Render(int highlight_package = -1) const;
};

/// Builds the summary for a set of valid packages found so far. Dimensions
/// are taken from the query's aggregates; the best-spread, least-correlated
/// pair is chosen. Requires at least one numeric dimension; with only one,
/// the y axis falls back to COUNT(*).
Result<PackageSpaceSummary> SummarizePackageSpace(
    const paql::AnalyzedQuery& aq, const std::vector<core::Package>& packages);

}  // namespace pb::ui

#endif  // PB_UI_SUMMARY_H_
