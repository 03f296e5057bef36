// Meal planner: the paper's demo scenario (§7) end to end — the package
// template (§3.1), constraint suggestions on a highlighted column, adaptive
// exploration with locked tuples (§3.3), and the package-space visual
// summary (§3.2), all on the athlete's meal-plan query.

#include <cstdio>

#include "core/enumerator.h"
#include "core/evaluator.h"
#include "datagen/recipes.h"
#include "db/catalog.h"
#include "paql/analyzer.h"
#include "ui/explore.h"
#include "ui/suggest.h"
#include "ui/summary.h"
#include "ui/template.h"

namespace {

void Fail(const pb::Status& s) {
  std::printf("error: %s\n", s.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main() {
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateRecipes(800, /*seed=*/7));

  auto aq = pb::paql::ParseAndAnalyze(R"(
      SELECT PACKAGE(R) AS P
      FROM Recipes R
      WHERE R.gluten = 'free'
      SUCH THAT COUNT(*) = 3 AND
                SUM(P.calories) BETWEEN 2000 AND 2500
      MAXIMIZE SUM(P.protein)
  )",
                                      catalog);
  if (!aq.ok()) Fail(aq.status());

  // ---- The package template with an initial sample (§3.1).
  pb::core::QueryEvaluator evaluator(&catalog);
  auto initial = evaluator.Evaluate(*aq);
  if (!initial.ok()) Fail(initial.status());
  auto screen = pb::ui::RenderPackageTemplate(*aq, initial->package);
  if (!screen.ok()) Fail(screen.status());
  std::printf("%s\n", screen->c_str());

  // ---- Highlighting the "fat" column produces suggestions (§3.1 / Fig 1).
  pb::ui::Highlight h;
  h.kind = pb::ui::Highlight::Kind::kCell;
  h.package_position = 0;
  h.column = "fat";
  auto suggestions =
      pb::ui::SuggestConstraints(*aq->table, initial->package, h);
  if (!suggestions.ok()) Fail(suggestions.status());
  std::printf("-- Suggestions after highlighting a 'fat' cell --\n");
  for (const auto& s : *suggestions) {
    std::printf("  [%s] %s\n       \"%s\"\n",
                s.kind == pb::ui::Suggestion::Kind::kBaseConstraint
                    ? "base"
                    : (s.kind == pb::ui::Suggestion::Kind::kGlobalConstraint
                           ? "global"
                           : "objective"),
                s.paql.c_str(), s.description.c_str());
  }

  // ---- Adaptive exploration (§3.3): keep the best tuple, resample twice.
  std::printf("\n-- Adaptive exploration --\n");
  pb::ui::ExplorationSession session(&*aq);
  if (auto s = session.Start(); !s.ok()) Fail(s);
  size_t keeper = session.sample().rows[0];
  std::printf("locking recipe row %zu and resampling...\n", keeper);
  if (auto s = session.Lock(keeper); !s.ok()) Fail(s);
  for (int round = 0; round < 2; ++round) {
    if (auto s = session.Resample(); !s.ok()) {
      std::printf("  no further alternatives: %s\n", s.ToString().c_str());
      break;
    }
    std::printf("  round %zu sample: %s\n", session.rounds(),
                session.sample().Fingerprint().c_str());
  }
  auto inferred = session.InferConstraints();
  if (inferred.ok() && !inferred->empty()) {
    std::printf("inferred from your selection: %s\n",
                (*inferred)[0].description.c_str());
  }

  // ---- The package-space summary (§3.2) over enumerated packages.
  std::printf("\n-- Package space (found so far) --\n");
  auto packages = pb::core::EnumerateViaSolver(*aq, [&] {
    pb::core::EnumerateOptions o;
    o.max_packages = 30;
    return o;
  }());
  if (!packages.ok()) Fail(packages.status());
  auto summary = pb::ui::SummarizePackageSpace(*aq, *packages);
  if (!summary.ok()) Fail(summary.status());
  int highlight = summary->NearestPackage(
      summary->points.empty() ? 0 : summary->points[0].first,
      summary->points.empty() ? 0 : summary->points[0].second);
  std::printf("%zu packages enumerated; '@' marks the current one\n%s\n",
              packages->size(), summary->Render(highlight).c_str());
  return 0;
}
