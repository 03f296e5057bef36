// Tests for the interface abstractions (§3): constraint suggestion,
// package-space summary, adaptive exploration, and the package template.

#include <gtest/gtest.h>

#include "core/enumerator.h"
#include "core/evaluator.h"
#include "datagen/recipes.h"
#include "db/catalog.h"
#include "paql/analyzer.h"
#include "ui/explore.h"
#include "ui/suggest.h"
#include "ui/summary.h"
#include "ui/template.h"

namespace pb::ui {
namespace {

class UiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.RegisterOrReplace(datagen::GenerateRecipes(80, /*seed=*/31));
  }

  paql::AnalyzedQuery Analyzed(const std::string& text) {
    auto aq = paql::ParseAndAnalyze(text, catalog_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    return std::move(aq).value();
  }

  core::Package SamplePackage(const paql::AnalyzedQuery& aq) {
    core::QueryEvaluator ev(&catalog_);
    auto r = ev.Evaluate(aq);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->package;
  }

  db::Catalog catalog_;
};

// ----- Suggestions (§3.1) ----------------------------------------------------

TEST_F(UiTest, CellHighlightOnNumericColumnSuggestsFatStyleConstraints) {
  // The paper's example interaction: selecting a cell in the "fats" column
  // proposes per-meal fat restrictions and a minimize-total-fat objective.
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3");
  core::Package sample = SamplePackage(aq);
  Highlight h;
  h.kind = Highlight::Kind::kCell;
  h.package_position = 0;
  h.column = "fat";
  auto suggestions = SuggestConstraints(*aq.table, sample, h);
  ASSERT_TRUE(suggestions.ok()) << suggestions.status().ToString();
  bool has_base = false, has_global = false, has_minimize = false;
  for (const Suggestion& s : *suggestions) {
    if (s.kind == Suggestion::Kind::kBaseConstraint) has_base = true;
    if (s.kind == Suggestion::Kind::kGlobalConstraint) has_global = true;
    if (s.kind == Suggestion::Kind::kObjective &&
        s.objective->sense == paql::ObjectiveSense::kMinimize) {
      has_minimize = true;
    }
    EXPECT_FALSE(s.paql.empty());
    EXPECT_FALSE(s.description.empty());
  }
  EXPECT_TRUE(has_base);
  EXPECT_TRUE(has_global);
  EXPECT_TRUE(has_minimize);
}

TEST_F(UiTest, CellHighlightOnStringColumnSuggestsEquality) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3");
  core::Package sample = SamplePackage(aq);
  Highlight h;
  h.kind = Highlight::Kind::kCell;
  h.package_position = 0;
  h.column = "cuisine";
  auto suggestions = SuggestConstraints(*aq.table, sample, h);
  ASSERT_TRUE(suggestions.ok());
  ASSERT_GE(suggestions->size(), 2u);
  EXPECT_NE((*suggestions)[0].paql.find("cuisine ="), std::string::npos);
  EXPECT_NE((*suggestions)[1].paql.find("cuisine <>"), std::string::npos);
}

TEST_F(UiTest, RowHighlightSuggestsMoreLikeThis) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3");
  core::Package sample = SamplePackage(aq);
  Highlight h;
  h.kind = Highlight::Kind::kRow;
  h.package_position = 1;
  auto suggestions = SuggestConstraints(*aq.table, sample, h);
  ASSERT_TRUE(suggestions.ok());
  EXPECT_FALSE(suggestions->empty());
  for (const Suggestion& s : *suggestions) {
    EXPECT_EQ(s.kind, Suggestion::Kind::kBaseConstraint);
  }
}

TEST_F(UiTest, InvalidHighlightPositionFails) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3");
  core::Package sample = SamplePackage(aq);
  Highlight h;
  h.kind = Highlight::Kind::kCell;
  h.package_position = 999;
  h.column = "fat";
  EXPECT_EQ(SuggestConstraints(*aq.table, sample, h).status().code(),
            StatusCode::kOutOfRange);
  h.package_position = 0;
  h.column = "nonexistent";
  EXPECT_EQ(SuggestConstraints(*aq.table, sample, h).status().code(),
            StatusCode::kNotFound);
}

TEST_F(UiTest, ApplySuggestionExtendsQueryAndStaysEvaluable) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3");
  core::Package sample = SamplePackage(aq);
  Highlight h;
  h.kind = Highlight::Kind::kCell;
  h.package_position = 0;
  h.column = "calories";
  auto suggestions = SuggestConstraints(*aq.table, sample, h);
  ASSERT_TRUE(suggestions.ok());
  ASSERT_FALSE(suggestions->empty());

  paql::Query q = aq.query;
  size_t applied = 0;
  for (const Suggestion& s : *suggestions) {
    if (s.kind == Suggestion::Kind::kBaseConstraint ||
        s.kind == Suggestion::Kind::kObjective) {
      ApplySuggestion(s, &q);
      ++applied;
      if (applied == 2) break;
    }
  }
  ASSERT_GE(applied, 1u);
  // The refined query must re-analyze cleanly.
  auto re = paql::Analyze(q, catalog_);
  ASSERT_TRUE(re.ok()) << re.status().ToString() << "\n" << q.ToPaql();
}

// ----- Summary (§3.2) --------------------------------------------------------

TEST_F(UiTest, SummaryPicksTwoDimensionsAndBucketsPackages) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 2 AND SUM(calories) <= 1400 "
      "MAXIMIZE SUM(protein)");
  auto packages = core::EnumerateViaSolver(aq, [&] {
    core::EnumerateOptions o;
    o.max_packages = 12;
    return o;
  }());
  ASSERT_TRUE(packages.ok()) << packages.status().ToString();
  ASSERT_GE(packages->size(), 3u);
  auto summary = SummarizePackageSpace(aq, *packages);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->points.size(), packages->size());
  EXPECT_NE(summary->x_dim.label, summary->y_dim.label);
  // Every package landed in some grid cell.
  int total = 0;
  for (int c : summary->grid) total += c;
  EXPECT_EQ(total, static_cast<int>(packages->size()));
}

TEST_F(UiTest, SummaryNearestPackageAndRender) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 2 AND SUM(calories) <= 1400 "
      "MAXIMIZE SUM(protein)");
  auto packages = core::EnumerateViaSolver(aq, [&] {
    core::EnumerateOptions o;
    o.max_packages = 6;
    return o;
  }());
  ASSERT_TRUE(packages.ok());
  ASSERT_GE(packages->size(), 2u);
  auto summary = SummarizePackageSpace(aq, *packages);
  ASSERT_TRUE(summary.ok());
  // The nearest package to an existing point is that point.
  int idx = summary->NearestPackage(summary->points[0].first,
                                    summary->points[0].second);
  EXPECT_EQ(idx, 0);
  std::string art = summary->Render(idx);
  EXPECT_NE(art.find('@'), std::string::npos);
  EXPECT_NE(art.find(summary->x_dim.label), std::string::npos);
}

TEST_F(UiTest, SummaryEmptyPackageListIsGraceful) {
  auto aq = Analyzed("SELECT PACKAGE(R) FROM recipes R");
  auto summary = SummarizePackageSpace(aq, {});
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->points.empty());
  EXPECT_EQ(summary->NearestPackage(0, 0), -1);
}

// ----- Adaptive exploration (§3.3) -------------------------------------------

TEST_F(UiTest, ExplorationLockAndResampleKeepsLockedTuples) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 1000 AND 2500");
  ExplorationSession session(&aq);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_EQ(session.sample().TotalCount(), 3);

  size_t locked_row = session.sample().rows[0];
  ASSERT_TRUE(session.Lock(locked_row).ok());
  std::string before = session.sample().Fingerprint();
  Status s = session.Resample();
  ASSERT_TRUE(s.ok()) << s.ToString();
  // Locked tuple kept, sample changed.
  EXPECT_GE(session.sample().MultiplicityOf(locked_row), 1);
  EXPECT_NE(session.sample().Fingerprint(), before);
  EXPECT_EQ(session.rounds(), 2u);
  auto valid = core::IsValidPackage(aq, session.sample());
  ASSERT_TRUE(valid.ok());
  EXPECT_TRUE(*valid);
}

TEST_F(UiTest, ExplorationLockValidation) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2");
  ExplorationSession session(&aq);
  ASSERT_TRUE(session.Start().ok());
  EXPECT_FALSE(session.Lock(99999).ok());
  EXPECT_FALSE(session.Unlock(12345).ok());
  size_t row = session.sample().rows[0];
  ASSERT_TRUE(session.Lock(row).ok());
  ASSERT_TRUE(session.Unlock(row).ok());
}

TEST_F(UiTest, ExplorationInfersConstraintsFromLockedTuples) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 3");
  ExplorationSession session(&aq);
  ASSERT_TRUE(session.Start().ok());
  for (size_t row : session.sample().rows) {
    ASSERT_TRUE(session.Lock(row).ok());
  }
  auto inferred = session.InferConstraints();
  ASSERT_TRUE(inferred.ok());
  ASSERT_FALSE(inferred->empty());
  // All locked tuples are gluten-free: expect the equality inference.
  bool found_gluten = false;
  for (const Suggestion& s : *inferred) {
    if (s.paql.find("gluten = 'free'") != std::string::npos) {
      found_gluten = true;
    }
    EXPECT_EQ(s.kind, Suggestion::Kind::kBaseConstraint);
  }
  EXPECT_TRUE(found_gluten);
}

TEST_F(UiTest, ExplorationNoAlternativeIsInfeasible) {
  // A query with a unique solution cannot resample to something new.
  db::Table t("tiny", db::Schema({{"v", db::ValueType::kDouble}}));
  ASSERT_TRUE(t.Append({db::Value::Double(10)}).ok());
  ASSERT_TRUE(t.Append({db::Value::Double(999)}).ok());
  db::Catalog c;
  c.RegisterOrReplace(std::move(t));
  auto aq = paql::ParseAndAnalyze(
      "SELECT PACKAGE(T) FROM tiny T SUCH THAT SUM(v) BETWEEN 5 AND 20", c);
  ASSERT_TRUE(aq.ok());
  ExplorationSession session(&*aq);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(session.Lock(session.sample().rows[0]).ok());
  EXPECT_EQ(session.Resample().code(), StatusCode::kInfeasible);
}

// ----- Template (§3.1 rendering) ---------------------------------------------

TEST_F(UiTest, TemplateRendersConstraintsAndAggregates) {
  auto aq = Analyzed(
      "SELECT PACKAGE(R) FROM recipes R WHERE gluten = 'free' "
      "SUCH THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 1000 AND 2500 "
      "MAXIMIZE SUM(protein)");
  core::Package sample = SamplePackage(aq);
  auto text = RenderPackageTemplate(aq, sample);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Base constraints"), std::string::npos);
  EXPECT_NE(text->find("Global constraints"), std::string::npos);
  EXPECT_NE(text->find("the number of tuples must be exactly 3"),
            std::string::npos);
  EXPECT_NE(text->find("Objective"), std::string::npos);
  EXPECT_NE(text->find("COUNT(*) = 3"), std::string::npos);
  EXPECT_NE(text->find("Sample package (3 tuples)"), std::string::npos);
}

}  // namespace
}  // namespace pb::ui
