// Incremental package maintenance under appends (HTAP).
//
// Core level: SketchRefineState routing / split / merge invariants and the
// bit-identity contract — a maintained (incremental) solve must equal a
// cold re-solve over the same maintained partition, reuse only removes
// work. Engine level: the result cache's third state (revalidation), the
// append path, and the spilled-table full-invalidation fallback.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/evaluator.h"
#include "core/sketch_refine.h"
#include "datagen/recipes.h"
#include "db/catalog.h"
#include "engine/engine.h"
#include "paql/analyzer.h"

namespace pb::core {
namespace {

paql::AnalyzedQuery Analyzed(const db::Catalog& c, const std::string& t) {
  auto aq = paql::ParseAndAnalyze(t, c);
  EXPECT_TRUE(aq.ok()) << aq.status().ToString();
  return std::move(aq).value();
}

/// Appends `count` duplicates of the base table's first rows — duplicate
/// points land exactly on existing feature coordinates, so routing is
/// maximally stable (representatives rarely move).
void AppendDuplicates(db::Catalog* c, const std::string& name, size_t count) {
  auto table_or = c->GetMutable(name);
  ASSERT_TRUE(table_or.ok()) << table_or.status().ToString();
  db::Table* table = *table_or;
  std::vector<db::Tuple> rows;
  for (size_t i = 0; i < count; ++i) rows.push_back(table->row(i));
  ASSERT_TRUE(table->AppendRows(std::move(rows)).ok());
}

constexpr char kRecipesQuery[] =
    "SELECT PACKAGE(R) FROM recipes R "
    "SUCH THAT COUNT(*) = 6 AND "
    "SUM(calories) BETWEEN 2400 AND 3600 "
    "MAXIMIZE SUM(protein)";

// ----- Routing determinism ---------------------------------------------------

TEST(IncrementalTest, AppendRouteDeterministicAcrossThreadCounts) {
  // Two identically-fed states, solved at 1 thread and at PB_TEST_THREADS,
  // must agree on everything: the maintained partition, the counters, and
  // the package bit-for-bit (routing and split/merge are single-threaded;
  // the solves are thread-count-invariant).
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(400, 17));
  auto aq = Analyzed(c, kRecipesQuery);

  SketchRefineOptions opts;
  opts.partition_size = 50;
  SketchRefineState serial_state, parallel_state;

  opts.state = &serial_state;
  opts.compute.threads = 1;
  auto s1 = SketchRefine(aq, opts);
  ASSERT_TRUE(s1.ok() && s1->found) << s1.status().ToString();

  opts.state = &parallel_state;
  opts.compute.threads = pb::EnvInt("PB_TEST_THREADS", 8);
  auto p1 = SketchRefine(aq, opts);
  ASSERT_TRUE(p1.ok() && p1->found) << p1.status().ToString();
  EXPECT_EQ(s1->package, p1->package);

  AppendDuplicates(&c, "recipes", 4);
  aq = Analyzed(c, kRecipesQuery);

  opts.state = &serial_state;
  opts.compute.threads = 1;
  auto s2 = SketchRefine(aq, opts);
  ASSERT_TRUE(s2.ok() && s2->found) << s2.status().ToString();
  EXPECT_TRUE(s2->state_reused);
  EXPECT_EQ(s2->appended_routed, 4);

  opts.state = &parallel_state;
  opts.compute.threads = pb::EnvInt("PB_TEST_THREADS", 8);
  auto p2 = SketchRefine(aq, opts);
  ASSERT_TRUE(p2.ok() && p2->found) << p2.status().ToString();

  EXPECT_EQ(s2->package, p2->package)
      << s2->package.Fingerprint() << " vs " << p2->package.Fingerprint();
  EXPECT_EQ(s2->objective, p2->objective);
  EXPECT_EQ(s2->dirty_groups, p2->dirty_groups);
  EXPECT_EQ(s2->groups_reused, p2->groups_reused);
  EXPECT_EQ(s2->lp_iterations, p2->lp_iterations);
  ASSERT_EQ(serial_state.groups.size(), parallel_state.groups.size());
  for (size_t g = 0; g < serial_state.groups.size(); ++g) {
    EXPECT_EQ(serial_state.groups[g].members, parallel_state.groups[g].members)
        << "group " << g << " routed differently";
    EXPECT_EQ(serial_state.groups[g].rep, parallel_state.groups[g].rep);
  }
}

// ----- Maintained partition invariants --------------------------------------

TEST(IncrementalTest, MaintainedPartitionCoversAllCandidatesExactlyOnce) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(300, 23));
  auto aq = Analyzed(c, kRecipesQuery);

  SketchRefineOptions opts;
  opts.partition_size = 32;
  SketchRefineState state;
  opts.state = &state;
  ASSERT_TRUE(SketchRefine(aq, opts).ok());

  AppendDuplicates(&c, "recipes", 10);
  aq = Analyzed(c, kRecipesQuery);
  auto r = SketchRefine(aq, opts);
  ASSERT_TRUE(r.ok() && r->found) << r.status().ToString();
  EXPECT_TRUE(r->state_reused);

  std::set<size_t> seen;
  for (const auto& g : state.groups) {
    ASSERT_FALSE(g.members.empty());
    for (size_t m : g.members) {
      EXPECT_TRUE(seen.insert(m).second) << "candidate " << m << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), 310u);
  EXPECT_EQ(state.n_candidates, 310u);
}

// ----- Split / merge thresholds ----------------------------------------------

class ThresholdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Schema schema;
    ASSERT_TRUE(
        schema.AddColumn({"value", db::ValueType::kDouble}).ok());
    db::Table t("items", schema);
    for (int i = 0; i < 64; ++i) {
      t.StartRow().Double(static_cast<double>(i)).Finish();
    }
    catalog_.RegisterOrReplace(std::move(t));
  }

  paql::AnalyzedQuery Query() {
    return Analyzed(catalog_,
                    "SELECT PACKAGE(T) FROM items T "
                    "SUCH THAT COUNT(*) = 2 AND SUM(value) <= 100000 "
                    "MAXIMIZE SUM(value)");
  }

  void AppendValues(const std::vector<double>& values) {
    auto table_or = catalog_.GetMutable("items");
    ASSERT_TRUE(table_or.ok());
    std::vector<db::Tuple> rows;
    for (double v : values) rows.push_back({db::Value::Double(v)});
    ASSERT_TRUE((*table_or)->AppendRows(std::move(rows)).ok());
  }

  db::Catalog catalog_;
};

TEST_F(ThresholdTest, GroupSplitsPastThreshold) {
  auto aq = Query();
  SketchRefineOptions opts;
  opts.partition_size = 16;  // default split threshold = 32
  SketchRefineState state;
  opts.state = &state;
  auto r1 = SketchRefine(aq, opts);
  ASSERT_TRUE(r1.ok() && r1->found) << r1.status().ToString();
  const size_t groups_before = state.groups.size();

  // 40 duplicates of value 0.0 all route to one group, pushing it far past
  // the 2 * tau split threshold: the same maintained call must re-split it.
  AppendValues(std::vector<double>(40, 0.0));
  aq = Query();
  auto r2 = SketchRefine(aq, opts);
  ASSERT_TRUE(r2.ok() && r2->found) << r2.status().ToString();
  EXPECT_TRUE(r2->state_reused);
  EXPECT_EQ(r2->appended_routed, 40);
  EXPECT_GE(r2->groups_split, 1);
  EXPECT_GT(state.groups.size(), groups_before);
  for (const auto& g : state.groups) {
    EXPECT_LE(g.members.size(), 32u) << "a group exceeds the split threshold";
  }
}

TEST_F(ThresholdTest, FarAppendStartsSingletonThenMergeAbsorbsIt) {
  auto aq = Query();
  SketchRefineOptions opts;
  opts.partition_size = 16;
  SketchRefineState state;
  opts.state = &state;
  auto r1 = SketchRefine(aq, opts);
  ASSERT_TRUE(r1.ok() && r1->found) << r1.status().ToString();
  const size_t groups_before = state.groups.size();

  // A point far outside the frozen feature range, with a tight routing
  // radius: it must start its own singleton group instead of stretching
  // the nearest one.
  AppendValues({100000.0});
  aq = Query();
  opts.route_max_distance = 0.5;
  auto r2 = SketchRefine(aq, opts);
  ASSERT_TRUE(r2.ok() && r2->found) << r2.status().ToString();
  EXPECT_EQ(r2->appended_routed, 1);
  EXPECT_EQ(state.groups.size(), groups_before + 1);

  // Now allow merging: the singleton (< merge_min_size) folds into its
  // nearest neighbour.
  opts.route_max_distance = 0.0;
  opts.merge_min_size = 4;
  auto r3 = SketchRefine(aq, opts);
  ASSERT_TRUE(r3.ok() && r3->found) << r3.status().ToString();
  EXPECT_GE(r3->groups_merged, 1);
  EXPECT_EQ(state.groups.size(), groups_before);
  std::set<size_t> seen;
  for (const auto& g : state.groups) {
    for (size_t m : g.members) seen.insert(m);
  }
  EXPECT_EQ(seen.size(), 65u) << "merge lost or duplicated candidates";
}

// ----- Bit-identity ----------------------------------------------------------

TEST(IncrementalTest, IncrementalSolveBitIdenticalToColdOverSamePartition) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(400, 41));
  auto aq = Analyzed(c, kRecipesQuery);

  SketchRefineOptions opts;
  opts.partition_size = 50;
  SketchRefineState state;
  opts.state = &state;
  auto r1 = SketchRefine(aq, opts);
  ASSERT_TRUE(r1.ok() && r1->found) << r1.status().ToString();

  AppendDuplicates(&c, "recipes", 4);
  aq = Analyzed(c, kRecipesQuery);

  // The cold baseline: the SAME maintained partition with every cached
  // sub-solution and warm start dropped — what a from-scratch re-solve of
  // this partition would do.
  SketchRefineState cold_state = state;

  auto incremental = SketchRefine(aq, opts);
  ASSERT_TRUE(incremental.ok() && incremental->found)
      << incremental.status().ToString();

  cold_state.InvalidateSolutions();
  for (auto& g : cold_state.groups) g.dirty = true;
  SketchRefineOptions cold_opts = opts;
  cold_opts.state = &cold_state;
  cold_opts.reuse_group_solutions = false;
  auto cold = SketchRefine(aq, cold_opts);
  ASSERT_TRUE(cold.ok() && cold->found) << cold.status().ToString();

  EXPECT_EQ(incremental->package, cold->package)
      << incremental->package.Fingerprint() << " vs "
      << cold->package.Fingerprint();
  EXPECT_EQ(incremental->objective, cold->objective);
  EXPECT_TRUE(*IsValidPackage(aq, incremental->package));
  EXPECT_EQ(cold->groups_reused, 0);
  EXPECT_LE(incremental->lp_iterations, cold->lp_iterations);
}

TEST(IncrementalTest, CleanRepeatReusesEveryGroup) {
  // No append between calls: every group is clean and every residual
  // repeats, so the second call must answer the whole refine phase from
  // cached sub-solutions.
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateRecipes(400, 17));
  auto aq = Analyzed(c, kRecipesQuery);

  SketchRefineOptions opts;
  opts.partition_size = 50;
  SketchRefineState state;
  opts.state = &state;
  auto r1 = SketchRefine(aq, opts);
  ASSERT_TRUE(r1.ok() && r1->found) << r1.status().ToString();
  EXPECT_FALSE(r1->state_reused);
  EXPECT_EQ(r1->groups_reused, 0);

  auto r2 = SketchRefine(aq, opts);
  ASSERT_TRUE(r2.ok() && r2->found) << r2.status().ToString();
  EXPECT_TRUE(r2->state_reused);
  EXPECT_EQ(r2->dirty_groups, 0);
  EXPECT_GT(r2->groups_reused, 0);
  EXPECT_EQ(r2->package, r1->package);
  EXPECT_EQ(r2->objective, r1->objective);
}

}  // namespace
}  // namespace pb::core

namespace pb::engine {
namespace {

EngineOptions IncrementalOptions(bool reuse) {
  EngineOptions o;
  o.num_threads = 2;
  o.incremental_maintenance = true;
  o.maintenance_reuse_solutions = reuse;
  o.sketch_partition_size = 50;
  return o;
}

constexpr char kEngineQuery[] =
    "SELECT PACKAGE(R) FROM recipes R "
    "SUCH THAT COUNT(*) = 6 AND "
    "SUM(calories) BETWEEN 2400 AND 3600 "
    "MAXIMIZE SUM(protein)";

std::vector<db::Tuple> DuplicateRows(size_t n, uint64_t seed, size_t count) {
  const db::Table base = datagen::GenerateRecipes(n, seed);
  std::vector<db::Tuple> rows;
  for (size_t i = 0; i < count; ++i) rows.push_back(base.row(i));
  return rows;
}

TEST(EngineIncrementalTest, RevalidatedCacheBitIdenticalToColdReSolve) {
  // Engine A: maintained path with reuse. Engine B: identical history with
  // reuse off (every group re-solved cold). The revalidated answer after an
  // append must match B's bit-for-bit, with counters proving A skipped
  // solver work.
  Engine a(IncrementalOptions(/*reuse=*/true));
  Engine b(IncrementalOptions(/*reuse=*/false));
  for (Engine* e : {&a, &b}) {
    ASSERT_TRUE(e->GenerateDataset("recipes", 400, 7).ok());
    QueryResponse first = e->ExecuteQuery(0, kEngineQuery);
    ASSERT_TRUE(first.ok()) << first.status.ToString();
    EXPECT_EQ(first.strategy, "SketchRefine");
    EXPECT_EQ(first.table_rows, 400u);
  }

  // Unchanged catalog: the cached result replays without any solve.
  QueryResponse cached = a.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.result_cache_hit);
  EXPECT_FALSE(cached.revalidated);

  for (Engine* e : {&a, &b}) {
    auto outcome = e->AppendRows("recipes", DuplicateRows(400, 7, 4));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->rows, 4u);
    EXPECT_EQ(outcome->table_rows, 404u);
    EXPECT_FALSE(outcome->full_invalidation);
  }

  QueryResponse reval = a.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(reval.ok()) << reval.status.ToString();
  EXPECT_FALSE(reval.result_cache_hit);
  EXPECT_TRUE(reval.revalidated);
  EXPECT_EQ(reval.table_rows, 404u);
  EXPECT_GT(reval.groups_reused, 0) << "append dirtied every group";
  EXPECT_GT(reval.dirty_groups, 0);
  EXPECT_GE(reval.maintenance_ms, 0.0);

  QueryResponse cold = b.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(cold.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.groups_reused, 0);
  EXPECT_EQ(reval.package, cold.package)
      << reval.package.Fingerprint() << " vs " << cold.package.Fingerprint();
  EXPECT_EQ(reval.objective, cold.objective);
  // Reuse elides solver work: the revalidation must be cheaper than the
  // cold re-solve on the substrate-cost metric.
  EXPECT_LT(reval.lp_iterations, cold.lp_iterations);

  EXPECT_EQ(a.stats().revalidations, 1);
  EXPECT_EQ(a.stats().appends, 1);
  EXPECT_EQ(a.stats().rows_appended, 4);

  // The refreshed entry is cached again: an immediate repeat is a plain
  // hit that replays the revalidated package.
  QueryResponse again = a.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.result_cache_hit);
  EXPECT_EQ(again.package, reval.package);
}

TEST(EngineIncrementalTest, ThreadBudgetDoesNotChangeMaintainedAnswer) {
  const int threads = pb::EnvInt("PB_TEST_THREADS", 8);
  Engine serial(IncrementalOptions(true));
  Engine parallel(IncrementalOptions(true));
  QueryBudget serial_budget, parallel_budget;
  serial_budget.compute.threads = 1;
  parallel_budget.compute.threads = threads;

  for (Engine* e : {&serial, &parallel}) {
    ASSERT_TRUE(e->GenerateDataset("recipes", 400, 17).ok());
  }
  QueryResponse s1 = serial.ExecuteQuery(0, kEngineQuery, serial_budget);
  QueryResponse p1 = parallel.ExecuteQuery(0, kEngineQuery, parallel_budget);
  ASSERT_TRUE(s1.ok() && p1.ok());
  EXPECT_EQ(s1.package, p1.package);

  for (Engine* e : {&serial, &parallel}) {
    ASSERT_TRUE(e->AppendRows("recipes", DuplicateRows(400, 17, 4)).ok());
  }
  QueryResponse s2 = serial.ExecuteQuery(0, kEngineQuery, serial_budget);
  QueryResponse p2 = parallel.ExecuteQuery(0, kEngineQuery, parallel_budget);
  ASSERT_TRUE(s2.ok() && p2.ok());
  EXPECT_TRUE(s2.revalidated);
  EXPECT_TRUE(p2.revalidated);
  EXPECT_EQ(s2.package, p2.package)
      << s2.package.Fingerprint() << " vs " << p2.package.Fingerprint();
  EXPECT_EQ(s2.objective, p2.objective);
}

TEST(EngineIncrementalTest, SpilledAppendFallsBackToFullInvalidation) {
  Engine e(IncrementalOptions(true));
  ASSERT_TRUE(e.GenerateDataset("recipes", 300, 23).ok());
  QueryResponse before = e.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(before.ok()) << before.status.ToString();

  ASSERT_TRUE(e.SpillTable("recipes").ok());
  auto outcome = e.AppendRows("recipes", DuplicateRows(300, 23, 5));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->full_invalidation);
  EXPECT_EQ(outcome->table_rows, 305u);
  EXPECT_EQ(e.stats().maintenance_full_invalidations, 1);

  // The generation bump invalidated the cached result AND the maintained
  // partition: the re-run is a fresh (non-revalidated) solve over the
  // unspilled, appended table.
  QueryResponse after = e.ExecuteQuery(0, kEngineQuery);
  ASSERT_TRUE(after.ok()) << after.status.ToString();
  EXPECT_FALSE(after.result_cache_hit);
  EXPECT_FALSE(after.revalidated);
  EXPECT_EQ(after.table_rows, 305u);
}

TEST(EngineIncrementalTest, AppendBatchIsAllOrNothing) {
  Engine e(IncrementalOptions(true));
  ASSERT_TRUE(e.GenerateDataset("recipes", 50, 3).ok());
  std::vector<db::Tuple> rows = DuplicateRows(50, 3, 2);
  rows.push_back({db::Value::Int(1)});  // wrong arity
  auto outcome = e.AppendRows("recipes", std::move(rows));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  // Nothing committed: the valid prefix must not have landed.
  for (const auto& info : e.Tables()) {
    if (info.name == "recipes") EXPECT_EQ(info.rows, 50u);
  }
  EXPECT_EQ(e.stats().appends, 0);
}

}  // namespace
}  // namespace pb::engine
