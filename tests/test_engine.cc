// pb::Engine — the re-entrant facade. Covers the PR's acceptance points:
// concurrent sessions over one Engine return bit-identical packages for
// repeated queries (counter-verified result-cache hits), structurally
// identical models reuse warm-start state, budgets/deadlines/cancellation
// produce structured partial responses, and catalog mutations invalidate
// the result cache.
//
// The concurrency suites honor PB_TEST_THREADS (the TSan CI lane runs them
// with several client threads to shake out data races in the shared
// caches and the lazily built LpModel state).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "engine/engine.h"

namespace pb::engine {
namespace {

constexpr char kOptQuery[] =
    "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 AND "
    "SUM(calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(protein)";

std::unique_ptr<Engine> MakeRecipesEngine(size_t rows = 200) {
  EngineOptions options;
  options.num_threads = 2;
  auto engine = std::make_unique<Engine>(options);
  auto generated = engine->GenerateDataset("recipes", rows, 42);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return engine;
}

TEST(EngineTest, ExecutesAnOptimizationQuery) {
  auto engine = MakeRecipesEngine();
  QueryResponse r = engine->ExecuteQuery(0, kOptQuery);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.strategy, "IlpSolver");
  EXPECT_EQ(r.table, "recipes");
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_TRUE(r.has_objective);
  EXPECT_GT(r.objective, 0.0);
  EXPECT_EQ(r.package.TotalCount(), 3);
  EXPECT_FALSE(r.result_cache_hit);
  EXPECT_GT(r.nodes, 0);
  EXPECT_NE(r.model_signature, 0u);
}

TEST(EngineTest, RepeatHitsResultCacheBitIdentically) {
  auto engine = MakeRecipesEngine();
  QueryResponse first = engine->ExecuteQuery(0, kOptQuery);
  ASSERT_TRUE(first.ok());
  QueryResponse second = engine->ExecuteQuery(0, kOptQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.result_cache_hit);
  EXPECT_EQ(second.package, first.package);
  EXPECT_EQ(second.objective, first.objective);
  EXPECT_EQ(engine->stats().result_cache_hits, 1);
}

TEST(EngineTest, StructurallyIdenticalQueriesWarmStart) {
  auto engine = MakeRecipesEngine();
  // Different window bounds, same constraint/objective structure: distinct
  // result-cache keys but one StructuralSignature.
  QueryResponse a = engine->ExecuteQuery(
      0,
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 AND "
      "SUM(calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(protein)");
  QueryResponse b = engine->ExecuteQuery(
      0,
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 AND "
      "SUM(calories) BETWEEN 2100 AND 2600 MAXIMIZE SUM(protein)");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.model_signature, b.model_signature);
  EXPECT_FALSE(a.warm_start_hit);
  EXPECT_TRUE(b.warm_start_hit);
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.warm_cache_hits, 1);
  EXPECT_EQ(stats.warm_cache_misses, 1);
}

TEST(EngineTest, CatalogMutationInvalidatesResultCache) {
  auto engine = MakeRecipesEngine();
  QueryResponse first = engine->ExecuteQuery(0, kOptQuery);
  ASSERT_TRUE(first.ok());
  // Same table name, different rows: the cached package must not replay.
  ASSERT_TRUE(engine->GenerateDataset("recipes", 200, 7).ok());
  QueryResponse second = engine->ExecuteQuery(0, kOptQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.result_cache_hit);
}

TEST(EngineTest, NonTranslatableQueryDelegatesToSearch) {
  auto engine = MakeRecipesEngine(20);
  // OR in SUCH THAT is not ILP-translatable; the hybrid search answers.
  QueryResponse r = engine->ExecuteQuery(
      0,
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2 OR "
      "COUNT(*) = 3");
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_NE(r.strategy, "IlpSolver");
  EXPECT_GE(r.package.TotalCount(), 2);
}

TEST(EngineTest, ExplainNamesTheRouteTheEngineTakes) {
  // One planner drives EXPLAIN and execution: for every query shape, with
  // incremental maintenance off and on, the route EXPLAIN names is the
  // route that answers, or the fallback the plan names.
  struct Case {
    const char* paql;
    const char* route;              // incremental maintenance off
    const char* maintained_route;   // incremental maintenance on
  };
  const Case cases[] = {
      {kOptQuery, "IlpSolver", "SketchRefine"},
      {"SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 AND "
       "SUM(calories) <= 3000",
       "IlpSolver", "SketchRefine"},
      {"SELECT PACKAGE(R) FROM recipes R WHERE id <= 10 SUCH THAT "
       "COUNT(*) = 2 MAXIMIZE SUM(protein)",
       "IlpSolver", "SketchRefine"},
      {"SELECT PACKAGE(R) FROM recipes R WHERE id <= 10 SUCH THAT "
       "COUNT(*) = 2 OR COUNT(*) = 3 MAXIMIZE SUM(protein)",
       "BruteForce", "BruteForce"},
      {"SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) <= 2 AND "
       "SUM(calories) >= 1000000",
       "Pruning", "Pruning"},
  };
  QueryBudget budget;
  budget.compute.threads = pb::EnvInt("PB_TEST_THREADS", 2);
  for (bool incremental : {false, true}) {
    EngineOptions options;
    options.num_threads = budget.compute.threads;
    options.incremental_maintenance = incremental;
    Engine engine(options);
    ASSERT_TRUE(engine.GenerateDataset("recipes", 500, 42).ok());
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.paql) +
                   (incremental ? " [incremental]" : ""));
      auto plan = engine.Explain(c.paql);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const std::string route =
          core::StrategyToString(plan->chosen_strategy);
      EXPECT_EQ(route, incremental ? c.maintained_route : c.route);

      QueryResponse r = engine.ExecuteQuery(0, c.paql, budget);
      if (plan->chosen_strategy == core::Strategy::kPruning) {
        EXPECT_EQ(r.status.code(), StatusCode::kInfeasible);
      } else {
        ASSERT_TRUE(r.ok()) << r.status.ToString();
      }
      const bool fell_back =
          plan->fallback &&
          r.strategy == core::StrategyToString(*plan->fallback);
      EXPECT_TRUE(r.strategy == route || fell_back)
          << "EXPLAIN " << route << ", engine " << r.strategy;
    }
  }
}

TEST(EngineTest, UnknownSessionIsNotFound) {
  auto engine = MakeRecipesEngine(20);
  QueryResponse r = engine->ExecuteQuery(99, kOptQuery);
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(engine->CancelSession(99).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine->CloseSession(99).code(), StatusCode::kNotFound);
}

TEST(EngineTest, SessionLifecycle) {
  auto engine = MakeRecipesEngine(50);
  const uint64_t session = engine->OpenSession();
  EXPECT_GT(session, 0u);
  QueryResponse r = engine->ExecuteQuery(session, kOptQuery);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_TRUE(engine->CancelSession(session).ok());  // idle: no-op
  EXPECT_TRUE(engine->CloseSession(session).ok());
  EXPECT_EQ(engine->CloseSession(session).code(), StatusCode::kNotFound);
}

TEST(EngineTest, ExpiredDeadlineReturnsResourceExhausted) {
  auto engine = MakeRecipesEngine();
  QueryBudget budget;
  budget.time_limit_s = 1e-9;  // expires before the solver's first node
  QueryResponse r = engine->ExecuteQuery(0, kOptQuery, budget);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(r.package.empty());
}

TEST(EngineTest, PreCancelledQueryReturnsStructuredPartialStatus) {
  auto engine = MakeRecipesEngine();
  QueryBudget budget;
  budget.cancel = CancelToken::Create();
  budget.cancel.RequestCancel();
  QueryResponse r = engine->ExecuteQuery(0, kOptQuery, budget);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(r.cancelled);
  EXPECT_TRUE(r.package.empty());
}

TEST(EngineTest, CancelSessionInterruptsAnInFlightQuery) {
  EngineOptions options;
  options.num_threads = 2;
  auto engine = std::make_unique<Engine>(options);
  // Large enough that the solve runs for many seconds if uninterrupted.
  ASSERT_TRUE(engine->GenerateDataset("stocks", 4000, 3).ok());
  const uint64_t session = engine->OpenSession();

  std::atomic<bool> started{false};
  QueryResponse r;
  std::thread client([&] {
    started.store(true);
    r = engine->ExecuteQuery(
        session,
        "SELECT PACKAGE(S) FROM stocks S SUCH THAT COUNT(*) = 12 AND "
        "SUM(price) BETWEEN 5000 AND 5010 MAXIMIZE SUM(expected_gain)");
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(engine->CancelSession(session).ok());
  client.join();

  // Cancelled (the expected path) or — on an improbably fast solve —
  // complete; either way the response is well-formed, never corrupted.
  if (r.cancelled) {
    EXPECT_TRUE(!r.ok() || !r.proven_optimal);
    if (r.ok()) {
      EXPECT_FALSE(r.package.empty());  // partial incumbent, still valid
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
    }
  } else {
    EXPECT_TRUE(r.ok() || !r.status.message().empty());
  }
}

TEST(EngineTest, ConcurrentSessionsRepeatQueriesBitIdentically) {
  auto engine = MakeRecipesEngine(150);
  const int num_clients = std::max(2, EnvInt("PB_TEST_THREADS", 4));
  const int rounds = 4;
  const std::vector<std::string> queries = {
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 AND "
      "SUM(calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(protein)",
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2 "
      "MINIMIZE SUM(calories)",
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) BETWEEN 2 AND "
      "4 AND SUM(protein) >= 100 MINIMIZE SUM(fat)",
  };

  struct Observation {
    std::string fingerprint;
    double objective = 0.0;
  };
  std::vector<std::vector<std::vector<Observation>>> seen(
      num_clients,
      std::vector<std::vector<Observation>>(queries.size()));
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      const uint64_t session = engine->OpenSession();
      for (int round = 0; round < rounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          QueryResponse r = engine->ExecuteQuery(session, queries[q]);
          if (!r.ok()) {
            failures.fetch_add(1);
            continue;
          }
          seen[c][q].push_back(
              {r.package.Fingerprint(), r.objective});
        }
      }
      EXPECT_TRUE(engine->CloseSession(session).ok());
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Every observation of a query, across every client and round, must be
  // the same package: the result cache (and, under it, the deterministic
  // solver) guarantees bit-identical repeats.
  for (size_t q = 0; q < queries.size(); ++q) {
    std::set<std::string> fingerprints;
    std::set<double> objectives;
    for (int c = 0; c < num_clients; ++c) {
      for (const Observation& obs : seen[c][q]) {
        fingerprints.insert(obs.fingerprint);
        objectives.insert(obs.objective);
      }
    }
    EXPECT_EQ(fingerprints.size(), 1u) << "query " << q;
    EXPECT_EQ(objectives.size(), 1u) << "query " << q;
  }
  // The counters prove the cache carried the repeats: at most one miss
  // per query (plus races where two clients solve the same query at
  // once), and the vast majority of calls were hits.
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.queries,
            static_cast<int64_t>(num_clients) * rounds * queries.size());
  EXPECT_GT(stats.result_cache_hits, 0);
}

TEST(EngineTest, SubmitQueryRunsOnThePoolAndHonorsAdmission) {
  EngineOptions options;
  options.num_threads = 2;
  options.max_pending_queries = 0;  // reject everything: deterministic
  Engine rejecting(options);
  ASSERT_TRUE(rejecting.GenerateDataset("recipes", 30, 42).ok());
  EXPECT_FALSE(rejecting.SubmitQuery(0, kOptQuery, {},
                                     [](QueryResponse) {}));
  EXPECT_EQ(rejecting.stats().overload_rejections, 1);

  auto engine = MakeRecipesEngine(50);
  std::atomic<bool> done{false};
  QueryResponse async;
  ASSERT_TRUE(engine->SubmitQuery(0, kOptQuery, {}, [&](QueryResponse r) {
    async = std::move(r);
    done.store(true, std::memory_order_release);
  }));
  engine->pool()->Wait();
  ASSERT_TRUE(done.load(std::memory_order_acquire));
  EXPECT_TRUE(async.ok()) << async.status.ToString();
}

TEST(EngineTest, FacadeWrappersCoverTheShellSurface) {
  auto engine = MakeRecipesEngine(40);
  EXPECT_EQ(engine->TableNames(), std::vector<std::string>{"recipes"});
  auto tables = engine->Tables();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].rows, 40u);

  auto plan = engine->Explain(kOptQuery);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->ilp_translatable);

  auto packages = engine->Enumerate(
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 2 "
      "MAXIMIZE SUM(protein) LIMIT 3",
      3, /*diverse=*/false);
  ASSERT_TRUE(packages.ok()) << packages.status().ToString();
  EXPECT_GE(packages->size(), 1u);
  EXPECT_LE(packages->size(), 3u);

  auto table = engine->BaseTable(kOptQuery);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table, "recipes");
  auto objective = engine->EvaluateObjective(kOptQuery, (*packages)[0]);
  EXPECT_TRUE(objective.ok());
}

}  // namespace
}  // namespace pb::engine
