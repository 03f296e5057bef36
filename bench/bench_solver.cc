// E7 — Solver substrate microbenchmarks.
//
// The engine's "state-of-the-art constraint solver" stand-in must be fast
// enough that the strategy comparison (E3) measures the algorithms, not the
// substrate. Reported: simplex time/iterations vs variable count on
// package-shaped LPs (few rows, many columns), branch-and-bound node counts
// on knapsack-style ILPs, the LP engine's factorization work, and the
// solver ablations (anti-cycling fallback, warm starts, dual child
// re-solves, node presolve).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/sketch_refine.h"
#include "core/translator.h"
#include "datagen/lineitem.h"
#include "db/catalog.h"
#include "engine/engine.h"
#include "paql/analyzer.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace {

using pb::solver::kInfinity;
using pb::solver::LinearTerm;
using pb::solver::LpModel;
using pb::solver::MilpOptions;
using pb::solver::ObjectiveSense;
using pb::solver::SimplexOptions;

/// A package-shaped LP/ILP: n binary(-relaxed) columns, a handful of rows.
/// `shift` drifts the constraint ranges without changing the structure —
/// the SketchRefine-repair re-solve pattern the cross-solve bench uses.
LpModel PackageShapedLp(int n, uint64_t seed, bool integer = false,
                        double shift = 0.0) {
  pb::Rng rng(seed);
  LpModel m;
  std::vector<LinearTerm> count, weight, cost;
  for (int j = 0; j < n; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), integer);
    count.push_back({j, 1.0});
    weight.push_back({j, rng.UniformReal(100.0, 900.0)});
    cost.push_back({j, rng.UniformReal(1.0, 50.0)});
  }
  m.AddConstraint("count", count, 5, 5);
  m.AddConstraint("weight", weight, 2000 + shift, 2600 + shift);
  m.AddConstraint("cost", cost, -kInfinity, 120 + shift / 100.0);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

void BM_SimplexPackageShaped(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpModel m = PackageShapedLp(n, 3);
  int64_t iters = 0;
  for (auto _ : state) {
    auto r = pb::solver::SolveLp(m);
    if (!r.ok() || r->status != pb::solver::LpStatus::kOptimal) {
      state.SkipWithError("LP not optimal");
      return;
    }
    iters = r->iterations;
  }
  state.counters["n"] = n;
  // Named lp_iterations (not "iterations") so it neither collides with
  // Google Benchmark's builtin JSON field nor escapes the regression gate.
  state.counters["lp_iterations"] = static_cast<double>(iters);
}
BENCHMARK(BM_SimplexPackageShaped)
    ->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_SimplexPricingAblation(benchmark::State& state) {
  const bool bland = state.range(0) != 0;
  LpModel m = PackageShapedLp(2000, 7);
  SimplexOptions opts;
  opts.always_bland = bland;
  int64_t iters = 0;
  for (auto _ : state) {
    auto r = pb::solver::SolveLp(m, opts);
    if (!r.ok() || r->status != pb::solver::LpStatus::kOptimal) {
      state.SkipWithError("LP not optimal");
      return;
    }
    iters = r->iterations;
  }
  state.SetLabel(bland ? "bland" : "devex");
  state.counters["lp_iterations"] = static_cast<double>(iters);
}
BENCHMARK(BM_SimplexPricingAblation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The LP engine on one mid-size package LP: lp_iterations is the devex
// path length and refactorizations/basis_updates the factorization-layer
// work the regression gate tracks. (docs/adr/0005-one-lp-engine.md keeps
// the retired dense-inverse and Dantzig arms' numbers.)
void BM_SimplexEngine(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpModel m = PackageShapedLp(n, 7);
  double iters = 0, refactors = 0, updates = 0, objective = 0;
  for (auto _ : state) {
    auto r = pb::solver::SolveLp(m);
    if (!r.ok() || r->status != pb::solver::LpStatus::kOptimal) {
      state.SkipWithError("LP not optimal");
      return;
    }
    iters = static_cast<double>(r->iterations);
    refactors = static_cast<double>(r->refactorizations);
    updates = static_cast<double>(r->basis_updates);
    objective = r->objective;
  }
  state.counters["lp_iterations"] = iters;
  state.counters["refactorizations"] = refactors;
  state.counters["basis_updates"] = updates;
  state.counters["objective"] = objective;
}
BENCHMARK(BM_SimplexEngine)->Arg(5000)->Unit(benchmark::kMillisecond);

/// The scale workload (mirrored by tests/slow/test_sparse_scale.cc): n
/// candidates in n/256 groups, a global COUNT row plus one cardinality row
/// per group — 2n nonzeros, n/256 + 1 rows. Row counts in the thousands
/// are exactly where an explicit inverse's O(m^2)-per-solve /
/// O(m^3)-per-refactorization wall sits; the sparse LU keeps this matrix
/// fill-free and solves the million-variable relaxation in seconds.
LpModel ScaleLp(int n, uint64_t seed) {
  const int groups = n / 256;
  pb::Rng rng(seed);
  LpModel m;
  std::vector<LinearTerm> count;
  std::vector<std::vector<LinearTerm>> group_rows(groups);
  for (int j = 0; j < n; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), false);
    count.push_back({j, 1.0});
    group_rows[j % groups].push_back({j, 1.0});
  }
  const double k = groups / 4.0;
  m.AddConstraint("count", std::move(count), k, k);
  for (int g = 0; g < groups; ++g) {
    m.AddConstraint("group" + std::to_string(g), std::move(group_rows[g]),
                    -kInfinity, 1.0);
  }
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

// Scale headline: the sparse LU walks up to a million variables (4097
// rows).
void BM_SparseSimplexScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpModel m = ScaleLp(n, 42);
  double iters = 0, refactors = 0, objective = 0;
  for (auto _ : state) {
    auto r = pb::solver::SolveLp(m);
    if (!r.ok() || r->status != pb::solver::LpStatus::kOptimal) {
      state.SkipWithError("LP not optimal");
      return;
    }
    iters = static_cast<double>(r->iterations);
    refactors = static_cast<double>(r->refactorizations);
    objective = r->objective;
  }
  state.counters["n"] = n;
  state.counters["lp_iterations"] = iters;
  state.counters["refactorizations"] = refactors;
  state.counters["objective"] = objective;
}
BENCHMARK(BM_SparseSimplexScale)
    ->Arg(65536)->Arg(262144)->Arg(1048576)
    ->Unit(benchmark::kMillisecond);

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  pb::Rng rng(11);
  LpModel m;
  std::vector<LinearTerm> cap;
  double total_w = 0;
  for (int j = 0; j < n; ++j) {
    double w = rng.UniformReal(1.0, 30.0);
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  w * rng.UniformReal(0.8, 1.2), true);  // correlated: hard
    cap.push_back({j, w});
    total_w += w;
  }
  m.AddConstraint("cap", cap, -kInfinity, total_w / 2);
  m.SetSense(ObjectiveSense::kMaximize);
  double nodes = 0;
  for (auto _ : state) {
    MilpOptions opts;
    opts.time_limit_s = 30.0;
    auto r = pb::solver::SolveMilp(m, opts);
    if (!r.ok() || !r->has_solution()) {
      state.SkipWithError("MILP failed");
      return;
    }
    nodes = static_cast<double>(r->nodes);
  }
  state.counters["n"] = n;
  state.counters["bnb_nodes"] = nodes;
}
BENCHMARK(BM_MilpKnapsack)->Arg(20)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

/// The tight-window package ILP the warm-start and child-resolve
/// ablations share (two-sided ranges: real branch-and-bound work).
LpModel TightWindowPackageIlp() {
  pb::Rng rng(17);
  LpModel m;
  std::vector<LinearTerm> count, weight, price;
  for (int j = 0; j < 400; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), true);
    count.push_back({j, 1.0});
    weight.push_back({j, rng.UniformReal(100.0, 900.0)});
    price.push_back({j, rng.UniformReal(1.0, 50.0)});
  }
  m.AddConstraint("count", count, 8, 8);
  m.AddConstraint("weight", weight, 3600, 3700);
  m.AddConstraint("price", price, 120, 160);
  m.SetSense(ObjectiveSense::kMaximize);
  return m;
}

// Warm-vs-cold ablation on a package-shaped ILP. Warm is the full default
// path (basis inheritance, pseudocost branching, dual child re-solves,
// node presolve); cold pins every knob off — the faithful pre-warm-start
// solver, kept bit-comparable with the PR 3 baseline JSON. Same model,
// same optimum (asserted); the iterations counter is the comparison.
void BM_MilpWarmStartAblation(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  LpModel m = TightWindowPackageIlp();
  double iters = 0, nodes = 0, objective = 0;
  for (auto _ : state) {
    MilpOptions opts;
    opts.warm_start_lps = warm;
    if (!warm) {
      // The faithful old cold path: no propagation either.
      opts.lp.use_dual_simplex = false;
      opts.node_presolve = false;
    }
    opts.max_nodes = 20000;
    opts.time_limit_s = 60.0;
    auto r = pb::solver::SolveMilp(m, opts);
    if (!r.ok() || !r->has_solution()) {
      state.SkipWithError("MILP failed");
      return;
    }
    iters = static_cast<double>(r->lp_iterations);
    nodes = static_cast<double>(r->nodes);
    objective = r->objective;
  }
  state.SetLabel(warm ? "warm" : "cold");
  state.counters["lp_iterations"] = iters;
  state.counters["bnb_nodes"] = nodes;
  state.counters["objective"] = objective;
}
BENCHMARK(BM_MilpWarmStartAblation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Child re-solve engine ablation, all arms warm-started: warm_primal is
// the PR 3 baseline (every child repaired by the composite phase 1),
// warm_dual re-optimizes children with the dual simplex, and
// warm_dual_presolve adds bound propagation before each child LP (the
// default path). Optima are bit-identical across arms; lp_iterations /
// lp_dual_iterations and the presolve counters are the comparison — the
// acceptance bar is >= 2x fewer simplex iterations than warm_primal.
void BM_MilpChildResolveAblation(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  LpModel m = TightWindowPackageIlp();
  double iters = 0, dual_iters = 0, nodes = 0, objective = 0;
  double fixed = 0, pruned = 0;
  for (auto _ : state) {
    MilpOptions opts;
    opts.lp.use_dual_simplex = mode >= 1;
    opts.node_presolve = mode >= 2;
    opts.max_nodes = 20000;
    opts.time_limit_s = 60.0;
    auto r = pb::solver::SolveMilp(m, opts);
    if (!r.ok() || !r->has_solution()) {
      state.SkipWithError("MILP failed");
      return;
    }
    iters = static_cast<double>(r->lp_iterations);
    dual_iters = static_cast<double>(r->lp_dual_iterations);
    nodes = static_cast<double>(r->nodes);
    objective = r->objective;
    fixed = static_cast<double>(r->presolve_fixed_bounds);
    pruned = static_cast<double>(r->presolve_infeasible_children);
  }
  state.SetLabel(mode == 0   ? "warm_primal"
                 : mode == 1 ? "warm_dual"
                             : "warm_dual_presolve");
  state.counters["lp_iterations"] = iters;
  state.counters["lp_dual_iterations"] = dual_iters;
  state.counters["bnb_nodes"] = nodes;
  state.counters["objective"] = objective;
  state.counters["presolve_fixed_bounds"] = fixed;
  state.counters["presolve_infeasible_children"] = pruned;
}
BENCHMARK(BM_MilpChildResolveAblation)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Node-presolve ablation on a propagation-heavy shape: small COUNT = k
// over integer weights with a half-open SUM window, so branched children
// frequently become infeasible by bound propagation alone and COUNT
// saturation fixes implied binaries. Same optimum both ways (asserted);
// presolve cuts both the node count and the LP iterations.
void BM_MilpNodePresolveAblation(benchmark::State& state) {
  const bool presolve = state.range(0) != 0;
  pb::Rng rng(21);
  LpModel m;
  std::vector<LinearTerm> count, weight;
  for (int j = 0; j < 60; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), true);
    count.push_back({j, 1.0});
    weight.push_back({j, std::floor(rng.UniformReal(100.0, 900.0))});
  }
  m.AddConstraint("count", count, 3, 3);
  m.AddConstraint("weight", weight, 800.5, 801.0);
  m.SetSense(ObjectiveSense::kMaximize);
  double iters = 0, nodes = 0, fixed = 0, pruned = 0, objective = 0;
  for (auto _ : state) {
    MilpOptions opts;
    opts.node_presolve = presolve;
    opts.time_limit_s = 60.0;
    auto r = pb::solver::SolveMilp(m, opts);
    if (!r.ok() || !r->has_solution()) {
      state.SkipWithError("MILP failed");
      return;
    }
    iters = static_cast<double>(r->lp_iterations);
    nodes = static_cast<double>(r->nodes);
    fixed = static_cast<double>(r->presolve_fixed_bounds);
    pruned = static_cast<double>(r->presolve_infeasible_children);
    objective = r->objective;
  }
  state.SetLabel(presolve ? "presolve_on" : "presolve_off");
  state.counters["lp_iterations"] = iters;
  state.counters["bnb_nodes"] = nodes;
  state.counters["presolve_fixed_bounds"] = fixed;
  state.counters["presolve_infeasible_children"] = pruned;
  state.counters["objective"] = objective;
}
BENCHMARK(BM_MilpNodePresolveAblation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Cross-solve reuse: one MilpWarmStart threaded through a sequence of
// structurally identical solves whose constraint ranges drift (the
// SketchRefine repair pattern). The second and later solves start from the
// first solve's root basis and branching history.
void BM_MilpCrossSolveReuse(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  double iters = 0;
  for (auto _ : state) {
    pb::solver::MilpWarmStart warm;
    int64_t total = 0;
    // Same structure each solve, drifting ranges — exactly what the
    // SketchRefine repair pass re-solves after residual drift.
    for (int shift = 0; shift < 8; ++shift) {
      LpModel m =
          PackageShapedLp(1000, 29, /*integer=*/true, /*shift=*/10.0 * shift);
      MilpOptions opts;
      opts.warm = reuse ? &warm : nullptr;
      opts.max_nodes = 4000;
      auto r = pb::solver::SolveMilp(m, opts);
      if (!r.ok()) {
        state.SkipWithError("MILP failed");
        return;
      }
      total += r->lp_iterations;
    }
    iters = static_cast<double>(total);
  }
  state.SetLabel(reuse ? "reuse" : "independent");
  state.counters["lp_iterations"] = iters;
}
BENCHMARK(BM_MilpCrossSolveReuse)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Parallel tree search on the branchy COUNT-window family (the node-
// presolve ablation's shape scaled up to ~1.7k nodes): helper threads
// speculatively solve frontier LPs while the main thread commits in serial
// order. The deterministic counters (bnb_nodes, lp_iterations, objective)
// are bit-identical across thread counts BY CONSTRUCTION — the regression
// gate compares them against the checked-in baseline — while nodes_per_sec
// is the throughput headline: on a multi-core host the 8-thread arm's
// node throughput is the acceptance bar (>= 2x the 1-thread arm).
// speculative_lps is diagnostic and timing-dependent (excluded from the
// gate), and on a single-core host the threaded arms are expectedly
// SLOWER: speculation burns the one core the committing thread needs.
void BM_MilpParallelTree(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  pb::Rng rng(33);
  LpModel m;
  std::vector<LinearTerm> count, weight;
  for (int j = 0; j < 120; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), true);
    count.push_back({j, 1.0});
    weight.push_back({j, std::floor(rng.UniformReal(100.0, 900.0))});
  }
  m.AddConstraint("count", count, 5, 5);
  m.AddConstraint("weight", weight, 1500.5, 1501.0);
  m.SetSense(ObjectiveSense::kMaximize);
  double nodes = 0, iters = 0, objective = 0, spec = 0;
  for (auto _ : state) {
    MilpOptions opts;
    opts.compute.threads = threads;
    opts.max_nodes = 200000;
    opts.time_limit_s = 60.0;
    auto r = pb::solver::SolveMilp(m, opts);
    if (!r.ok() || r->status != pb::solver::MilpStatus::kOptimal) {
      state.SkipWithError("MILP not optimal");
      return;
    }
    nodes = static_cast<double>(r->nodes);
    iters = static_cast<double>(r->lp_iterations);
    objective = r->objective;
    spec = static_cast<double>(r->speculative_lps);
  }
  // (No "threads" counter: the benchmark name carries the arg, and the
  // counter name would collide with Google Benchmark's builtin JSON field.)
  state.counters["bnb_nodes"] = nodes;
  state.counters["lp_iterations"] = iters;
  state.counters["objective"] = objective;
  state.counters["speculative_lps"] = spec;
  state.counters["nodes_per_sec"] =
      benchmark::Counter(nodes, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MilpParallelTree)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MilpRoundingHeuristicAblation(benchmark::State& state) {
  const bool rounding = state.range(0) != 0;
  pb::Rng rng(13);
  LpModel m;
  std::vector<LinearTerm> count, weight;
  for (int j = 0; j < 500; ++j) {
    m.AddVariable("x" + std::to_string(j), 0, 1,
                  rng.UniformReal(1.0, 100.0), true);
    count.push_back({j, 1.0});
    weight.push_back({j, rng.UniformReal(100.0, 900.0)});
  }
  m.AddConstraint("count", count, 5, 5);
  m.AddConstraint("weight", weight, 2000, 2600);
  m.SetSense(ObjectiveSense::kMaximize);
  double nodes = 0;
  for (auto _ : state) {
    MilpOptions opts;
    opts.rounding_heuristic = rounding;
    auto r = pb::solver::SolveMilp(m, opts);
    if (!r.ok() || !r->has_solution()) {
      state.SkipWithError("MILP failed");
      return;
    }
    nodes = static_cast<double>(r->nodes);
  }
  state.SetLabel(rounding ? "rounding_on" : "rounding_off");
  state.counters["bnb_nodes"] = nodes;
}
BENCHMARK(BM_MilpRoundingHeuristicAblation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Per-node cost of branch-and-bound on the lineitem package ILP (the
// perfbench lineitem-exact shape): WHERE extendedprice <= the median
// price, COUNT(*) = 18, SUM(quantity) <= 378, MAXIMIZE SUM(revenue): one
// binary per candidate and two dense rows. Arg = lineitem rows; the
// 20,000-row arm stops at a fixed node budget short of its 133-node proof,
// so its counters are as deterministic as the 2,000-row arm's full solve.
// us_per_node is the headline (wall clock, not gated); bnb_nodes,
// lp_iterations, lp_dual_iterations, the presolve canaries and the
// objective are the gated witnesses that per-node speedups leave the
// search unchanged.
void BM_NodeThroughput(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateLineitems(rows, 20140901));
  const pb::db::Table& table = **catalog.Get("lineitem");
  const size_t col = *table.schema().IndexOf("extendedprice");
  std::vector<double> prices;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    prices.push_back(table.at(i, col).AsDoubleExact());
  }
  std::sort(prices.begin(), prices.end());
  size_t c = prices.size() / 2;
  while (prices[c - 1] == prices[c]) ++c;
  char cut[32];
  std::snprintf(cut, sizeof(cut), "%.3f", (prices[c - 1] + prices[c]) / 2.0);
  auto aq = pb::paql::ParseAndAnalyze(
      std::string("SELECT PACKAGE(L) FROM lineitem L WHERE "
                  "L.extendedprice <= ") +
          cut +
          " SUCH THAT COUNT(*) = 18 AND SUM(quantity) <= 378 "
          "MAXIMIZE SUM(revenue)",
      catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  auto translation = pb::core::TranslateToIlp(*aq);
  if (!translation.ok()) {
    state.SkipWithError(translation.status().ToString().c_str());
    return;
  }
  MilpOptions opts;
  opts.time_limit_s = 600.0;
  if (rows >= 20000) opts.max_nodes = 100;
  double seconds = 0, nodes = 0, iters = 0, dual = 0, fixed = 0, pruned = 0,
         objective = 0;
  for (auto _ : state) {
    auto r = pb::solver::SolveMilp(translation->model, opts);
    if (!r.ok() || !r->has_solution()) {
      state.SkipWithError("MILP failed");
      return;
    }
    benchmark::DoNotOptimize(r->x.data());
    seconds += r->solve_seconds;
    nodes += static_cast<double>(r->nodes);
    iters = static_cast<double>(r->lp_iterations);
    dual = static_cast<double>(r->lp_dual_iterations);
    fixed = static_cast<double>(r->presolve_fixed_bounds);
    pruned = static_cast<double>(r->presolve_infeasible_children);
    objective = r->objective;
  }
  state.counters["us_per_node"] = nodes > 0 ? 1e6 * seconds / nodes : 0.0;
  state.counters["bnb_nodes"] = nodes / static_cast<double>(state.iterations());
  state.counters["lp_iterations"] = iters;
  state.counters["lp_dual_iterations"] = dual;
  state.counters["presolve_fixed_bounds"] = fixed;
  state.counters["presolve_infeasible_children"] = pruned;
  state.counters["objective"] = objective;
}
BENCHMARK(BM_NodeThroughput)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// Facade-level: one PaQL query through pb::Engine, cold (fresh engine,
// full parse + translate + solve every iteration) vs warm (result cache
// primed — repeats are answered bit-identically with zero solver work).
// Counters are deterministic: single-threaded, fixed dataset seed.
void BM_EngineQueryCache(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  constexpr char kQuery[] =
      "SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3 AND "
      "SUM(calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(protein)";
  pb::engine::EngineOptions options;
  options.num_threads = 1;
  double nodes = 0, objective = 0, hits = 0;
  if (warm) {
    pb::engine::Engine engine(options);
    if (!engine.GenerateDataset("recipes", 300, 42).ok()) {
      state.SkipWithError("dataset generation failed");
      return;
    }
    auto prime = engine.ExecuteQuery(0, kQuery);  // prime the result cache
    if (!prime.ok()) {
      state.SkipWithError("cache-priming solve failed");
      return;
    }
    for (auto _ : state) {
      auto r = engine.ExecuteQuery(0, kQuery);
      if (!r.ok() || !r.result_cache_hit) {
        state.SkipWithError("expected a result-cache hit");
        return;
      }
      hits += 1;
      objective = r.objective;
    }
  } else {
    for (auto _ : state) {
      state.PauseTiming();
      pb::engine::Engine engine(options);
      if (!engine.GenerateDataset("recipes", 300, 42).ok()) {
        state.SkipWithError("dataset generation failed");
        return;
      }
      state.ResumeTiming();
      auto r = engine.ExecuteQuery(0, kQuery);
      if (!r.ok() || !r.proven_optimal) {
        state.SkipWithError("query failed");
        return;
      }
      nodes = static_cast<double>(r.nodes);
      objective = r.objective;
    }
  }
  state.SetLabel(warm ? "warm_cache" : "cold");
  state.counters["bnb_nodes"] = nodes;
  state.counters["objective"] = objective;
  state.counters["cache_hits"] = hits;
}
BENCHMARK(BM_EngineQueryCache)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// HTAP incremental maintenance: a maintained SketchRefine partition over
// lineitem absorbs a 1% append (200 rows routed into a handful of groups),
// then re-answers the query. Arg 1 = incremental (dirty groups re-solved
// from their saved warm starts, clean groups answered from cached
// sub-solutions); Arg 0 = the cold baseline (the SAME maintained partition
// with every cached solution and warm start dropped, every group re-solved
// — what a from-scratch re-solve of this partition costs). Both arms are
// bit-identical by construction (the objective counter is the gate's
// witness); lp_iterations is the work separation the baseline encodes —
// the incremental arm must stay >= 5x below cold, so any reuse breakage
// shows up as a gated lp_iterations regression on Arg 1.
void BM_IncrementalAppend(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  constexpr char kQuery[] =
      "SELECT PACKAGE(L) FROM lineitem L "
      "SUCH THAT COUNT(*) = 24 AND SUM(quantity) = 600 AND "
      "SUM(extendedprice) BETWEEN 50000 AND 51000 "
      "MAXIMIZE SUM(revenue)";
  pb::db::Catalog catalog;
  catalog.RegisterOrReplace(pb::datagen::GenerateLineitems(20000, 5));
  auto aq = pb::paql::ParseAndAnalyze(kQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  pb::core::SketchRefineOptions opts;
  opts.partition_size = 256;
  opts.milp.time_limit_s = 120.0;
  pb::core::SketchRefineState built;
  opts.state = &built;
  auto prime = pb::core::SketchRefine(*aq, opts);  // build + solve, untimed
  if (!prime.ok() || !prime->found) {
    state.SkipWithError("priming sketch-refine solve failed");
    return;
  }
  // The append: 200 rows (1%), duplicates of four existing tuples so they
  // route into at most a handful of groups — the workload the maintenance
  // path exists for (hot appends clustered in feature space).
  {
    auto table = catalog.GetMutable("lineitem");
    if (!table.ok()) {
      state.SkipWithError(table.status().ToString().c_str());
      return;
    }
    std::vector<pb::db::Tuple> rows;
    for (size_t i = 0; i < 200; ++i) rows.push_back((*table)->row(i % 4));
    if (!(*table)->AppendRows(std::move(rows)).ok()) {
      state.SkipWithError("append failed");
      return;
    }
  }
  aq = pb::paql::ParseAndAnalyze(kQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  double lp_iters = 0, objective = 0, reused = 0, dirty = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pb::core::SketchRefineState maintained = built;
    if (!incremental) maintained.InvalidateSolutions();
    pb::core::SketchRefineOptions run = opts;
    run.state = &maintained;
    run.reuse_group_solutions = incremental;
    state.ResumeTiming();
    auto r = pb::core::SketchRefine(*aq, run);
    if (!r.ok() || !r->found) {
      state.SkipWithError("maintained sketch-refine solve failed");
      return;
    }
    lp_iters = static_cast<double>(r->lp_iterations);
    objective = r->objective;
    reused = static_cast<double>(r->groups_reused);
    dirty = static_cast<double>(r->dirty_groups);
  }
  state.SetLabel(incremental ? "incremental" : "cold");
  state.counters["lp_iterations"] = lp_iters;
  state.counters["objective"] = objective;
  state.counters["groups_reused"] = reused;
  state.counters["dirty_groups"] = dirty;
}
BENCHMARK(BM_IncrementalAppend)->Arg(0)->Arg(1)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
