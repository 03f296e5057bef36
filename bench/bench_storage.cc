// E8 — Out-of-core storage: zone-map pruning and block-cache behavior.
//
// BM_ZoneMapScan measures the §4.1 bounds derivation over lineitem at a
// fixed zone granularity, resident vs spilled. With a dense candidate list
// every block is fully covered, so the pruner bounds SUM(quantity) from
// zone metadata alone: the spilled case performs zero block reads, and
// zone_map_skipped_blocks is identical in both layouts (the counter is a
// function of table + query + granularity, never of where the bytes live).
//
// BM_OutOfCoreSolve measures one cold end-to-end solve over a spilled
// lineitem table, with the cache either unbounded (every block faults once)
// or sized to ~2 blocks (the data does not fit; the LRU thrashes). The
// package and objective are bit-identical either way; only block_reads —
// segment-file fetches, i.e. cache misses — moves with the budget. All
// three reported counters are deterministic under the single-threaded
// solve and are gated by tools/check_bench_regression.py: block_reads as a
// work counter (more IO fails), zone_map_skipped_blocks as a determinism
// canary (any drift fails), objective at 1e-6.
//
// BM_FilterIndices times the WHERE filter over a 10,000-row lineitem for
// three predicates: a string equality, a numeric range, and their
// conjunction. Each iteration runs FilterIndices (the column kernel, the
// reported time) and internal::FilterIndicesRowwise (the row path) on the
// same table, so rowwise_over_kernel is a same-run speed ratio, free of
// host-to-host drift; an iteration where the two disagree fails the run.
// It is a local microbench with no checked-in baseline:
//   ./bench_storage --benchmark_filter=BM_FilterIndices

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "core/pruning.h"
#include "datagen/lineitem.h"
#include "db/catalog.h"
#include "db/expr.h"
#include "db/ops.h"
#include "engine/engine.h"
#include "paql/analyzer.h"
#include "storage/block_cache.h"

namespace {

constexpr const char* kQuery =
    "SELECT PACKAGE(L) FROM lineitem L SUCH THAT COUNT(*) = 8 AND "
    "SUM(quantity) <= 200 MAXIMIZE SUM(revenue)";

std::string BenchSegmentPath(const std::string& name) {
  std::error_code ec;
  std::string dir = std::filesystem::temp_directory_path(ec).string();
  if (ec) dir = ".";
  return dir + "/pb_bench_" + name + ".seg";
}

void BM_ZoneMapScan(benchmark::State& state) {
  const bool spilled = state.range(0) != 0;
  const size_t n = 16384;      // 16 full blocks per numeric column
  const size_t block_size = 1024;

  pb::storage::BlockCache cache(/*budget_bytes=*/0);  // declared before the
  pb::db::Catalog catalog;  // catalog: spilled columns hold cache pointers
  pb::db::Table table = pb::datagen::GenerateLineitems(n, 7);
  if (spilled) {
    auto s = table.SpillToDisk(BenchSegmentPath("zonescan"), block_size,
                               &cache);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  } else {
    table.SetBlockSize(block_size);
  }
  catalog.RegisterOrReplace(std::move(table));

  auto aq = pb::paql::ParseAndAnalyze(kQuery, catalog);
  if (!aq.ok()) {
    state.SkipWithError(aq.status().ToString().c_str());
    return;
  }
  auto candidates = pb::db::FilterIndices(*aq->table, aq->query.where);
  if (!candidates.ok()) {
    state.SkipWithError(candidates.status().ToString().c_str());
    return;
  }

  pb::core::CardinalityBounds bounds;
  for (auto _ : state) {
    auto b = pb::core::DeriveCardinalityBounds(*aq, *candidates);
    if (!b.ok()) {
      state.SkipWithError(b.status().ToString().c_str());
      return;
    }
    bounds = *b;
    benchmark::DoNotOptimize(bounds);
  }
  state.SetLabel(spilled ? "spilled" : "resident");
  state.counters["n"] = static_cast<double>(n);
  state.counters["zone_map_skipped_blocks"] =
      static_cast<double>(bounds.zone_map_skipped_blocks);
  // Zero for both layouts: full-coverage blocks never fault value data.
  state.counters["block_reads"] =
      static_cast<double>(cache.stats().misses);
}
BENCHMARK(BM_ZoneMapScan)->Arg(0)->Arg(1);

void BM_OutOfCoreSolve(benchmark::State& state) {
  const bool tiny_cache = state.range(0) != 0;
  const size_t n = 600;
  const size_t block_size = 64;  // 10 blocks per numeric column
  // ~2 data blocks plus slack, the same shape as the acceptance test: the
  // working set (quantity + revenue gathers) cannot fit.
  const int64_t budget =
      tiny_cache ? static_cast<int64_t>(2 * block_size * 8 + 64) : 0;

  double reads = 0.0, skips = 0.0, objective = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh cache + engine per iteration: every solve is cold (no result
    // cache, no warm blocks), so the miss count is the cost of ONE solve.
    auto cache = std::make_unique<pb::storage::BlockCache>(budget);
    auto engine = std::make_unique<pb::engine::Engine>();
    pb::db::Table table = pb::datagen::GenerateLineitems(n, 7);
    auto s = table.SpillToDisk(BenchSegmentPath("oocsolve"), block_size,
                               cache.get());
    if (s.ok()) s = engine->RegisterTable(std::move(table));
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    state.ResumeTiming();

    pb::engine::QueryResponse resp = engine->ExecuteQuery(0, kQuery);

    state.PauseTiming();
    if (!resp.ok() || !resp.proven_optimal) {
      state.SkipWithError("out-of-core solve not optimal");
      return;
    }
    reads = static_cast<double>(cache->stats().misses);
    skips = static_cast<double>(resp.zone_map_skipped_blocks);
    objective = resp.objective;
    engine.reset();  // engine holds spilled columns; destroy before cache
    cache.reset();
    state.ResumeTiming();
  }
  state.SetLabel(tiny_cache ? "cache=2blocks" : "cache=unbounded");
  state.counters["n"] = static_cast<double>(n);
  state.counters["block_reads"] = reads;
  state.counters["zone_map_skipped_blocks"] = skips;
  state.counters["objective"] = objective;
}
BENCHMARK(BM_OutOfCoreSolve)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_FilterIndices(benchmark::State& state) {
  using pb::db::BinaryOp;
  const pb::db::Table table = pb::datagen::GenerateLineitems(10000, 7);
  const pb::db::ExprPtr air = pb::db::Binary(
      BinaryOp::kEq, pb::db::Col("shipmode"), pb::db::LitString("AIR"));
  const pb::db::ExprPtr range = pb::db::Between(
      pb::db::Col("quantity"), pb::db::LitInt(10), pb::db::LitInt(30));
  const pb::db::ExprPtr preds[] = {air, range,
                                   pb::db::Binary(BinaryOp::kAnd, air, range)};
  static const char* kLabels[] = {"string_eq", "numeric_range", "conjunction"};
  const pb::db::ExprPtr& pred = preds[state.range(0)];

  using Clock = std::chrono::steady_clock;
  double kernel_s = 0.0, rowwise_s = 0.0;
  size_t matched = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    auto fast = pb::db::FilterIndices(table, pred);
    const auto t1 = Clock::now();
    auto slow = pb::db::internal::FilterIndicesRowwise(table, pred);
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(fast);
    benchmark::DoNotOptimize(slow);
    if (!fast.ok() || !slow.ok() || *fast != *slow) {
      state.SkipWithError("kernel and row path disagree");
      return;
    }
    matched = fast->size();
    const double k = std::chrono::duration<double>(t1 - t0).count();
    kernel_s += k;
    rowwise_s += std::chrono::duration<double>(t2 - t1).count();
    state.SetIterationTime(k);
  }
  state.SetLabel(kLabels[state.range(0)]);
  state.counters["rows_matched"] = static_cast<double>(matched);
  state.counters["rowwise_over_kernel"] =
      kernel_s > 0.0 ? rowwise_s / kernel_s : 0.0;
}
BENCHMARK(BM_FilterIndices)
    ->DenseRange(0, 2)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
