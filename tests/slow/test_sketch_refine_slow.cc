// Large-instance SketchRefine suite — the original benchmark-scale
// randomized workloads that used to dominate the tier-1 wall clock. They
// are CTest-registered under the "slow" label and DISABLED by default;
// opt in with:
//
//   cmake -B build -S . -DPB_RUN_SLOW_TESTS=ON
//   cd build && ctest -L slow --output-on-failure
//
// The fast suite (tests/test_sketch_refine.cc) keeps full code-path
// coverage on smaller instances; this one re-checks the same invariants at
// the scale the E6 benchmarks run.

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/sketch_refine.h"
#include "datagen/lineitem.h"
#include "db/catalog.h"
#include "paql/analyzer.h"

namespace pb::core {
namespace {

constexpr const char* kTightQuery =
    "SELECT PACKAGE(L) FROM lineitem L "
    "SUCH THAT COUNT(*) = 24 AND SUM(quantity) = 600 AND "
    "SUM(extendedprice) BETWEEN 50000 AND 51000 "
    "MAXIMIZE SUM(revenue)";

class SketchRefineSlowTest : public ::testing::Test {
 protected:
  paql::AnalyzedQuery Analyzed(const db::Catalog& c, const std::string& t) {
    auto aq = paql::ParseAndAnalyze(t, c);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    return std::move(aq).value();
  }
};

TEST_F(SketchRefineSlowTest, ThreadCountIdentityAtBenchmarkScale) {
  // The BM_RefineThreads workload: 50k tuples, tight two-sided windows,
  // deterministic node budgets. Any thread count must produce the
  // bit-identical package.
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateLineitems(50000, 5));
  auto aq = Analyzed(c, kTightQuery);
  SketchRefineOptions base;
  base.partition_size = 512;
  base.milp.max_nodes = 3000;
  base.milp.time_limit_s = 1e9;  // node budget is the deterministic limit

  SketchRefineResult reference;
  for (int threads : {1, 2, 4}) {
    SketchRefineOptions opts = base;
    opts.compute.threads = threads;
    auto r = SketchRefine(aq, opts);
    ASSERT_TRUE(r.ok()) << "threads=" << threads << ": "
                        << r.status().ToString();
    ASSERT_TRUE(r->found) << "threads=" << threads;
    if (threads == 1) {
      reference = std::move(r).value();
      continue;
    }
    EXPECT_EQ(r->package, reference.package) << "threads=" << threads;
    EXPECT_EQ(r->objective, reference.objective) << "threads=" << threads;
    EXPECT_EQ(r->refine_ilps_solved, reference.refine_ilps_solved)
        << "threads=" << threads;
  }
}

TEST_F(SketchRefineSlowTest, WarmColdIdentityAtBenchmarkScale) {
  // Every sub-ILP solves to proven optimality: warm starting changes the
  // path, never the answer — and must save at least half the iterations.
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateLineitems(20000, 5));
  auto aq = Analyzed(c, kTightQuery);
  SketchRefineOptions cold_opts;
  cold_opts.partition_size = 256;
  cold_opts.milp.warm_start_lps = false;
  auto cold = SketchRefine(aq, cold_opts);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->found);

  SketchRefineOptions warm_opts = cold_opts;
  warm_opts.milp.warm_start_lps = true;
  auto warm = SketchRefine(aq, warm_opts);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->found);

  EXPECT_EQ(warm->package, cold->package)
      << warm->package.Fingerprint() << " vs " << cold->package.Fingerprint();
  EXPECT_EQ(warm->objective, cold->objective);
  EXPECT_LE(warm->lp_iterations * 2, cold->lp_iterations)
      << "warm " << warm->lp_iterations << " vs cold " << cold->lp_iterations;
}

TEST_F(SketchRefineSlowTest, PartitionSizeSweepAtBenchmarkScale) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateLineitems(10000, 5));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(L) FROM lineitem L "
                     "SUCH THAT COUNT(*) = 10 AND SUM(quantity) <= 250 AND "
                     "SUM(extendedprice) BETWEEN 2000 AND 60000 "
                     "MAXIMIZE SUM(revenue)");
  for (size_t tau : {16, 64, 256, 1024}) {
    SketchRefineOptions opts;
    opts.partition_size = tau;
    opts.milp.time_limit_s = 30.0;
    auto r = SketchRefine(aq, opts);
    ASSERT_TRUE(r.ok()) << "tau=" << tau << ": " << r.status().ToString();
    ASSERT_TRUE(r->found) << "tau=" << tau;
    EXPECT_TRUE(*IsValidPackage(aq, r->package)) << "tau=" << tau;
  }
}

TEST_F(SketchRefineSlowTest, ApproximationWithinReasonOfDirectAtScale) {
  db::Catalog c;
  c.RegisterOrReplace(datagen::GenerateLineitems(5000, 3));
  auto aq = Analyzed(c,
                     "SELECT PACKAGE(L) FROM lineitem L "
                     "SUCH THAT COUNT(*) = 8 AND SUM(quantity) <= 200 "
                     "MAXIMIZE SUM(revenue)");
  QueryEvaluator ev(&c);
  EvaluationOptions direct;
  direct.strategy = Strategy::kIlpSolver;
  auto d = ev.Evaluate(aq, direct);
  ASSERT_TRUE(d.ok()) << d.status().ToString();

  SketchRefineOptions opts;
  opts.partition_size = 64;
  auto sr = SketchRefine(aq, opts);
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();
  ASSERT_TRUE(sr->found);
  EXPECT_TRUE(*IsValidPackage(aq, sr->package));
  EXPECT_GE(sr->objective, 0.6 * d->objective)
      << "sketch-refine lost too much objective: " << sr->objective
      << " vs direct " << d->objective;
}

}  // namespace
}  // namespace pb::core
