// The three workloads and their seeded request streams.

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "common/random.h"
#include "datagen/lineitem.h"
#include "datagen/recipes.h"

namespace perfbench {

namespace {

/// Every workload's tables come from this seed; --seed drives the request
/// streams and the appended rows. Runs with different seeds then differ by
/// their requests only, not by a different table on top.
constexpr uint64_t kDataSeed = 20140901;

WorkloadSpec MealPlan() {
  WorkloadSpec s;
  s.name = "meal-plan";
  s.why =
      "short solves and result-cache hits make per-request fixed costs "
      "(server, parse, cache, translate) a visible share of latency";
  s.dataset = "recipes";
  s.rows = 1000;
  s.engine.num_threads = s.clients;
  s.layers = {"server", "engine", "paql", "db", "core.pruning",
              "core.translate", "solver"};
  return s;
}

WorkloadSpec LineitemExact() {
  WorkloadSpec s;
  s.name = "lineitem-exact";
  s.why =
      "uncached exact ILPs solved to proven optimality: latency follows "
      "the branch-and-bound node count and per-node cost";
  s.dataset = "lineitem";
  s.rows = 5000;
  s.engine.num_threads = s.clients;
  s.layers = {"solver", "core.translate", "core.decode", "db", "server"};
  return s;
}

WorkloadSpec HtapAppend() {
  WorkloadSpec s;
  s.name = "htap-append";
  s.why =
      "appends beside reads: SketchRefine maintenance, cache revalidation "
      "and the exclusive catalog lock";
  s.dataset = "lineitem";
  s.rows = 10000;
  s.max_nodes = 200;
  // The readers do not wait for appends. Each pauses 3 ms on average after an
  // answer (an interactive user looking at the package), so that a reader comes
  // back to one of its eight queries every ~50 ms; an append is due every 40
  // ms, so nearly every read finds its query stale and revalidates. Appends
  // still land while a reader's query is in flight and wait for the catalog
  // lock behind it. Without the pause the two readers hold the
  // reader-preferring lock almost all the time, appends fall behind their
  // schedule, and the readers swing between runs of cache hits and runs of
  // revalidations, so that the latency median lands on either.
  s.append_period_s = 0.04;
  s.think_s = 0.003;
  s.engine.num_threads = s.clients;
  s.engine.incremental_maintenance = true;
  s.layers = {"core.sketch_refine", "engine", "db.append", "solver",
              "server"};
  return s;
}

std::string Fmt(const char* format, double a) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, a);
  return buf;
}

const std::vector<std::string>& Cuisines() {
  static const std::vector<std::string> kCuisines = {
      "italian", "mexican", "japanese", "indian",
      "french",  "greek",   "thai",     "american"};
  return kCuisines;
}

/// The structure of a meal plan: k recipes in a calorie window from one
/// cuisine or gluten-free, maximizing protein or rating.
struct MealShape {
  int64_t k = 3;
  std::string where;
  bool protein = true;
};

/// Hot-set shape `h` (the same for every seed): protein over one cuisine
/// on even h, rating otherwise. Protein over the ~500 gluten-free recipes
/// is left out: its solves are long enough to drown the fixed costs this
/// workload measures.
MealShape HotShape(size_t h) {
  MealShape m;
  m.k = 3 + static_cast<int64_t>(h % 3);
  m.protein = h % 2 == 0;
  m.where = h % 4 == 1 ? "R.gluten = 'free'"
                       : "R.cuisine = '" + Cuisines()[(h / 2) % 8] + "'";
  return m;
}

/// Fresh-request shape `s` of 16: rating over gluten-free or one cuisine.
/// Fresh protein solves were left out too: their cost depends on the
/// warm-start history of their shape, which made runs with different
/// seeds differ by up to 3x.
MealShape FreshShape(size_t s) {
  MealShape m;
  m.k = 3 + static_cast<int64_t>(s % 3);
  m.protein = false;
  m.where = s % 2 == 0 ? "R.gluten = 'free'"
                       : "R.cuisine = '" + Cuisines()[(s / 2) % 8] + "'";
  return m;
}

/// The shape with a calorie window drawn from `rng`.
QuerySpec MealQuery(const MealShape& m, pb::Rng& rng) {
  const int64_t lo = m.k * rng.UniformInt(450, 650);
  QuerySpec q;
  q.paql = "SELECT PACKAGE(R) FROM recipes R WHERE " + m.where +
           " SUCH THAT COUNT(*) = " + std::to_string(m.k) +
           " AND SUM(calories) BETWEEN " + std::to_string(lo) + " AND " +
           std::to_string(lo + 150 * m.k) + " MAXIMIZE SUM(" +
           (m.protein ? "protein" : "rating") + ")";
  return q;
}

}  // namespace

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

pb::Result<WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "meal-plan") return MealPlan();
  if (name == "lineitem-exact") return LineitemExact();
  if (name == "htap-append") return HtapAppend();
  return pb::Status::NotFound("unknown workload '" + name + "'");
}

pb::db::Table MakeTable(const WorkloadSpec& spec) {
  return spec.dataset == "recipes"
             ? pb::datagen::GenerateRecipes(spec.rows, kDataSeed)
             : pb::datagen::GenerateLineitems(spec.rows, kDataSeed);
}

Generator::Generator(const WorkloadSpec& spec, uint64_t seed,
                     const pb::db::Table& base)
    : spec_(spec), seed_(seed) {
  if (spec.name == "meal-plan") {
    // Twelve hot queries; only their calorie windows depend on the seed.
    for (size_t h = 0; h < 12; ++h) {
      pb::Rng rng(Mix(seed, 1000 + h));
      hot_.push_back(MealQuery(HotShape(h), rng));
    }
  } else if (spec.name == "lineitem-exact") {
    // Price ceilings that each keep a distinct number of candidates, so
    // every request translates to a model of its own: no two requests
    // share a warm-start entry and each solve is cold, a pure function of
    // the request whatever the interleaving of clients.
    std::vector<double> prices;
    const size_t col = *base.schema().IndexOf("extendedprice");
    for (size_t i = 0; i < base.num_rows(); ++i) {
      prices.push_back(base.at(i, col).AsDoubleExact());
    }
    std::sort(prices.begin(), prices.end());
    const size_t n = prices.size();
    for (size_t c = n * 4 / 10; c < n * 6 / 10; ++c) {
      if (prices[c - 1] < prices[c]) {
        cuts_.push_back((prices[c - 1] + prices[c]) / 2.0);
      }
    }
    pb::Rng rng(Mix(seed, 2));
    rng.Shuffle(&cuts_);
  } else {
    // The reader cycle: sixteen queries of one family (the engine keeps
    // sixteen maintained partitions), so that no single query's cost sets
    // the latency percentiles. They are the same for every seed; the seed
    // drives the appended rows.
    static const std::vector<std::string> kModes = {
        "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"};
    for (size_t i = 0; i < 16; ++i) {
      const int64_t k = 14 + 2 * static_cast<int64_t>(i % 3);
      const int64_t tax_mills = k * (36 + static_cast<int64_t>(i % 4) * 2);
      maintained_.push_back(
          {"SELECT PACKAGE(L) FROM lineitem L WHERE L.shipmode = '" +
           kModes[i % kModes.size()] + "' SUCH THAT COUNT(*) = " +
           std::to_string(k) + " AND SUM(tax) <= " +
           Fmt("%.3f", 0.001 * static_cast<double>(tax_mills)) +
           " MAXIMIZE SUM(revenue)"});
    }
  }
}

QuerySpec Generator::Query(size_t j) const {
  pb::Rng rng(Mix(seed_, 1'000'000 + j));
  if (spec_.name == "meal-plan") {
    // Per 20 requests: 12 repeat the hot set (result-cache hits), 7 are
    // fresh calorie windows cycling through 16 shapes (warm-start hits
    // once each shape has been solved), and one is infeasible by pruning
    // (every recipe has >= 90 calories).
    const size_t slot = j % 20;
    if (slot < 12) return hot_[rng.Index(hot_.size())];
    if (slot < 19) {
      return MealQuery(FreshShape((j / 20 * 7 + slot) % 16), rng);
    }
    const int64_t k = rng.UniformInt(3, 5);
    QuerySpec q;
    q.paql = "SELECT PACKAGE(R) FROM recipes R WHERE R.gluten = 'free' "
             "SUCH THAT COUNT(*) = " +
             std::to_string(k) + " AND SUM(calories) <= " +
             std::to_string(80 * k) + " MAXIMIZE SUM(protein)";
    q.expect_infeasible = true;
    return q;
  }
  if (spec_.name == "lineitem-exact") {
    // k and the per-item quantity cap cycle through fixed strata (17 and
    // 11 values, coprime), so every run sees the same mix; the seed decides
    // which candidate cut each request gets. There is no node cap: under
    // caps of 30 to 100 nodes about one cold solve in two thousand found
    // no package at all (the root dive gave up), and a failed request
    // would fail the run.
    const int64_t k = 8 + static_cast<int64_t>(j % 17);
    const double cut = cuts_[j % cuts_.size()];
    const int64_t quantity = k * (15 + static_cast<int64_t>(j * 7 % 11));
    QuerySpec q;
    q.paql = "SELECT PACKAGE(L) FROM lineitem L WHERE L.extendedprice <= " +
             Fmt("%.3f", cut) + " SUCH THAT COUNT(*) = " + std::to_string(k) +
             " AND SUM(quantity) <= " + std::to_string(quantity) +
             " MAXIMIZE SUM(revenue)";
    return q;
  }
  return maintained_[j % maintained_.size()];
}

std::vector<QuerySpec> Generator::Priming() const {
  if (spec_.name == "meal-plan") return hot_;
  if (spec_.name == "htap-append") return maintained_;
  // lineitem-exact: two solves over the whole table, a candidate count no
  // timed request uses.
  return {{"SELECT PACKAGE(L) FROM lineitem L SUCH THAT COUNT(*) = 12 AND "
           "SUM(quantity) <= 240 MAXIMIZE SUM(revenue)"},
          {"SELECT PACKAGE(L) FROM lineitem L SUCH THAT COUNT(*) = 20 AND "
           "SUM(quantity) <= 400 MAXIMIZE SUM(revenue)"}};
}

std::vector<pb::db::Tuple> Generator::AppendBatch(size_t b) const {
  const uint64_t s = Mix(seed_, 5'000'000 + b);
  pb::db::Table rows =
      spec_.dataset == "recipes"
          ? pb::datagen::GenerateRecipes(kAppendBatch, s)
          : pb::datagen::GenerateLineitems(kAppendBatch, s);
  // Ids continue after the initial rows, so appended rows stay
  // distinguishable.
  const size_t first_id = spec_.rows + b * kAppendBatch;
  std::vector<pb::db::Tuple> out;
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    pb::db::Tuple t = rows.row(i);
    t[0] = pb::db::Value::Int(static_cast<int64_t>(first_id + i));
    out.push_back(std::move(t));
  }
  return out;
}

pb::json::Value TupleToJson(const pb::db::Tuple& row) {
  pb::json::Value out = pb::json::Value::Array();
  for (const pb::db::Value& v : row) {
    if (v.is_null()) {
      out.Push(pb::json::Value::Null());
    } else if (v.is_bool()) {
      out.Push(pb::json::Value::Bool(v.AsBool()));
    } else if (v.is_int()) {
      out.Push(pb::json::Value::Int(v.AsInt()));
    } else if (v.is_double()) {
      out.Push(pb::json::Value::Number(v.AsDoubleExact()));
    } else {
      out.Push(pb::json::Value::Str(v.AsString()));
    }
  }
  return out;
}

std::string QueryRequest(const WorkloadSpec& spec, const std::string& paql) {
  pb::json::Value budget = pb::json::Value::Object();
  budget.Set("threads", pb::json::Value::Int(1));
  budget.Set("time_limit_s", pb::json::Value::Number(kQueryTimeLimitS));
  if (spec.max_nodes > 0) {
    budget.Set("max_nodes", pb::json::Value::Int(spec.max_nodes));
  }
  pb::json::Value req = pb::json::Value::Object();
  req.Set("op", pb::json::Value::Str("query"));
  req.Set("paql", pb::json::Value::Str(paql));
  req.Set("budget", std::move(budget));
  return req.Dump();
}

}  // namespace perfbench
