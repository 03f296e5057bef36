// Traced run: the seeded sequence run serially, each op twice in a row.
//
//   reference  one connection to an in-process server, one request at a
//              time (so one Engine::ExecuteQuery at a time); appends call
//              Engine::AppendRows directly.
//   replay     the same requests, calling each layer's public function in
//              the order Engine::Run does (result cache → paql → db filter
//              → core pruning → SketchRefine or translate → solver →
//              decode → server encode), each timed from outside, with the
//              engine's result, warm-start and maintenance caches mirrored
//              here.
//
// The replay must reproduce the reference exactly on status, strategy,
// nodes, LP iterations, objective and SketchRefine dirty/reused groups,
// and its spans must sum to within kSpanTolerance of the engine's
// total_seconds; otherwise the per-layer split would describe a different
// program and the run reports correct = false.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <list>
#include <memory>
#include <unordered_map>

#include "bench.h"
#include "common/strings.h"
#include "core/pruning.h"
#include "core/sketch_refine.h"
#include "core/translator.h"
#include "db/ops.h"
#include "paql/analyzer.h"
#include "server/protocol.h"
#include "server/server.h"
#include "solver/milp.h"

namespace perfbench {

namespace {

/// Allowed gap between the replay's summed spans and the engine's summed
/// total_seconds, as a share of the latter.
constexpr double kSpanTolerance = 0.15;
/// Share of --seconds the interleaved passes may use, leaving the rest
/// for set-up and the checks.
constexpr double kTracedShare = 0.9;
/// The serial replay has no clock to schedule appends by; on a workload
/// with a writer it appends one batch after every this many queries (one
/// pass over htap-append's sixteen maintained queries, so each of them
/// revalidates once per append).
constexpr size_t kQueriesPerAppend = 16;

/// What one query returned, in the fields the fidelity check compares.
struct Outcome {
  std::string code = "OK";
  std::string strategy;
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
  int64_t dirty_groups = 0;
  int64_t groups_reused = 0;
  double objective = 0.0;
  bool cache_hit = false;
  bool warm_hit = false;
  bool revalidated = false;
  bool proven_optimal = false;
  size_t table_rows = 0;
  pb::core::Package package;
};

/// Key → value LRU with the engine's cache discipline: a lookup moves the
/// entry to the front; an insert goes to the front and evicts from the
/// back beyond the capacity.
template <typename K, typename V>
class Lru {
 public:
  explicit Lru(size_t capacity) : capacity_(capacity) {}

  V* Find(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    list_.splice(list_.begin(), list_, it->second);
    return &it->second->second;
  }
  /// Find, or insert a default value (Engine::GetWarmEntry's rule).
  V& FindOrCreate(const K& key) {
    if (V* v = Find(key)) return *v;
    list_.emplace_front(key, V());
    map_[key] = list_.begin();
    Evict(std::max<size_t>(1, capacity_));
    return list_.front().second;
  }
  /// Insert or replace (Engine::StoreResultCache's rule).
  void Store(const K& key, V value) {
    if (capacity_ == 0) return;
    if (V* v = Find(key)) {
      *v = std::move(value);
      return;
    }
    list_.emplace_front(key, std::move(value));
    map_[key] = list_.begin();
    Evict(capacity_);
  }

 private:
  void Evict(size_t limit) {
    while (map_.size() > limit) {
      map_.erase(list_.back().first);
      list_.pop_back();
    }
  }
  size_t capacity_;
  std::list<std::pair<K, V>> list_;
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator> map_;
};

/// Per-layer accumulators of the replay.
struct Layers {
  std::vector<double> lookup_us, parse_us, filter_us, candidate_share,
      pruning_us, translate_ms, ilp_variables, decode_us, encode_us;
  int64_t short_circuits = 0;
  // solver
  std::vector<double> solve_ms, nodes, lp_iterations, lp_dual_iterations,
      lp_refactorizations, presolve_infeasible_children;
  // SketchRefine
  std::vector<double> sr_ms, sr_lp_iterations, sr_dirty, sr_reused;
  double span_seconds = 0.0;  ///< every span the engine's total covers
  size_t encoded_bytes = 0;
};

double Since(double start) { return NowSeconds() - start; }

class Replay {
 public:
  Replay(const WorkloadSpec& spec, pb::db::Table table)
      : spec_(spec),
        result_(spec.engine.result_cache_capacity),
        warm_(spec.engine.warm_cache_capacity),
        maintained_(spec.engine.maintenance_cache_capacity) {
    catalog_.RegisterOrReplace(std::move(table));
  }

  const pb::db::Catalog& catalog() const { return catalog_; }

  pb::Status Append(std::vector<pb::db::Tuple> rows) {
    PB_ASSIGN_OR_RETURN(pb::db::Table * table,
                        catalog_.GetMutable(spec_.dataset));
    return table->AppendRows(std::move(rows));
  }

  Outcome Query(const std::string& paql, Layers* layers) {
    Outcome out;
    double t = NowSeconds();
    const std::string key(pb::StripAsciiWhitespace(paql));
    bool stale = false;
    if (const Outcome* hit = result_.Find(key)) {
      auto table = catalog_.Get(spec_.dataset);
      if (table.ok() && (*table)->num_rows() == hit->table_rows) {
        out = *hit;
        out.cache_hit = true;
        Record(&layers->lookup_us, t, 1e6, layers);
        return out;
      }
      stale = true;
    }
    Record(&layers->lookup_us, t, 1e6, layers);

    t = NowSeconds();
    auto aq_or = pb::paql::ParseAndAnalyze(paql, catalog_);
    Record(&layers->parse_us, t, 1e6, layers);
    if (!aq_or.ok()) return Fail(aq_or.status());
    const pb::paql::AnalyzedQuery& aq = *aq_or;
    out.table_rows = aq.table->num_rows();
    const bool translatable =
        aq.ilp_translatable && (!aq.has_objective || aq.objective_linear);
    if (!translatable) {
      return Fail(pb::Status::Unimplemented("evaluator route"));
    }

    pb::core::EvaluationOptions eo = spec_.engine.defaults;
    eo.milp.time_limit_s = kQueryTimeLimitS;
    if (spec_.max_nodes > 0) eo.milp.max_nodes = spec_.max_nodes;
    eo.milp.compute.threads = 1;

    t = NowSeconds();
    auto candidates = pb::db::FilterIndices(*aq.table, aq.query.where);
    Record(&layers->filter_us, t, 1e6, layers);
    if (!candidates.ok()) return Fail(candidates.status());
    layers->candidate_share.push_back(
        static_cast<double>(candidates->size()) /
        static_cast<double>(std::max<size_t>(1, aq.table->num_rows())));

    t = NowSeconds();
    auto bounds = pb::core::DeriveCardinalityBounds(aq, *candidates);
    Record(&layers->pruning_us, t, 1e6, layers);
    if (!bounds.ok()) return Fail(bounds.status());

    if (eo.use_pruning && bounds->infeasible) {
      ++layers->short_circuits;
      out.strategy = "Pruning";
      out.code = "Infeasible";
    } else if (spec_.engine.incremental_maintenance &&
               aq.extreme_constraints.empty() && !aq.table->spilled()) {
      SketchRefinePath(aq, eo, *bounds, key, layers, &out);
    } else {
      IlpPath(aq, eo, *bounds, layers, &out);
    }
    if (stale && out.code == "OK") out.revalidated = true;
    const bool ok = out.code == "OK";
    if ((ok && out.proven_optimal) || out.strategy == "Pruning" ||
        (ok && out.strategy == "SketchRefine")) {
      result_.Store(key, out);
    }
    return out;
  }

 private:
  struct WarmEntry {
    pb::solver::MilpWarmStart warm;
    bool used = false;
  };

  static Outcome Fail(const pb::Status& s) {
    Outcome out;
    out.code = pb::StatusCodeToString(s.code());
    return out;
  }
  static void SetFailure(const pb::Status& s, Outcome* out) {
    out->code = pb::StatusCodeToString(s.code());
  }

  /// Appends one span (scaled to the metric's unit) and adds it to the
  /// engine-covered total.
  static void Record(std::vector<double>* into, double start, double scale,
                     Layers* layers) {
    const double seconds = Since(start);
    into->push_back(seconds * scale);
    layers->span_seconds += seconds;
  }

  void SketchRefinePath(const pb::paql::AnalyzedQuery& aq,
                        const pb::core::EvaluationOptions& eo,
                        const pb::core::CardinalityBounds& bounds,
                        const std::string& key, Layers* layers, Outcome* out) {
    pb::core::SketchRefineState& state = maintained_.FindOrCreate(key);
    pb::core::SketchRefineOptions sro;
    sro.partition_size = spec_.engine.sketch_partition_size;
    sro.compute = eo.milp.compute;
    sro.milp = eo.milp;
    sro.reuse_group_solutions = spec_.engine.maintenance_reuse_solutions;
    sro.state = &state;
    const double t = NowSeconds();
    auto r = pb::core::SketchRefine(aq, sro);
    Record(&layers->sr_ms, t, 1e3, layers);
    if (!r.ok()) {
      if (r.status().code() == pb::StatusCode::kUnimplemented) {
        IlpPath(aq, eo, bounds, layers, out);
        return;
      }
      out->strategy = "SketchRefine";
      SetFailure(r.status(), out);
      return;
    }
    layers->sr_lp_iterations.push_back(static_cast<double>(r->lp_iterations));
    layers->sr_dirty.push_back(static_cast<double>(r->dirty_groups));
    layers->sr_reused.push_back(static_cast<double>(r->groups_reused));
    out->strategy = "SketchRefine";
    out->lp_iterations = r->lp_iterations;
    out->dirty_groups = r->dirty_groups;
    out->groups_reused = r->groups_reused;
    out->warm_hit = r->state_reused;
    if (!r->found) {
      if (r->cancelled) {
        out->code = "ResourceExhausted";
        return;
      }
      IlpPath(aq, eo, bounds, layers, out);
      return;
    }
    out->package = r->package;
    out->objective = aq.has_objective ? r->objective : 0.0;
  }

  void IlpPath(const pb::paql::AnalyzedQuery& aq,
               const pb::core::EvaluationOptions& eo,
               const pb::core::CardinalityBounds& bounds, Layers* layers,
               Outcome* out) {
    pb::core::TranslateOptions topts;
    if (eo.use_pruning) topts.bounds = &bounds;
    double t = NowSeconds();
    auto translation = pb::core::TranslateToIlp(aq, topts);
    Record(&layers->translate_ms, t, 1e3, layers);
    out->strategy = "IlpSolver";
    if (!translation.ok()) {
      SetFailure(translation.status(), out);
      return;
    }
    layers->ilp_variables.push_back(translation->model.num_variables());
    const uint64_t signature = translation->model.StructuralSignature();
    WarmEntry& entry = warm_.FindOrCreate(signature);
    out->warm_hit = entry.used && entry.warm.model_signature == signature;
    pb::solver::MilpOptions milp = eo.milp;
    milp.warm = &entry.warm;
    t = NowSeconds();
    auto r = pb::solver::SolveMilp(translation->model, milp);
    Record(&layers->solve_ms, t, 1e3, layers);
    if (!r.ok()) {
      SetFailure(r.status(), out);
      return;
    }
    entry.used = true;
    layers->nodes.push_back(static_cast<double>(r->nodes));
    layers->lp_iterations.push_back(static_cast<double>(r->lp_iterations));
    layers->lp_dual_iterations.push_back(
        static_cast<double>(r->lp_dual_iterations));
    layers->lp_refactorizations.push_back(
        static_cast<double>(r->lp_refactorizations));
    layers->presolve_infeasible_children.push_back(
        static_cast<double>(r->presolve_infeasible_children));
    out->nodes = r->nodes;
    out->lp_iterations = r->lp_iterations;
    switch (r->status) {
      case pb::solver::MilpStatus::kOptimal:
      case pb::solver::MilpStatus::kFeasible:
        t = NowSeconds();
        out->package = pb::core::DecodeSolution(*translation, r->x);
        Record(&layers->decode_us, t, 1e6, layers);
        out->objective = aq.has_objective ? r->objective : 0.0;
        out->proven_optimal = r->status == pb::solver::MilpStatus::kOptimal;
        return;
      case pb::solver::MilpStatus::kInfeasible:
        out->code = "Infeasible";
        return;
      case pb::solver::MilpStatus::kUnbounded:
        out->code = "Unbounded";
        return;
      case pb::solver::MilpStatus::kNoSolution:
        out->code = "ResourceExhausted";
        return;
    }
  }

  WorkloadSpec spec_;
  pb::db::Catalog catalog_;
  Lru<std::string, Outcome> result_;
  Lru<uint64_t, WarmEntry> warm_;
  Lru<std::string, pb::core::SketchRefineState> maintained_;
};

/// The server's encoding of an outcome, timed (server.encode_us).
void TimeEncode(const Outcome& o, Layers* layers) {
  pb::engine::QueryResponse resp;
  resp.package = o.package;
  resp.objective = o.objective;
  resp.proven_optimal = o.proven_optimal;
  resp.strategy = o.strategy;
  resp.result_cache_hit = o.cache_hit;
  resp.warm_start_hit = o.warm_hit;
  resp.nodes = o.nodes;
  resp.lp_iterations = o.lp_iterations;
  resp.dirty_groups = o.dirty_groups;
  resp.groups_reused = o.groups_reused;
  resp.revalidated = o.revalidated;
  resp.table_rows = o.table_rows;
  const double t = NowSeconds();
  const std::string line = pb::server::QueryResponseToJson(resp).Dump();
  layers->encode_us.push_back(Since(t) * 1e6);
  layers->encoded_bytes += line.size();
}

/// The reference's outcome, read back from its envelope.
Outcome FromEnvelope(const pb::json::Value& env, double* total_seconds) {
  Outcome o;
  *total_seconds = 0.0;
  if (!env.GetBool("ok")) {
    const pb::json::Value* error = env.Find("error");
    o.code = error != nullptr ? error->GetString("code") : "Malformed";
    return o;
  }
  const pb::json::Value* result = env.Find("result");
  if (result == nullptr) {
    o.code = "Malformed";
    return o;
  }
  o.strategy = result->GetString("strategy");
  o.objective = result->GetNumber("objective");
  if (const pb::json::Value* c = result->Find("counters")) {
    o.nodes = c->GetInt("nodes");
    o.lp_iterations = c->GetInt("lp_iterations");
    o.dirty_groups = c->GetInt("dirty_groups");
    o.groups_reused = c->GetInt("groups_reused");
    o.cache_hit = c->GetBool("result_cache_hit");
    o.warm_hit = c->GetBool("warm_start_hit");
    o.revalidated = c->GetBool("revalidated");
  }
  if (const pb::json::Value* t = result->Find("timings")) {
    *total_seconds = t->GetNumber("total_seconds");
  }
  return o;
}

/// Empty when the two agree on every compared field.
std::string Difference(const Outcome& ref, const Outcome& rep) {
  if (ref.code != rep.code) return "status " + ref.code + " vs " + rep.code;
  if (ref.code != "OK") return "";
  if (ref.strategy != rep.strategy) {
    return "strategy " + ref.strategy + " vs " + rep.strategy;
  }
  auto num = [](const char* what, double a, double b) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %.17g vs %.17g", what, a, b);
    return std::string(buf);
  };
  if (ref.nodes != rep.nodes) return num("nodes", ref.nodes, rep.nodes);
  if (ref.lp_iterations != rep.lp_iterations) {
    return num("lp_iterations", ref.lp_iterations, rep.lp_iterations);
  }
  if (ref.objective != rep.objective) {
    return num("objective", ref.objective, rep.objective);
  }
  if (ref.dirty_groups != rep.dirty_groups) {
    return num("dirty_groups", ref.dirty_groups, rep.dirty_groups);
  }
  if (ref.groups_reused != rep.groups_reused) {
    return num("groups_reused", ref.groups_reused, rep.groups_reused);
  }
  return "";
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

RunResult RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  RunResult out;
  pb::db::Table table = MakeTable(spec);
  const Generator gen(spec, seed, table);

  // ---- Each op through the server (reference), then layer by layer.
  pb::engine::Engine engine(spec.engine);
  if (!engine.RegisterTable(table).ok()) out.correct = false;
  pb::server::Server server(&engine);
  if (!server.Start().ok()) {
    out.correct = false;
    out.attempted = out.failed = 1;
    out.report.push_back("server failed to start");
    return out;
  }
  LineClient conn(server.port());
  Replay replay(spec, std::move(table));
  Layers layers;
  std::vector<Outcome> reference, replayed;
  std::vector<Answer> answers;
  std::vector<double> total_s, overhead_ms, append_ms;
  int64_t op_failures = 0;
  // The two passes run interleaved, op by op, so that a stall of the host
  // lands on both and the span check compares like with like.
  const double stop_at = NowSeconds() + kTracedShare * seconds;
  size_t batch = 0;
  bool appended_last = false;
  while (NowSeconds() < stop_at) {
    if (spec.append_period_s > 0 && !reference.empty() &&
        reference.size() % kQueriesPerAppend == 0 && !appended_last) {
      const double t = NowSeconds();
      auto appended =
          engine.AppendRows(spec.dataset, gen.AppendBatch(batch));
      append_ms.push_back(Since(t) * 1e3);
      if (!appended.ok() || !replay.Append(gen.AppendBatch(batch)).ok()) {
        ++op_failures;
        break;
      }
      ++batch;
      appended_last = true;
      continue;
    }
    appended_last = false;
    const size_t j = reference.size();
    const double t = NowSeconds();
    auto reply = conn.RoundTrip(QueryRequest(spec, gen.Query(j).paql));
    const double round_trip = Since(t);
    auto env = reply.ok() ? pb::json::Parse(*reply)
                          : pb::Result<pb::json::Value>(reply.status());
    if (!env.ok()) {
      ++op_failures;
      break;
    }
    double total = 0.0;
    reference.push_back(FromEnvelope(*env, &total));
    answers.push_back(ParseAnswer(j, *env));
    total_s.push_back(total);
    overhead_ms.push_back((round_trip - total) * 1e3);

    replayed.push_back(replay.Query(gen.Query(j).paql, &layers));
    TimeEncode(replayed.back(), &layers);
  }
  const pb::engine::EngineStats stats = engine.stats();
  server.Stop();

  // ---- Fidelity and answer checks.
  int64_t mismatches = 0;
  std::string first_mismatch;
  for (size_t i = 0; i < reference.size(); ++i) {
    const std::string diff = Difference(reference[i], replayed[i]);
    if (!diff.empty() && mismatches++ == 0) {
      first_mismatch = "query " + std::to_string(i) + ": " + diff;
    }
  }
  std::string problem;
  const int64_t wrong = CheckAnswers(replay.catalog(), gen, answers, &problem);
  int64_t failures = op_failures;
  for (size_t i = 0; i < answers.size(); ++i) {
    const bool expected_error =
        gen.Query(i).expect_infeasible && answers[i].code == "Infeasible";
    if (!answers[i].ok && !expected_error) ++failures;
  }
  const double engine_total = Sum(total_s);
  const double coverage = Ratio(layers.span_seconds, engine_total);
  const bool spans_ok = std::abs(coverage - 1.0) <= kSpanTolerance;

  const int64_t queries = static_cast<int64_t>(reference.size());
  out.attempted = std::max<int64_t>(1, queries + static_cast<int64_t>(batch));
  out.failed = failures + wrong + mismatches + (spans_ok ? 0 : 1);
  out.correct = wrong == 0 && mismatches == 0 && spans_ok;

  int64_t hits = 0, warm = 0, executed = 0, revalidated = 0;
  for (const Outcome& o : reference) {
    hits += o.cache_hit;
    revalidated += o.revalidated;
    if (!o.cache_hit && o.code == "OK") {
      ++executed;
      warm += o.warm_hit;
    }
  }
  auto set = [&](const std::string& name, double value, const char* unit) {
    out.metrics[name] = {value, unit};
  };
  set("solver.solve_ms", Mean(layers.solve_ms), "ms");
  set("solver.nodes", Mean(layers.nodes), "count");
  set("solver.lp_iterations", Mean(layers.lp_iterations), "count");
  set("solver.lp_dual_iterations", Mean(layers.lp_dual_iterations), "count");
  set("solver.lp_refactorizations", Mean(layers.lp_refactorizations), "count");
  set("solver.presolve_infeasible_children",
      Mean(layers.presolve_infeasible_children), "count");
  set("solver.us_per_node",
      Ratio(Sum(layers.solve_ms) * 1e3, Sum(layers.nodes)), "us");
  set("solver.iterations_per_node",
      Ratio(Sum(layers.lp_iterations), Sum(layers.nodes)), "count");
  set("core.translate_ms", Mean(layers.translate_ms), "ms");
  set("core.ilp_variables", Mean(layers.ilp_variables), "count");
  set("core.decode_us", Mean(layers.decode_us), "us");
  set("core.pruning_us", Mean(layers.pruning_us), "us");
  set("core.pruning_short_circuit_share",
      Ratio(static_cast<double>(layers.short_circuits),
            static_cast<double>(layers.pruning_us.size())),
      "share");
  set("core.sr_ms", Mean(layers.sr_ms), "ms");
  set("core.sr_lp_iterations", Mean(layers.sr_lp_iterations), "count");
  set("core.sr_dirty_groups", Mean(layers.sr_dirty), "count");
  set("core.sr_groups_reused", Mean(layers.sr_reused), "count");
  set("core.sr_reuse_share",
      Ratio(Sum(layers.sr_reused),
            Sum(layers.sr_reused) + Sum(layers.sr_dirty)),
      "share");
  set("paql.parse_analyze_us", Mean(layers.parse_us), "us");
  set("db.filter_us", Mean(layers.filter_us), "us");
  set("db.candidate_share", Mean(layers.candidate_share), "share");
  set("db.append_ms", Mean(append_ms), "ms");
  set("engine.execute_ms", Mean(total_s) * 1e3, "ms");
  set("engine.result_cache_hit_share",
      Ratio(static_cast<double>(hits), static_cast<double>(queries)), "share");
  set("engine.warm_hit_share",
      Ratio(static_cast<double>(warm), static_cast<double>(executed)), "share");
  set("engine.revalidation_share",
      Ratio(static_cast<double>(revalidated), static_cast<double>(queries)),
      "share");
  set("engine.overload_rejections",
      static_cast<double>(stats.overload_rejections), "count");
  set("server.encode_us", Mean(layers.encode_us), "us");
  set("server.overhead_ms", Percentile(overhead_ms, 0.5), "ms");
  set("trace.span_coverage", coverage, "share");

  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "traced %lld queries and %zu appends; "
                "fidelity mismatches %lld; "
                "wrong answers %lld; failures %lld",
                static_cast<long long>(queries), batch,
                static_cast<long long>(mismatches),
                static_cast<long long>(wrong),
                static_cast<long long>(failures));
  out.report.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "replay spans %.4f s vs engine total_seconds %.4f s "
                "(coverage %.3f, tolerance +-%.2f)",
                layers.span_seconds, engine_total, coverage, kSpanTolerance);
  out.report.push_back(buf);
  if (mismatches > 0) out.report.push_back("first mismatch: " + first_mismatch);
  if (wrong > 0) out.report.push_back("first wrong answer: " + problem);
  return out;
}

}  // namespace perfbench
