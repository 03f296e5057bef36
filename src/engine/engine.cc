#include "engine/engine.h"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/enumerator.h"
#include "core/translator.h"
#include "datagen/lineitem.h"
#include "datagen/recipes.h"
#include "datagen/stocks.h"
#include "datagen/travel.h"
#include "db/csv.h"
#include "paql/analyzer.h"
#include "storage/storage_budget.h"
#include "ui/template.h"

namespace pb::engine {

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  num_threads_ = options_.num_threads > 0
                     ? options_.num_threads
                     : std::max(1u, std::thread::hardware_concurrency());
  pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(num_threads_));
  unclaimed_threads_.store(num_threads_, std::memory_order_relaxed);
}

Engine::~Engine() {
  // Drain and join the pool before any member it references goes away.
  pool_.reset();
}

// ---------------------------------------------------------------- catalog

Status Engine::RegisterTable(db::Table table) {
  WriterMutexLock lock(&catalog_mu_);
  Status s = catalog_.Register(std::move(table));
  if (s.ok()) ++catalog_generation_;
  return s;
}

void Engine::RegisterOrReplaceTable(db::Table table) {
  WriterMutexLock lock(&catalog_mu_);
  catalog_.RegisterOrReplace(std::move(table));
  ++catalog_generation_;
}

Status Engine::DropTable(const std::string& name) {
  WriterMutexLock lock(&catalog_mu_);
  Status s = catalog_.Drop(name);
  if (s.ok()) ++catalog_generation_;
  return s;
}

Result<size_t> Engine::LoadCsv(const std::string& path,
                               const std::string& name) {
  // File IO happens outside the catalog lock.
  PB_ASSIGN_OR_RETURN(db::Table table, db::ReadCsvFile(path, name));
  const size_t rows = table.num_rows();
  RegisterOrReplaceTable(std::move(table));
  return rows;
}

Result<size_t> Engine::GenerateDataset(const std::string& kind, size_t n,
                                       uint64_t seed) {
  db::Table table;
  if (kind == "recipes") {
    table = datagen::GenerateRecipes(n, seed);
  } else if (kind == "travel") {
    table = datagen::GenerateTravelItems(n, seed);
  } else if (kind == "stocks") {
    table = datagen::GenerateStocks(n, seed);
  } else if (kind == "lineitem") {
    table = datagen::GenerateLineitems(n, seed);
  } else {
    return Status::InvalidArgument(
        "unknown dataset kind '" + kind +
        "' (expected recipes|travel|stocks|lineitem)");
  }
  const size_t rows = table.num_rows();
  RegisterOrReplaceTable(std::move(table));
  return rows;
}

std::vector<std::string> Engine::TableNames() const {
  ReaderMutexLock lock(&catalog_mu_);
  return catalog_.TableNames();
}

std::vector<Engine::TableInfo> Engine::Tables() const {
  ReaderMutexLock lock(&catalog_mu_);
  std::vector<TableInfo> out;
  for (const std::string& name : catalog_.TableNames()) {
    auto table = catalog_.Get(name);
    if (!table.ok()) continue;
    out.push_back(
        {name, (*table)->num_rows(), (*table)->schema().num_columns()});
  }
  return out;
}

Result<std::string> Engine::RenderTable(const std::string& name,
                                        size_t max_rows) const {
  ReaderMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(const db::Table* table, catalog_.Get(name));
  return table->ToString(max_rows);
}

Status Engine::SpillTable(const std::string& name, const std::string& dir,
                          size_t block_size) {
  WriterMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(db::Table * table, catalog_.GetMutable(name));
  std::error_code ec;
  std::string base = dir;
  if (base.empty()) {
    base = std::filesystem::temp_directory_path(ec).string();
    if (ec) base = ".";
  }
  // Generation in the name keeps re-spills of a reloaded table from
  // colliding; the file is created O_EXCL-free but unlinked on close.
  const std::string path = base + "/pb_" + table->name() + "_g" +
                           std::to_string(catalog_generation_) + ".seg";
  PB_RETURN_IF_ERROR(table->SpillToDisk(path, block_size));
  // Results are bit-identical, but bump the generation anyway: cached
  // responses carry timings/counters that no longer describe the layout.
  ++catalog_generation_;
  return Status::OK();
}

Result<Engine::AppendOutcome> Engine::AppendRows(const std::string& name,
                                                 std::vector<db::Tuple> rows) {
  WriterMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(db::Table * table, catalog_.GetMutable(name));
  AppendOutcome out;
  out.rows = rows.size();
  if (table->spilled()) {
    // Spilled tables are append-frozen: read the blocks back, grow the
    // resident table, and bump the generation — the full-invalidation
    // fallback. Every cached result and maintained partition over the old
    // layout starts over (the spill counters no longer describe it).
    PB_RETURN_IF_ERROR(table->Unspill());
    PB_RETURN_IF_ERROR(table->AppendRows(std::move(rows)));
    ++catalog_generation_;
    out.full_invalidation = true;
    MutexLock slock(&stats_mu_);
    ++stats_.maintenance_full_invalidations;
  } else {
    // The incremental path: no generation bump. Cached results stay
    // addressable and revalidate against the new row count at hit time;
    // maintained partitions absorb the rows as dirty-group work.
    PB_RETURN_IF_ERROR(table->AppendRows(std::move(rows)));
  }
  out.table_rows = table->num_rows();
  MutexLock slock(&stats_mu_);
  ++stats_.appends;
  stats_.rows_appended += static_cast<int64_t>(out.rows);
  return out;
}

// ---------------------------------------------------------------- sessions

uint64_t Engine::OpenSession() {
  MutexLock lock(&sessions_mu_);
  const uint64_t id = next_session_++;
  sessions_.emplace(id, std::make_shared<Session>());
  return id;
}

Status Engine::CloseSession(uint64_t session) {
  MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session " + std::to_string(session));
  }
  // An in-flight query keeps its shared_ptr; cancel it on the way out so
  // closing a session never leaves work running on its behalf.
  {
    MutexLock slock(&it->second->mu);
    if (it->second->active.valid()) it->second->active.RequestCancel();
  }
  sessions_.erase(it);
  return Status::OK();
}

Status Engine::CancelSession(uint64_t session) {
  std::shared_ptr<Session> s = FindSession(session);
  if (!s) {
    return Status::NotFound("unknown session " + std::to_string(session));
  }
  MutexLock lock(&s->mu);
  if (s->active.valid()) s->active.RequestCancel();
  return Status::OK();
}

std::shared_ptr<Engine::Session> Engine::FindSession(uint64_t id) {
  MutexLock lock(&sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

// ------------------------------------------------------------------ caches

bool Engine::LookupResultCache(const std::string& key, QueryResponse* out) {
  MutexLock lock(&result_mu_);
  auto it = result_map_.find(key);
  if (it == result_map_.end()) return false;
  result_lru_.splice(result_lru_.begin(), result_lru_, it->second);
  *out = it->second->second;
  out->result_cache_hit = true;
  // Timings describe THIS call, not the original solve.
  out->parse_seconds = 0.0;
  out->solve_seconds = 0.0;
  out->total_seconds = 0.0;
  return true;
}

void Engine::StoreResultCache(const std::string& key,
                              const QueryResponse& resp) {
  if (options_.result_cache_capacity == 0) return;
  MutexLock lock(&result_mu_);
  auto it = result_map_.find(key);
  if (it != result_map_.end()) {
    result_lru_.splice(result_lru_.begin(), result_lru_, it->second);
    it->second->second = resp;
    return;
  }
  result_lru_.emplace_front(key, resp);
  result_map_[key] = result_lru_.begin();
  while (result_map_.size() > options_.result_cache_capacity) {
    result_map_.erase(result_lru_.back().first);
    result_lru_.pop_back();
  }
}

std::shared_ptr<Engine::WarmEntry> Engine::GetWarmEntry(uint64_t signature) {
  MutexLock lock(&warm_mu_);
  auto it = warm_map_.find(signature);
  if (it != warm_map_.end()) {
    warm_lru_.splice(warm_lru_.begin(), warm_lru_, it->second.lru);
    return it->second.entry;
  }
  warm_lru_.push_front(signature);
  auto entry = std::make_shared<WarmEntry>();
  warm_map_[signature] = {warm_lru_.begin(), entry};
  while (warm_map_.size() > std::max<size_t>(1, options_.warm_cache_capacity)) {
    // In-flight solves keep their shared_ptr; eviction only drops the
    // cache's reference.
    warm_map_.erase(warm_lru_.back());
    warm_lru_.pop_back();
  }
  return entry;
}

std::shared_ptr<Engine::MaintenanceEntry> Engine::GetMaintenanceEntry(
    const std::string& query_key) {
  MutexLock lock(&maint_mu_);
  auto it = maint_map_.find(query_key);
  if (it != maint_map_.end()) {
    maint_lru_.splice(maint_lru_.begin(), maint_lru_, it->second.lru);
    return it->second.entry;
  }
  maint_lru_.push_front(query_key);
  auto entry = std::make_shared<MaintenanceEntry>();
  maint_map_[query_key] = {maint_lru_.begin(), entry};
  while (maint_map_.size() >
         std::max<size_t>(1, options_.maintenance_cache_capacity)) {
    // In-flight solves keep their shared_ptr; eviction only drops the
    // cache's reference.
    maint_map_.erase(maint_lru_.back());
    maint_lru_.pop_back();
  }
  return entry;
}

// ----------------------------------------------------------- thread ledger

int Engine::AcquireThreads(int requested) {
  requested = std::max(1, requested);
  int avail = unclaimed_threads_.load(std::memory_order_relaxed);
  int take = 0;
  do {
    take = std::min(requested, std::max(0, avail));
    if (take == 0) return 0;
  } while (!unclaimed_threads_.compare_exchange_weak(
      avail, avail - take, std::memory_order_relaxed));
  return take;
}

void Engine::ReleaseThreads(int claimed) {
  if (claimed > 0) {
    unclaimed_threads_.fetch_add(claimed, std::memory_order_relaxed);
  }
}

// ----------------------------------------------------------------- queries

QueryResponse Engine::ExecuteQuery(uint64_t session_id,
                                   const std::string& paql,
                                   const QueryBudget& budget) {
  Stopwatch total;
  // Every query gets a live token so CancelSession always has a target.
  CancelToken token =
      budget.cancel.valid() ? budget.cancel : CancelToken::Create();

  std::shared_ptr<Session> session;
  if (session_id != 0) {
    session = FindSession(session_id);
    if (!session) {
      QueryResponse resp;
      resp.status =
          Status::NotFound("unknown session " + std::to_string(session_id));
      resp.total_seconds = total.ElapsedSeconds();
      MutexLock lock(&stats_mu_);
      ++stats_.queries;
      ++stats_.errors;
      return resp;
    }
    MutexLock lock(&session->mu);
    session->active = token;
  }

  QueryResponse resp = Run(paql, budget, token);

  if (session) {
    MutexLock lock(&session->mu);
    session->active = CancelToken();
  }
  resp.total_seconds = total.ElapsedSeconds();

  MutexLock lock(&stats_mu_);
  ++stats_.queries;
  if (!resp.status.ok()) ++stats_.errors;
  if (resp.cancelled) ++stats_.cancelled;
  if (resp.result_cache_hit) ++stats_.result_cache_hits;
  if (resp.revalidated) ++stats_.revalidations;
  return resp;
}

bool Engine::SubmitQuery(uint64_t session, std::string paql,
                         QueryBudget budget,
                         std::function<void(QueryResponse)> done) {
  const int64_t in_flight = pending_.fetch_add(1, std::memory_order_acq_rel);
  if (in_flight >= static_cast<int64_t>(options_.max_pending_queries)) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    MutexLock lock(&stats_mu_);
    ++stats_.overload_rejections;
    return false;
  }
  pool_->Submit([this, session, paql = std::move(paql), budget,
                 done = std::move(done)]() mutable {
    QueryResponse resp = ExecuteQuery(session, paql, budget);
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    done(std::move(resp));
  });
  return true;
}

QueryResponse Engine::Run(const std::string& paql, const QueryBudget& budget,
                          const CancelToken& token) {
  QueryResponse resp;
  ReaderMutexLock catalog_lock(&catalog_mu_);

  const std::string normalized = std::string(StripAsciiWhitespace(paql));
  const std::string key =
      std::to_string(catalog_generation_) + "\n" + normalized;
  // Third cache state: a hit whose base table has grown since the entry
  // was stored (same generation — appends do not bump it) is neither
  // served nor dropped. It falls through to a fresh solve, which the
  // maintained partition turns into dirty-group work, and the refreshed
  // response overwrites the entry ("revalidation").
  bool stale_by_append = false;
  if (LookupResultCache(key, &resp)) {
    bool fresh = true;
    if (!resp.table.empty()) {
      auto table_or = catalog_.Get(resp.table);
      fresh = table_or.ok() && (*table_or)->num_rows() == resp.table_rows;
    }
    if (fresh) return resp;
    stale_by_append = true;
    resp = QueryResponse();
  }

  Stopwatch parse_timer;
  auto aq_or = paql::ParseAndAnalyze(paql, catalog_);
  resp.parse_seconds = parse_timer.ElapsedSeconds();
  if (!aq_or.ok()) {
    resp.status = aq_or.status();
    return resp;
  }
  const paql::AnalyzedQuery& aq = *aq_or;
  resp.table = aq.table->name();
  resp.has_objective = aq.has_objective;
  resp.table_rows = aq.table->num_rows();

  // Budget: the deadline covers the whole call; each strategy's own limit
  // is clamped to the time remaining when it starts.
  const double limit = budget.time_limit_s > 0.0
                           ? budget.time_limit_s
                           : options_.defaults.milp.time_limit_s;
  const Deadline deadline = Deadline::AfterSeconds(limit);
  const int claimed = AcquireThreads(ResolveThreads(budget.compute.threads));

  core::EvaluationOptions eo = options_.defaults;
  eo.milp.cancel = token;
  eo.milp.time_limit_s = deadline.SecondsRemaining();
  if (budget.max_nodes > 0) eo.milp.max_nodes = budget.max_nodes;
  eo.milp.compute.threads = std::max(1, claimed);
  eo.local_search.time_limit_s =
      std::min(eo.local_search.time_limit_s, deadline.SecondsRemaining());
  eo.brute_force.time_limit_s =
      std::min(eo.brute_force.time_limit_s, deadline.SecondsRemaining());

  // Storage budget: bulk block pins on this thread charge it; 0 means
  // count-only. Per-cell compatibility reads bypass it by design, so a
  // tight budget degrades to ResourceExhausted on bulk scans, never to
  // wrong answers.
  storage::StorageBudget storage_budget =
      storage::StorageBudget::Limited(budget.max_pinned_bytes);
  storage::StorageBudgetScope storage_scope(storage_budget);

  Stopwatch solve_timer;
  // One plan decides the route; the engine adds its warm-start and
  // maintained-partition caches around the ILP and SketchRefine routes.
  Result<core::QueryPlan> plan =
      core::PlanQuery(aq, eo, options_.incremental_maintenance);
  core::Strategy answered = core::Strategy::kAuto;
  if (!plan.ok()) {
    resp.status = plan.status();
  } else {
    resp.num_candidates = plan->candidates;
    resp.zone_map_skipped_blocks = plan->bounds.zone_map_skipped_blocks;
    switch (plan->chosen_strategy) {
      case core::Strategy::kSketchRefine:
        answered = RunSketchRefinePath(aq, *plan, eo, normalized, &resp);
        break;
      case core::Strategy::kIlpSolver:
        answered = RunIlpPath(aq, *plan, eo, &resp);
        break;
      default:
        answered = RunEvaluatorPath(aq, *plan, eo, &resp);
        break;
    }
  }
  if (answered != core::Strategy::kAuto) {
    resp.strategy = core::StrategyToString(answered);
  }
  resp.solve_seconds = solve_timer.ElapsedSeconds();
  resp.storage_peak_pinned_bytes = storage_budget.peak_pinned_bytes();
  ReleaseThreads(claimed);

  if (resp.status.ok() && options_.render_packages) {
    auto screen =
        ui::RenderPackageTemplate(aq, resp.package, {.show_paql = false});
    if (screen.ok()) resp.rendered = *std::move(screen);
  }

  if (stale_by_append && resp.status.ok()) resp.revalidated = true;

  // Cache answers that replay deterministically: optimal completions, and
  // what a cacheable route answered itself (pruning proofs; maintained
  // SketchRefine packages, which a deterministic solver over the
  // maintained partition reproduces bit-for-bit). Heuristic, limited,
  // cancelled and fallback answers could legally differ on a re-run.
  const bool replays = plan.ok() && plan->cacheable &&
                       answered == plan->chosen_strategy;
  const bool answer =
      resp.status.ok() || answered == core::Strategy::kPruning;
  if (answer && !resp.cancelled && (resp.proven_optimal || replays)) {
    StoreResultCache(key, resp);
  }
  return resp;
}

core::Strategy Engine::RunSketchRefinePath(const paql::AnalyzedQuery& aq,
                                           const core::QueryPlan& plan,
                                           const core::EvaluationOptions& eo,
                                           const std::string& query_key,
                                           QueryResponse* resp) {
  std::shared_ptr<MaintenanceEntry> entry = GetMaintenanceEntry(query_key);

  core::SketchRefineOptions sro;
  sro.partition_size = options_.sketch_partition_size;
  sro.compute = eo.milp.compute;
  sro.milp = eo.milp;
  sro.reuse_group_solutions = options_.maintenance_reuse_solutions;

  Stopwatch maintenance_timer;
  const uint64_t generation = catalog_generation_;
  Result<core::SketchRefineResult> r_or =
      [&]() -> Result<core::SketchRefineResult> {
    // SketchRefineState, like MilpWarmStart, is not thread-safe; the
    // entry mutex serializes the solves that share this query's state.
    MutexLock lock(&entry->mu);
    if (entry->generation != generation) {
      // Any non-append mutation since the state was built: rebuild from
      // scratch (appends leave the generation alone on purpose).
      entry->state = core::SketchRefineState();
      entry->generation = generation;
    }
    sro.state = &entry->state;
    return core::SketchRefine(aq, sro);
  }();
  if (!r_or.ok()) {
    resp->status = r_or.status();
    return core::Strategy::kSketchRefine;
  }
  const core::SketchRefineResult& r = *r_or;
  resp->cancelled = r.cancelled;
  resp->lp_iterations = r.lp_iterations;
  resp->zone_map_skipped_blocks += r.zone_map_skipped_blocks;
  resp->dirty_groups = r.dirty_groups;
  resp->groups_reused = r.groups_reused;
  resp->warm_start_hit = r.state_reused;
  if (r.state_reused) {
    resp->maintenance_ms = maintenance_timer.ElapsedSeconds() * 1000.0;
  }
  if (!r.found) {
    if (r.cancelled) {
      resp->status = Status::ResourceExhausted(
          "query cancelled before a package was found");
      return core::Strategy::kSketchRefine;
    }
    // The plan's fallback: the approximation came back empty-handed (e.g.
    // backtracking exhausted), so the exact route answers instead.
    return RunIlpPath(aq, plan, eo, resp);
  }
  resp->package = r.package;
  resp->objective = aq.has_objective ? r.objective : 0.0;
  resp->proven_optimal = false;
  return core::Strategy::kSketchRefine;
}

namespace {

/// Copies an evaluator answer into the response.
void CopyAnswer(core::EvaluationResult r, QueryResponse* resp) {
  resp->package = std::move(r.package);
  resp->objective = r.objective;
  resp->proven_optimal = r.proven_optimal;
  if (r.milp) {
    resp->nodes = r.milp->nodes;
    resp->lp_iterations = r.milp->lp_iterations;
    resp->cancelled = r.milp->cancelled;
  }
}

}  // namespace

core::Strategy Engine::RunIlpPath(const paql::AnalyzedQuery& aq,
                                  const core::QueryPlan& plan,
                                  const core::EvaluationOptions& eo,
                                  QueryResponse* resp) {
  core::TranslateOptions topts;
  if (eo.use_pruning) topts.bounds = &plan.bounds;
  auto translation_or = core::TranslateToIlp(aq, topts);
  if (!translation_or.ok()) {
    // A query the translator rejects takes the plan's fallback.
    if (translation_or.status().code() == StatusCode::kUnimplemented) {
      return RunEvaluatorPath(aq, plan, eo, resp);
    }
    resp->status = translation_or.status();
    return core::Strategy::kIlpSolver;
  }
  const core::IlpTranslation& translation = *translation_or;
  const uint64_t signature = translation.model.StructuralSignature();
  resp->model_signature = signature;

  std::shared_ptr<WarmEntry> entry = GetWarmEntry(signature);
  solver::MilpOptions milp = eo.milp;
  solver::MilpResult r;
  {
    // MilpWarmStart is not thread-safe; the entry mutex serializes the
    // solves that share this structural signature.
    MutexLock lock(&entry->mu);
    resp->warm_start_hit =
        entry->used && entry->warm.model_signature == signature;
    milp.warm = &entry->warm;
    auto result_or = solver::SolveMilp(translation.model, milp);
    if (!result_or.ok()) {
      resp->status = result_or.status();
      return core::Strategy::kIlpSolver;
    }
    r = *std::move(result_or);
    entry->used = true;
  }
  {
    MutexLock lock(&stats_mu_);
    ++(resp->warm_start_hit ? stats_.warm_cache_hits
                            : stats_.warm_cache_misses);
  }

  resp->cancelled = r.cancelled;
  resp->nodes = r.nodes;
  resp->lp_iterations = r.lp_iterations;
  auto answer = core::IlpAnswer(aq, translation, std::move(r));
  if (!answer.ok()) {
    resp->status = answer.status();
  } else {
    CopyAnswer(*std::move(answer), resp);
  }
  return core::Strategy::kIlpSolver;
}

core::Strategy Engine::RunEvaluatorPath(const paql::AnalyzedQuery& aq,
                                        const core::QueryPlan& plan,
                                        const core::EvaluationOptions& eo,
                                        QueryResponse* resp) {
  auto result_or = core::ExecutePlan(aq, plan, eo);
  if (!result_or.ok()) {
    resp->status = result_or.status();
    if (result_or.status().code() == StatusCode::kResourceExhausted &&
        eo.milp.cancel.cancel_requested()) {
      resp->cancelled = true;
    }
    // A failed route names itself when no fallback can have run instead.
    return plan.fallback ? core::Strategy::kAuto : plan.chosen_strategy;
  }
  const core::Strategy used = result_or->strategy_used;
  CopyAnswer(*std::move(result_or), resp);
  return used;
}

// --------------------------------------------------------- facade wrappers

Result<core::QueryPlan> Engine::Explain(const std::string& paql) const {
  ReaderMutexLock lock(&catalog_mu_);
  return core::ExplainQuery(paql, catalog_, options_.defaults,
                            options_.incremental_maintenance);
}

Result<std::vector<core::Package>> Engine::Enumerate(const std::string& paql,
                                                     size_t k,
                                                     bool diverse) const {
  ReaderMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, catalog_));
  if (diverse) return core::EnumerateDiverse(aq, k);
  aq.query.limit = static_cast<int64_t>(k);
  return core::QueryEvaluator(&catalog_).EvaluateAll(aq, options_.defaults);
}

Status Engine::WritePackageCsv(const std::string& table,
                               const core::Package& package,
                               const std::string& path) const {
  ReaderMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(const db::Table* base, catalog_.Get(table));
  db::Table materialized =
      core::MaterializePackage(*base, package, "package");
  return db::WriteCsvFile(materialized, path);
}

Result<std::string> Engine::BaseTable(const std::string& paql) const {
  ReaderMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, catalog_));
  return aq.table->name();
}

Result<double> Engine::EvaluateObjective(const std::string& paql,
                                         const core::Package& package) const {
  ReaderMutexLock lock(&catalog_mu_);
  PB_ASSIGN_OR_RETURN(paql::AnalyzedQuery aq,
                      paql::ParseAndAnalyze(paql, catalog_));
  return core::PackageObjective(aq, package);
}

EngineStats Engine::stats() const {
  EngineStats out;
  {
    MutexLock lock(&stats_mu_);
    out = stats_;
  }
  // Block-cache counters are process-wide (the cache is shared by every
  // engine in the process), snapshotted here so one stats() call tells the
  // whole storage story.
  const storage::BlockCacheStats bc = storage::BlockCache::Default()->stats();
  out.block_cache_hits = static_cast<int64_t>(bc.hits);
  out.block_cache_misses = static_cast<int64_t>(bc.misses);
  out.block_cache_evictions = static_cast<int64_t>(bc.evictions);
  out.block_cache_bytes = bc.bytes_cached;
  out.block_bytes_pinned = bc.bytes_pinned;
  out.block_peak_bytes_pinned = bc.peak_bytes_pinned;
  return out;
}

}  // namespace pb::engine
