// End-to-end run: closed-loop query clients, and on htap-append an append
// writer, against an in-process server on loopback.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "server/server.h"

namespace perfbench {

namespace {

constexpr int kEpisodes = 16;
constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// An engine with the generated table, a started server in front of it,
/// and the priming queries answered.
struct Deployment {
  std::unique_ptr<pb::engine::Engine> engine;
  std::unique_ptr<pb::server::Server> server;
};

pb::Status Deploy(const WorkloadSpec& spec, pb::db::Table table,
                  const Generator& gen, Deployment* d) {
  d->engine = std::make_unique<pb::engine::Engine>(spec.engine);
  PB_RETURN_IF_ERROR(d->engine->RegisterTable(std::move(table)));
  d->server = std::make_unique<pb::server::Server>(d->engine.get());
  PB_RETURN_IF_ERROR(d->server->Start());
  LineClient client(d->server->port());
  if (!client.connected()) return pb::Status::Internal("cannot connect");
  for (const QuerySpec& q : gen.Priming()) {
    PB_ASSIGN_OR_RETURN(std::string reply,
                        client.RoundTrip(QueryRequest(spec, q.paql)));
    PB_ASSIGN_OR_RETURN(pb::json::Value env, pb::json::Parse(reply));
    if (!env.GetBool("ok")) {
      return pb::Status::Internal("priming query failed: " + reply);
    }
  }
  return pb::Status::OK();
}

struct ClientLog {
  std::vector<Answer> answers;
  std::vector<double> latency_ms;  ///< per answer; infinity when failed
  double last_done = 0.0;
};

struct WriterLog {
  std::vector<size_t> committed;     ///< batches the server committed
  std::vector<double> latency_ms;    ///< from due time; infinity when failed
  std::vector<double> lateness_ms;   ///< send time minus due time
  int64_t sent = 0;
};

std::string AppendRequest(const WorkloadSpec& spec,
                          const std::vector<pb::db::Tuple>& rows) {
  pb::json::Value json_rows = pb::json::Value::Array();
  for (const pb::db::Tuple& r : rows) json_rows.Push(TupleToJson(r));
  pb::json::Value req = pb::json::Value::Object();
  req.Set("op", pb::json::Value::Str("append"));
  req.Set("table", pb::json::Value::Str(spec.dataset));
  req.Set("rows", std::move(json_rows));
  return req.Dump();
}

void RunClient(const WorkloadSpec& spec, const Generator& gen, int port,
               size_t first, uint64_t seed, double deadline, ClientLog* log) {
  LineClient conn(port);
  pb::Rng think(Mix(seed, 3'000'000 + first));
  for (size_t j = first; NowSeconds() < deadline;
       j += static_cast<size_t>(spec.clients)) {
    const QuerySpec q = gen.Query(j);
    const std::string request = QueryRequest(spec, q.paql);
    const double start = NowSeconds();
    auto reply = conn.RoundTrip(request);
    const double done = NowSeconds();
    Answer a;
    a.query = j;
    a.code = "Transport";
    if (reply.ok()) {
      auto env = pb::json::Parse(*reply);
      if (env.ok()) a = ParseAnswer(j, *env);
    }
    const bool success =
        a.ok || (q.expect_infeasible && a.code == "Infeasible");
    log->latency_ms.push_back(success ? (done - start) * 1e3 : kFailedLatency);
    log->answers.push_back(std::move(a));
    log->last_done = done;
    if (!reply.ok()) break;
    if (spec.think_s > 0) {
      // Exponential pauses: with a fixed pause the two clients could fall
      // into step with each other, and how often both are between queries
      // at once (when an append can take the catalog lock) would depend on
      // the phase they happened to lock into.
      const double pause =
          -spec.think_s * std::log(1.0 - think.UniformReal(0, 1));
      std::this_thread::sleep_for(std::chrono::duration<double>(pause));
    }
  }
}

/// Sends appends open-loop, one due every spec.append_period_s from `t0`,
/// until `deadline`. A late append does not move the next one's due time.
void RunWriter(const WorkloadSpec& spec, const Generator& gen, int port,
               double t0, double deadline, WriterLog* log) {
  LineClient conn(port);
  for (size_t b = 0;; ++b) {
    const double due = t0 + static_cast<double>(b) * spec.append_period_s;
    if (due >= deadline) break;
    const std::string request = AppendRequest(spec, gen.AppendBatch(b));
    const double wait = due - NowSeconds();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    const double start = NowSeconds();
    auto reply = conn.RoundTrip(request);
    const double done = NowSeconds();
    ++log->sent;
    log->lateness_ms.push_back((start - due) * 1e3);
    bool ok = false;
    if (reply.ok()) {
      auto env = pb::json::Parse(*reply);
      ok = env.ok() && env->GetBool("ok");
    }
    log->latency_ms.push_back(ok ? (done - due) * 1e3 : kFailedLatency);
    if (!ok) break;  // later batches would not line up with the mirror
    log->committed.push_back(b);
  }
}

std::string Line(const char* format, double a, double b = 0, double c = 0,
                 double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

/// Everything one episode measured, pooled by RunEndToEnd.
struct Episode {
  pb::Status setup_status;
  double setup_s = 0.0;
  double duration_s = 0.0;  ///< start of the timed phase to last answer
  std::vector<Answer> answers;
  std::vector<double> latency_ms;
  WriterLog writer;
  int64_t wrong = 0;
  std::string problem;
  bool mirror_ok = true;
  pb::engine::EngineStats stats;
};

/// One deployment: set-up (timed), the timed phase, then the answer checks.
Episode RunEpisode(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Episode ep;
  const double start = NowSeconds();
  pb::db::Table table = MakeTable(spec);
  const Generator gen(spec, seed, table);
  Deployment live;
  ep.setup_status = Deploy(spec, std::move(table), gen, &live);
  ep.setup_s = NowSeconds() - start;
  if (!ep.setup_status.ok()) return ep;
  const int port = live.server->port();

  const double t0 = NowSeconds();
  const double deadline = t0 + seconds;
  std::vector<ClientLog> clients(static_cast<size_t>(spec.clients));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < spec.clients; ++c) {
      threads.emplace_back(RunClient, std::cref(spec), std::cref(gen), port,
                           static_cast<size_t>(c), seed, deadline,
                           &clients[static_cast<size_t>(c)]);
    }
    if (spec.append_period_s > 0) {
      threads.emplace_back(RunWriter, std::cref(spec), std::cref(gen), port,
                           t0, deadline, &ep.writer);
    }
    for (std::thread& t : threads) t.join();
  }
  ep.stats = live.engine->stats();
  // Server first: it holds a pointer to its engine.
  live.server.reset();
  live.engine.reset();

  double last_done = t0;
  for (ClientLog& c : clients) {
    ep.answers.insert(ep.answers.end(), c.answers.begin(), c.answers.end());
    ep.latency_ms.insert(ep.latency_ms.end(), c.latency_ms.begin(),
                         c.latency_ms.end());
    last_done = std::max(last_done, c.last_done);
  }
  ep.duration_s = last_done - t0;

  // The mirror: the same generated table plus every batch the server
  // committed, in order.
  pb::db::Catalog mirror;
  mirror.RegisterOrReplace(MakeTable(spec));
  pb::db::Table* target = *mirror.GetMutable(spec.dataset);
  for (size_t b : ep.writer.committed) {
    ep.mirror_ok = ep.mirror_ok && target->AppendRows(gen.AppendBatch(b)).ok();
  }
  ep.wrong = CheckAnswers(mirror, gen, ep.answers, &ep.problem);
  return ep;
}

}  // namespace

RunResult RunEndToEnd(const WorkloadSpec& spec, uint64_t seed,
                      double seconds) {
  RunResult out;
  // The run is kEpisodes fresh deployments, each with its own request
  // stream, sharing the run's seconds. Caches, warm starts and maintained
  // partitions carry history that makes one stream settle into a faster
  // or slower regime than another, and the host can stall for a while.
  // The query latency percentiles, the throughput and the append p50 are
  // taken per episode and reported as their median over the episodes, so
  // that neither one stream's regime nor one stall moves a run's figure;
  // setup_s is the episodes' median too.
  std::vector<double> setup_s, latency_ms, append_ms, lateness_ms,
      objectives, ep_p50, ep_p95, ep_qps, ep_append_p50;
  double duration_s = 0.0;
  int64_t queries = 0, succeeded = 0, refused = 0, appends_sent = 0,
          appends_ok = 0, wrong = 0;
  pb::engine::EngineStats stats;
  std::string problem;
  for (int e = 0; e < kEpisodes; ++e) {
    // Hand the heap the last episode freed back to the system, so that
    // each episode starts from the same footprint and peak_rss_mb is the
    // largest episode's peak rather than an accident of fragmentation.
    malloc_trim(0);
    Episode ep = RunEpisode(spec, Mix(seed, static_cast<uint64_t>(e)),
                            seconds / kEpisodes);
    setup_s.push_back(ep.setup_s);
    if (!ep.setup_status.ok()) {
      out.correct = false;
      out.attempted = out.failed = 1;
      out.report.push_back("set-up failed: " + ep.setup_status.ToString());
      return out;
    }
    for (size_t i = 0; i < ep.answers.size(); ++i) {
      if (std::isfinite(ep.latency_ms[i])) ++succeeded;
      if (ep.answers[i].refused) ++refused;
      if (ep.answers[i].ok) objectives.push_back(ep.answers[i].objective);
    }
    queries += static_cast<int64_t>(ep.answers.size());
    ep_p50.push_back(Percentile(ep.latency_ms, 0.50));
    ep_p95.push_back(Percentile(ep.latency_ms, 0.95));
    ep_qps.push_back(static_cast<double>(std::count_if(
                         ep.latency_ms.begin(), ep.latency_ms.end(),
                         [](double l) { return std::isfinite(l); })) /
                     std::max(1e-9, ep.duration_s));
    ep_append_p50.push_back(Percentile(ep.writer.latency_ms, 0.50));
    latency_ms.insert(latency_ms.end(), ep.latency_ms.begin(),
                      ep.latency_ms.end());
    append_ms.insert(append_ms.end(), ep.writer.latency_ms.begin(),
                     ep.writer.latency_ms.end());
    lateness_ms.insert(lateness_ms.end(), ep.writer.lateness_ms.begin(),
                       ep.writer.lateness_ms.end());
    appends_sent += ep.writer.sent;
    appends_ok += static_cast<int64_t>(ep.writer.committed.size());
    if (ep.wrong > 0 && wrong == 0) problem = ep.problem;
    wrong += ep.wrong;
    out.correct = out.correct && ep.mirror_ok;
    duration_s += ep.duration_s;
    stats.result_cache_hits += ep.stats.result_cache_hits;
    stats.warm_cache_hits += ep.stats.warm_cache_hits;
    stats.warm_cache_misses += ep.stats.warm_cache_misses;
    stats.revalidations += ep.stats.revalidations;
    stats.overload_rejections += ep.stats.overload_rejections;
  }

  out.attempted = queries + appends_sent;
  out.failed = (queries - succeeded) + (appends_sent - appends_ok) + wrong;
  out.correct = out.correct && wrong == 0;
  const double error_rate =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  auto set = [&](const std::string& name, double value, const char* unit) {
    out.metrics[name] = {value, unit};
  };
  set("latency_p50_ms", Percentile(ep_p50, 0.5), "ms");
  set("throughput_qps", Percentile(ep_qps, 0.5), "1/s");
  set("success_rate", 1.0 - error_rate, "share");
  set("objective_mean", Mean(objectives), "objective");
  set("peak_rss_mb", PeakRssMiB(), "MiB");
  set("setup_s", Percentile(setup_s, 0.5), "s");

  out.report.push_back(Line(
      "queries: sent %.0f succeeded %.0f failed %.0f refused %.0f", queries,
      succeeded, queries - succeeded, refused));
  out.report.push_back(
      Line("wrong answers: %.0f; error_rate %.4f", wrong, error_rate));
  if (wrong > 0) out.report.push_back("first wrong answer: " + problem);
  out.report.push_back(Line(
      "samples over %.0f episodes: %.0f query latencies (%.0f beyond p95), "
      "%.0f append latencies",
      kEpisodes, latency_ms.size(),
      latency_ms.size() - std::ceil(0.95 * latency_ms.size()),
      append_ms.size()));
  out.report.push_back(Line("query p95: median over episodes %.3f ms",
                            Percentile(ep_p95, 0.5)));
  out.report.push_back(Line(
      "pooled over episodes: query p50 %.3f ms, p95 %.3f ms, %.1f/s",
      Percentile(latency_ms, 0.5), Percentile(latency_ms, 0.95),
      static_cast<double>(succeeded) / std::max(1e-9, duration_s)));
  if (spec.append_period_s > 0) {
    out.report.push_back(Line("appends: sent %.0f succeeded %.0f failed %.0f",
                              appends_sent, appends_ok,
                              appends_sent - appends_ok));
    out.report.push_back(Line(
        "append p50: median over episodes %.3f ms; pooled p50 %.3f ms, "
        "p95 %.3f ms",
        Percentile(ep_append_p50, 0.5), Percentile(append_ms, 0.5),
        Percentile(append_ms, 0.95)));
    out.report.push_back(
        Line("append generator lateness: p95 %.3f ms, max %.3f ms",
             Percentile(lateness_ms, 0.95), Percentile(lateness_ms, 1.0)));
  }
  out.report.push_back(Line(
      "engine: result-cache hits %.0f, warm hits %.0f / misses %.0f, "
      "revalidations %.0f",
      stats.result_cache_hits, stats.warm_cache_hits, stats.warm_cache_misses,
      stats.revalidations));
  out.report.push_back(Line(
      "overload rejections %.0f; set-ups: min %.4f s, median %.4f s, "
      "max %.4f s",
      stats.overload_rejections, Percentile(setup_s, 0.0),
      Percentile(setup_s, 0.5), Percentile(setup_s, 1.0)));
  return out;
}

}  // namespace perfbench
