// pb_perfbench: the end-to-end package-query load generator.
//
//   pb_perfbench --workload meal-plan|lineitem-exact|htap-append
//                --seed N --seconds S --trace 0|1
//
// Prints a context line (host, build, workload), report lines starting
// with '#', and as the last line the result object. Refuses to report
// (exit 3) from anything but a Release build with assertions off.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PB_BENCH_BUILD_TYPE
#define PB_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PB_BENCH_COMPILER
#define PB_BENCH_COMPILER "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "pb_perfbench: %s\nusage: pb_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

pb::json::Value Context(const perfbench::WorkloadSpec& spec, uint64_t seed,
                        double seconds, bool trace) {
  using pb::json::Value;
  Value host = Value::Object();
  host.Set("nproc", Value::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  host.Set("hardware_concurrency",
           Value::Int(std::thread::hardware_concurrency()));
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) == 3) {
    Value avg = Value::Array();
    for (double l : load) avg.Push(Value::Number(l));
    host.Set("loadavg", std::move(avg));
  }
  host.Set("build_type", Value::Str(PB_BENCH_BUILD_TYPE));
  host.Set("compiler", Value::Str(PB_BENCH_COMPILER));

  Value layers = Value::Array();
  for (const std::string& l : spec.layers) layers.Push(Value::Str(l));
  Value w = Value::Object();
  w.Set("name", Value::Str(spec.name));
  w.Set("why", Value::Str(spec.why));
  w.Set("table", Value::Str(spec.dataset));
  w.Set("rows", Value::Int(static_cast<int64_t>(spec.rows)));
  w.Set("clients", Value::Int(spec.clients));
  w.Set("queries", Value::Str("closed loop"));
  w.Set("think_s_mean", Value::Number(spec.think_s));
  w.Set("appends", Value::Str(spec.append_period_s > 0
                                  ? "open loop beside the clients"
                                  : "none"));
  w.Set("append_period_s", Value::Number(spec.append_period_s));
  w.Set("append_batch",
        Value::Int(static_cast<int64_t>(perfbench::kAppendBatch)));
  w.Set("max_nodes", Value::Int(spec.max_nodes));
  w.Set("engine_threads", Value::Int(spec.engine.num_threads));
  w.Set("incremental_maintenance",
        Value::Bool(spec.engine.incremental_maintenance));
  w.Set("result_cache_capacity",
        Value::Int(static_cast<int64_t>(spec.engine.result_cache_capacity)));
  w.Set("layers", std::move(layers));

  Value ctx = Value::Object();
  ctx.Set("host", std::move(host));
  ctx.Set("workload", std::move(w));
  ctx.Set("seed", Value::Int(static_cast<int64_t>(seed)));
  ctx.Set("seconds", Value::Number(seconds));
  ctx.Set("trace", Value::Bool(trace));
  Value out = Value::Object();
  out.Set("context", std::move(ctx));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage("missing or invalid arguments");
  }
  auto spec = perfbench::FindWorkload(workload);
  if (!spec.ok()) return Usage(spec.status().message().c_str());

  // Host/build guard: numbers from a debug or assertion-enabled build are
  // not comparable with anything, so they are never reported.
  bool release = std::string(PB_BENCH_BUILD_TYPE) == "Release";
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "pb_perfbench: refusing to report from a '%s' build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
                 PB_BENCH_BUILD_TYPE);
    return 3;
  }

  std::printf("%s\n",
              Context(*spec, static_cast<uint64_t>(seed), seconds, trace == 1)
                  .Dump()
                  .c_str());
  std::fflush(stdout);

  const perfbench::RunResult r =
      trace == 1 ? perfbench::RunTraced(*spec, static_cast<uint64_t>(seed),
                                        seconds)
                 : perfbench::RunEndToEnd(*spec, static_cast<uint64_t>(seed),
                                          seconds);
  for (const std::string& line : r.report) std::printf("# %s\n", line.c_str());

  using pb::json::Value;
  Value metrics = Value::Object();
  for (const auto& [name, m] : r.metrics) {
    Value v = Value::Object();
    // A failed request's latency is infinite; JSON has no infinity.
    v.Set("value", Value::Number(std::isfinite(m.value) ? m.value : 1e12));
    v.Set("unit", Value::Str(m.unit));
    metrics.Set(name, std::move(v));
  }
  Value result = Value::Object();
  result.Set("correct", Value::Bool(r.correct));
  result.Set("attempted", Value::Int(r.attempted));
  result.Set("failed", Value::Int(r.failed));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
