// Shared declarations of pb_perfbench, the end-to-end package-query load
// generator.
//
// It runs one workload per invocation:
//
//   pb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 (load.cc) drives a pb::engine::Engine through an in-process
// pb::server::Server on loopback with closed-loop query clients (and, on
// htap-append, an open-loop append writer), checks every answer, and
// reports the end-to-end metrics.
// --trace 1 (trace.cc) replays the same seeded sequence serially, once
// through the server and once by calling each layer's public function in
// the order Engine::Run does, checks that the two agree, and reports the
// per-layer metrics.
//
// The last line of standard output is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

#ifndef PERFBENCH_CPP_BENCH_H_
#define PERFBENCH_CPP_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "db/catalog.h"
#include "db/table.h"
#include "engine/engine.h"

namespace perfbench {

// ------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string name;
  std::string why;
  std::string dataset;       ///< recipes | lineitem (the queried table)
  size_t rows = 0;           ///< base-table size at the start of a run
  int clients = 2;           ///< closed-loop query connections
  /// A client's mean pause between an answer and its next query (0 = none).
  double think_s = 0.0;
  /// When > 0, a writer appends kAppendBatch rows to the queried table
  /// open-loop beside the clients, one batch due every this many seconds.
  double append_period_s = 0.0;
  int64_t max_nodes = 0;          ///< per-query node budget (0 = default)
  pb::engine::EngineOptions engine;
  std::vector<std::string> layers;  ///< layers the workload loads
};

/// Rows per append.
constexpr size_t kAppendBatch = 50;

/// The workloads by name; NotFound for an unknown name.
pb::Result<WorkloadSpec> FindWorkload(const std::string& name);

/// Per-query deadline: a safety net no query of the workloads comes near.
constexpr double kQueryTimeLimitS = 60.0;

/// One generated query and what its answer must be.
struct QuerySpec {
  std::string paql;
  bool expect_infeasible = false;  ///< pruning-provable: must be Infeasible
};

/// Seeded request streams. Every request is a pure function of (seed,
/// index), so any interleaving of clients sends the same requests and the
/// serial replay can reproduce a prefix exactly.
class Generator {
 public:
  /// `base` is the generated base table (read for lineitem-exact's
  /// distinct candidate cuts).
  Generator(const WorkloadSpec& spec, uint64_t seed, const pb::db::Table& base);

  /// Query number `j` of the global stream; client c of C sends
  /// j = c, c + C, c + 2C, ...
  QuerySpec Query(size_t j) const;
  /// Queries sent once before the timed phase (fills caches and
  /// maintained partitions; never part of the timed stream's checks).
  std::vector<QuerySpec> Priming() const;
  /// Append batch number `b` (rows in the base table's schema).
  std::vector<pb::db::Tuple> AppendBatch(size_t b) const;

 private:
  WorkloadSpec spec_;
  uint64_t seed_;
  std::vector<QuerySpec> hot_;         ///< meal-plan hot set
  std::vector<QuerySpec> maintained_;  ///< htap-append reader cycle
  std::vector<double> cuts_;           ///< lineitem-exact price ceilings
};

/// Seed mixing for per-request RNGs (SplitMix64 finalizer).
uint64_t Mix(uint64_t a, uint64_t b);

/// The generated base table of a run (the table queries read and the writer
/// appends to).
pb::db::Table MakeTable(const WorkloadSpec& spec);

/// A tuple as a JSON row for the server's append op.
pb::json::Value TupleToJson(const pb::db::Tuple& row);

// ---------------------------------------------------------------- checks

/// One query answer as the client saw it.
struct Answer {
  size_t query = 0;  ///< index into the stream (Generator::Query)
  bool ok = false;
  std::string code;      ///< error code when !ok
  bool refused = false;  ///< the server's overload envelope
  std::vector<size_t> rows;
  std::vector<int64_t> multiplicity;
  double objective = 0.0;
  bool proven_optimal = false;
  size_t table_rows = 0;
};

/// Parses a query envelope into an Answer.
Answer ParseAnswer(size_t query, const pb::json::Value& envelope);

/// Checks answers against a client-side mirror of the generated data
/// (every appended row included): expected-infeasible queries came back
/// Infeasible; every package is valid (core::IsValidPackage, or within a
/// relative 1e-9 on its linear constraints), indexes only rows that
/// existed at the answer's table_rows, and has the objective
/// core::PackageObjective recomputes; proven-optimal answers to one query
/// text over one table size agree on the objective. Returns the number of
/// wrong answers; failures (error envelopes) are not wrong answers and are
/// not counted.
int64_t CheckAnswers(const pb::db::Catalog& mirror, const Generator& gen,
                     const std::vector<Answer>& answers,
                     std::string* first_problem);

// ------------------------------------------------------------ transport

/// A blocking newline-framed JSON connection to the server on loopback.
class LineClient {
 public:
  explicit LineClient(int port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return fd_ >= 0; }
  /// Sends one request line and reads one envelope line.
  pb::Result<std::string> RoundTrip(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

// --------------------------------------------------------------- results

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable report lines, printed before the result object.
  std::vector<std::string> report;
};

/// End-to-end run (--trace 0).
RunResult RunEndToEnd(const WorkloadSpec& spec, uint64_t seed,
                      double seconds);
/// Traced serial replay (--trace 1).
RunResult RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds);

// ------------------------------------------------------------- utilities

double NowSeconds();
/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 if empty.
double Percentile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);
/// Peak resident set of this process in MiB.
double PeakRssMiB();
/// Query request line with the workload's budget.
std::string QueryRequest(const WorkloadSpec& spec, const std::string& paql);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_BENCH_H_
