// pbshell — an interactive PaQL shell over the PackageBuilder engine.
//
// The closest console equivalent of the demo's web interface: load CSVs or
// synthetic datasets into the catalog, type PaQL queries (possibly across
// several lines, ';'-terminated), EXPLAIN them, enumerate alternatives, and
// export the winning package. Since the Engine facade landed, the shell is
// a thin client of pb::engine::Engine — the same API pbserve exposes over
// TCP — rather than wiring Catalog + QueryEvaluator by hand.
//
//   ./build/examples/pbshell               # starts with synthetic recipes
//   pb> \help
//   pb> SELECT PACKAGE(R) FROM recipes R
//       SUCH THAT COUNT(*) = 3 AND SUM(calories) BETWEEN 2000 AND 2500
//       MAXIMIZE SUM(protein);
//
// Also usable non-interactively:  echo '...' | pbshell

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "server/protocol.h"

namespace {

struct Shell {
  pb::engine::Engine engine;
  uint64_t session = 0;
  pb::core::Package last_package;
  std::string last_table;
  std::string last_query;

  Shell()
      : engine([] {
          pb::engine::EngineOptions options;
          options.render_packages = true;  // the template screen
          return options;
        }()) {
    session = engine.OpenSession();
  }

  void Help() {
    std::printf(R"(commands:
  \help                      this text
  \tables                    list catalog tables
  \load <path> <name>        load a CSV file as table <name>
  \gen <kind> <n> [seed]     generate a dataset: recipes|travel|stocks|lineitem
  \show <table> [rows]       print a table (default 10 rows)
  \explain <query>;          plan a query without running it
  \all <k> <query>;          enumerate up to k packages (best first)
  \diverse <k> <query>;      enumerate k diverse packages
  \save <path>               write the last result package as CSV
  \spill <table> [blocksize] move a table's columns to disk-backed blocks
  \append <table> <rows>     append JSON rows, e.g. \append t [[1,2.5,"x"]]
  \stats                     engine counters (cache hits, queries, ...)
  \quit                      exit
anything else ending in ';' is evaluated as a PaQL query.
)");
  }

  void Tables() {
    for (const auto& info : engine.Tables()) {
      std::printf("  %-20s %zu rows, %zu columns\n", info.name.c_str(),
                  info.rows, info.columns);
    }
  }

  void Generate(std::istringstream& args) {
    std::string kind;
    size_t n = 1000;
    uint64_t seed = 42;
    args >> kind >> n >> seed;
    auto rows = engine.GenerateDataset(kind, n, seed);
    if (!rows.ok()) {
      std::printf("%s\n", rows.status().ToString().c_str());
      return;
    }
    std::printf("generated %zu rows of %s (seed %llu)\n", *rows,
                kind.c_str(), static_cast<unsigned long long>(seed));
  }

  void Load(std::istringstream& args) {
    std::string path, name;
    args >> path >> name;
    if (name.empty()) {
      std::printf("usage: \\load <path> <name>\n");
      return;
    }
    auto rows = engine.LoadCsv(path, name);
    if (!rows.ok()) {
      std::printf("%s\n", rows.status().ToString().c_str());
      return;
    }
    std::printf("loaded %zu rows into '%s'\n", *rows, name.c_str());
  }

  void Show(std::istringstream& args) {
    std::string name;
    size_t rows = 10;
    args >> name >> rows;
    auto rendered = engine.RenderTable(name, rows);
    if (!rendered.ok()) {
      std::printf("%s\n", rendered.status().ToString().c_str());
      return;
    }
    std::printf("%s", rendered->c_str());
  }

  void Explain(const std::string& query) {
    auto plan = engine.Explain(query);
    if (!plan.ok()) {
      std::printf("%s\n", plan.status().ToString().c_str());
      return;
    }
    std::printf("%s", plan->ToString().c_str());
  }

  void Evaluate(const std::string& query) {
    pb::engine::QueryResponse r = engine.ExecuteQuery(session, query);
    if (!r.ok()) {
      std::printf("%s\n", r.status.ToString().c_str());
      return;
    }
    last_package = r.package;
    last_table = r.table;
    last_query = query;
    if (!r.rendered.empty()) std::printf("%s", r.rendered.c_str());
    std::string objective;
    if (r.has_objective) {
      objective = ", objective " + pb::FormatDouble(r.objective, 6);
    }
    std::printf("[%s, %.2f ms%s%s%s]\n", r.strategy.c_str(),
                r.total_seconds * 1e3, objective.c_str(),
                r.proven_optimal ? ", proven optimal" : "",
                r.result_cache_hit ? ", cached" : "");
  }

  void EvaluateMany(const std::string& query, size_t k, bool diverse) {
    auto packages = engine.Enumerate(query, k, diverse);
    if (!packages.ok()) {
      std::printf("%s\n", packages.status().ToString().c_str());
      return;
    }
    std::printf("%zu package(s):\n", packages->size());
    for (size_t i = 0; i < packages->size(); ++i) {
      auto obj = engine.EvaluateObjective(query, (*packages)[i]);
      std::printf("  #%zu  {%s}", i + 1, (*packages)[i].Fingerprint().c_str());
      if (obj.ok() && *obj != 0.0) {
        std::printf("  objective %s", pb::FormatDouble(*obj, 6).c_str());
      }
      std::printf("\n");
    }
    if (!packages->empty()) {
      last_package = (*packages)[0];
      last_query = query;
      auto table = engine.BaseTable(query);
      last_table = table.ok() ? *table : "";
    }
  }

  void Save(std::istringstream& args) {
    std::string path;
    args >> path;
    if (path.empty() || last_table.empty()) {
      std::printf("nothing to save (run a query first)\n");
      return;
    }
    pb::Status s = engine.WritePackageCsv(last_table, last_package, path);
    std::printf("%s\n",
                s.ok() ? ("wrote " + path).c_str() : s.ToString().c_str());
  }

  void Spill(std::istringstream& args) {
    std::string name;
    size_t block_size = pb::storage::kDefaultBlockSize;
    args >> name >> block_size;
    if (name.empty()) {
      std::printf("usage: \\spill <table> [blocksize]\n");
      return;
    }
    pb::Status s = engine.SpillTable(name, "", block_size);
    if (!s.ok()) {
      std::printf("%s\n", s.ToString().c_str());
      return;
    }
    std::printf("spilled '%s' to zone-mapped segment blocks (%zu values "
                "per block); queries now read through the block cache\n",
                name.c_str(), block_size);
  }

  void Append(std::istringstream& args) {
    std::string name;
    args >> name;
    std::string rows_json;
    std::getline(args, rows_json);
    if (name.empty() || rows_json.empty()) {
      std::printf("usage: \\append <table> <json array of row arrays>\n");
      return;
    }
    auto parsed = pb::json::Parse(rows_json);
    if (!parsed.ok()) {
      std::printf("%s\n", parsed.status().ToString().c_str());
      return;
    }
    auto tuples = pb::server::JsonToRows(*parsed);
    if (!tuples.ok()) {
      std::printf("%s\n", tuples.status().ToString().c_str());
      return;
    }
    auto outcome = engine.AppendRows(name, *std::move(tuples));
    if (!outcome.ok()) {
      std::printf("%s\n", outcome.status().ToString().c_str());
      return;
    }
    std::printf("appended %zu row(s) to '%s' (%zu rows total)%s\n",
                outcome->rows, name.c_str(), outcome->table_rows,
                outcome->full_invalidation
                    ? "; table was spilled — caches fully invalidated"
                    : "");
  }

  void Stats() {
    const pb::engine::EngineStats s = engine.stats();
    std::printf("  queries %lld (errors %lld, cancelled %lld)\n",
                static_cast<long long>(s.queries),
                static_cast<long long>(s.errors),
                static_cast<long long>(s.cancelled));
    std::printf("  result cache hits %lld; warm starts %lld hit / %lld "
                "cold\n",
                static_cast<long long>(s.result_cache_hits),
                static_cast<long long>(s.warm_cache_hits),
                static_cast<long long>(s.warm_cache_misses));
    std::printf("  appends %lld (%lld rows): %lld revalidations, %lld full "
                "invalidations\n",
                static_cast<long long>(s.appends),
                static_cast<long long>(s.rows_appended),
                static_cast<long long>(s.revalidations),
                static_cast<long long>(s.maintenance_full_invalidations));
    std::printf("  block cache: %lld hits / %lld misses, %lld evictions\n",
                static_cast<long long>(s.block_cache_hits),
                static_cast<long long>(s.block_cache_misses),
                static_cast<long long>(s.block_cache_evictions));
    std::printf("  block bytes: %lld cached, %lld pinned (peak %lld)\n",
                static_cast<long long>(s.block_cache_bytes),
                static_cast<long long>(s.block_bytes_pinned),
                static_cast<long long>(s.block_peak_bytes_pinned));
  }

  /// Dispatches one complete input (a '\' command line or a ';' query).
  /// Returns false on \quit.
  bool Dispatch(const std::string& input) {
    std::string text(pb::StripAsciiWhitespace(input));
    if (text.empty()) return true;
    if (text[0] == '\\') {
      std::istringstream args(text.substr(1));
      std::string cmd;
      args >> cmd;
      if (cmd == "quit" || cmd == "q") return false;
      if (cmd == "help") Help();
      else if (cmd == "tables") Tables();
      else if (cmd == "gen") Generate(args);
      else if (cmd == "load") Load(args);
      else if (cmd == "show") Show(args);
      else if (cmd == "save") Save(args);
      else if (cmd == "spill") Spill(args);
      else if (cmd == "append") Append(args);
      else if (cmd == "stats") Stats();
      else if (cmd == "explain" || cmd == "all" || cmd == "diverse") {
        size_t k = 5;
        if (cmd != "explain") args >> k;
        std::string rest;
        std::getline(args, rest);
        while (!rest.empty() && rest.back() == ';') rest.pop_back();
        if (cmd == "explain") Explain(rest);
        else EvaluateMany(rest, k, cmd == "diverse");
      } else {
        std::printf("unknown command '\\%s' (try \\help)\n", cmd.c_str());
      }
      return true;
    }
    std::string query = text;
    while (!query.empty() && query.back() == ';') query.pop_back();
    Evaluate(query);
    return true;
  }
};

}  // namespace

int main() {
  Shell shell;
  auto preload = shell.engine.GenerateDataset("recipes", 500, 42);
  if (!preload.ok()) {
    std::fprintf(stderr, "failed to preload 'recipes': %s\n",
                 preload.status().ToString().c_str());
    return 1;
  }
  std::printf("PackageBuilder shell -- 'recipes' (500 rows) is preloaded; "
              "\\help for commands\n");
  std::string buffer;
  std::string line;
  while (true) {
    std::printf(buffer.empty() ? "pb> " : "  > ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string stripped(pb::StripAsciiWhitespace(line));
    if (buffer.empty() && (stripped.empty() || stripped[0] == '\\')) {
      if (!shell.Dispatch(stripped)) break;
      continue;
    }
    buffer += line + "\n";
    if (!stripped.empty() && stripped.back() == ';') {
      bool keep_going = shell.Dispatch(buffer);
      buffer.clear();
      if (!keep_going) break;
    }
  }
  return 0;
}
