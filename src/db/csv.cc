#include "db/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace pb::db {

namespace {

/// Splits one CSV line honoring double-quoted fields with "" escapes.
std::vector<std::string> SplitCsvLine(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Reads the next line, dropping a trailing '\r'; false at end of stream.
bool NextLine(std::istream& in, std::string* line) {
  if (!std::getline(in, *line)) return false;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return true;
}

}  // namespace

Result<Table> ReadCsv(std::istream& in, const std::string& table_name,
                      const CsvOptions& options) {
  // Two streaming passes over the input — infer (names, arity, types),
  // rewind, append — so ingest memory is one line plus the table itself,
  // never a parsed copy of the whole file. Non-seekable streams (pipes)
  // are slurped into a string once so the second pass has a rewind target.
  std::istringstream buffered;
  std::istream* src = &in;
  std::streampos start = in.tellg();
  if (start == std::streampos(-1)) {
    std::ostringstream slurp;
    slurp << in.rdbuf();
    buffered.str(slurp.str());
    src = &buffered;
    start = 0;
  }

  // Pass 1: header names, per-row arity, and per-column type evidence
  // (INT if every non-empty cell parses as an int, DOUBLE if all parse as
  // numbers, STRING otherwise).
  std::vector<std::string> names;
  std::vector<char> all_int, all_num, any_value;
  size_t ncols = 0;
  size_t line_no = 0;  // 1-based over recorded lines, header included
  std::string line;
  while (NextLine(*src, &line)) {
    if (line.empty() && line_no == 0) continue;  // skip leading blank lines
    ++line_no;
    std::vector<std::string> fields = SplitCsvLine(line, options.separator);
    if (line_no == 1) {
      ncols = fields.size();
      all_int.assign(ncols, 1);
      all_num.assign(ncols, 1);
      any_value.assign(ncols, 0);
      if (options.has_header) {
        for (const auto& h : fields) {
          names.emplace_back(StripAsciiWhitespace(h));
        }
        continue;
      }
      for (size_t i = 0; i < ncols; ++i) {
        names.push_back("c" + std::to_string(i));
      }
    }
    if (fields.size() != ncols) {
      return Status::ParseError(
          "CSV row " + std::to_string(line_no) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(ncols));
    }
    for (size_t c = 0; c < ncols; ++c) {
      const std::string& cell = fields[c];
      if (cell.empty()) continue;
      any_value[c] = 1;
      int64_t iv;
      double dv;
      if (all_int[c] && !ParseInt(cell, &iv)) all_int[c] = 0;
      if (all_num[c] && !ParseDouble(cell, &dv)) {
        all_num[c] = 0;
        all_int[c] = 0;
      }
    }
  }
  if (line_no == 0) {
    return Status::ParseError("empty CSV input for table '" + table_name + "'");
  }

  std::vector<ValueType> types(ncols, ValueType::kString);
  if (options.infer_types) {
    for (size_t c = 0; c < ncols; ++c) {
      if (!any_value[c]) continue;  // all-NULL column stays STRING
      if (all_int[c]) {
        types[c] = ValueType::kInt;
      } else if (all_num[c]) {
        types[c] = ValueType::kDouble;
      }
    }
  }

  Schema schema;
  for (size_t c = 0; c < ncols; ++c) {
    PB_RETURN_IF_ERROR(schema.AddColumn({names[c], types[c]}));
  }
  Table table(table_name, std::move(schema));

  // Pass 2: append through RowAppender, straight into the column vectors.
  src->clear();
  src->seekg(start);
  if (!*src) {
    return Status::Internal("cannot rewind CSV stream for the append pass");
  }
  bool first = true;
  while (NextLine(*src, &line)) {
    if (line.empty() && first) continue;
    std::vector<std::string> fields = SplitCsvLine(line, options.separator);
    if (first) {
      first = false;
      if (options.has_header) continue;
    }
    if (fields.size() != ncols) {
      return Status::Internal("CSV input changed between ingest passes");
    }
    RowAppender row = table.StartRow();
    for (size_t c = 0; c < ncols; ++c) {
      const std::string& cell = fields[c];
      if (cell.empty()) {
        row.Null();
        continue;
      }
      switch (types[c]) {
        case ValueType::kInt: {
          int64_t v = 0;
          ParseInt(cell, &v);
          row.Int(v);
          break;
        }
        case ValueType::kDouble: {
          double v = 0;
          ParseDouble(cell, &v);
          row.Double(v);
          break;
        }
        default:
          row.String(cell);
      }
    }
    row.Finish();
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path,
                          const std::string& table_name,
                          const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  return ReadCsv(in, table_name, options);
}

Status WriteCsv(const Table& table, std::ostream& out,
                const CsvOptions& options) {
  auto quote = [&](const std::string& s) {
    bool needs = s.find(options.separator) != std::string::npos ||
                 s.find('"') != std::string::npos ||
                 s.find('\n') != std::string::npos;
    if (!needs) return s;
    std::string q = "\"";
    for (char c : s) {
      if (c == '"') q += "\"\"";
      else q += c;
    }
    q += "\"";
    return q;
  };
  if (options.has_header) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      if (c > 0) out << options.separator;
      out << quote(table.schema().column(c).name);
    }
    out << "\n";
  }
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const Tuple row = table.row(i);
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << options.separator;
      if (!row[c].is_null()) out << quote(row[c].ToString());
    }
    out << "\n";
  }
  return Status::OK();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  return WriteCsv(table, out, options);
}

}  // namespace pb::db
