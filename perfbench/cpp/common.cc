// Transport, answer checks and small statistics shared by both modes.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <map>

#include "bench.h"
#include "core/package.h"
#include "paql/analyzer.h"

namespace perfbench {

// ------------------------------------------------------------- transport

LineClient::LineClient(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

pb::Result<std::string> LineClient::RoundTrip(const std::string& line) {
  if (fd_ < 0) return pb::Status::Internal("not connected");
  const std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return pb::Status::Internal("send failed");
    sent += static_cast<size_t>(n);
  }
  for (;;) {
    const size_t eol = buffer_.find('\n');
    if (eol != std::string::npos) {
      std::string reply = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      return reply;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return pb::Status::Internal("connection closed");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

// ---------------------------------------------------------------- checks

namespace {

/// The exact check rejects packages whose decimal-valued aggregates land on
/// a bound after binary rounding (twenty taxes of 0.04 sum to
/// 0.80000000000000027, which fails SUM(tax) <= 0.80). Such a package is
/// accepted when every linear constraint holds within a relative 1e-9 and
/// the base constraints and multiplicity cap hold exactly.
bool ValidWithinTolerance(const pb::paql::AnalyzedQuery& aq,
                          const pb::core::Package& pkg) {
  if (!aq.ilp_translatable || !aq.extreme_constraints.empty()) return false;
  if (aq.requires_nonempty && pkg.empty()) return false;
  auto base = pb::core::SatisfiesBaseConstraints(aq, pkg);
  if (!base.ok() || !*base) return false;
  for (int64_t m : pkg.multiplicity) {
    if (m > aq.max_multiplicity) return false;
  }
  for (const pb::paql::LinearConstraint& c : aq.linear_constraints) {
    double value = 0.0;
    for (const pb::paql::LinearAggTerm& t : c.terms) {
      auto agg = pb::core::EvalPackageAgg(aq.aggs[t.agg_index], *aq.table, pkg);
      if (!agg.ok()) return false;
      auto d = agg->ToDouble();
      if (!d.ok()) return false;
      value += t.coeff * *d;
    }
    // Per side, so an infinite bound gets no (infinite) slack.
    if (value < c.lo - 1e-9 * std::max(1.0, std::abs(c.lo)) ||
        value > c.hi + 1e-9 * std::max(1.0, std::abs(c.hi))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Answer ParseAnswer(size_t query, const pb::json::Value& envelope) {
  Answer a;
  a.query = query;
  a.ok = envelope.GetBool("ok");
  if (!a.ok) {
    const pb::json::Value* error = envelope.Find("error");
    a.code = error != nullptr ? error->GetString("code") : "Malformed";
    a.refused = error != nullptr &&
                error->GetString("message").rfind("server overloaded", 0) == 0;
    return a;
  }
  const pb::json::Value* result = envelope.Find("result");
  if (result == nullptr) {
    a.ok = false;
    a.code = "Malformed";
    return a;
  }
  if (const pb::json::Value* pkg = result->Find("package")) {
    if (const pb::json::Value* rows = pkg->Find("rows")) {
      for (const auto& r : rows->items()) {
        a.rows.push_back(static_cast<size_t>(r.as_int()));
      }
    }
    if (const pb::json::Value* mult = pkg->Find("multiplicity")) {
      for (const auto& m : mult->items()) a.multiplicity.push_back(m.as_int());
    }
  }
  a.objective = result->GetNumber("objective");
  a.proven_optimal = result->GetBool("proven_optimal");
  if (const pb::json::Value* counters = result->Find("counters")) {
    a.table_rows = static_cast<size_t>(counters->GetInt("table_rows"));
  }
  return a;
}

int64_t CheckAnswers(const pb::db::Catalog& mirror, const Generator& gen,
                     const std::vector<Answer>& answers,
                     std::string* first_problem) {
  int64_t wrong = 0;
  auto flag = [&](const std::string& paql, const std::string& why) {
    if (wrong++ == 0) *first_problem = why + " for: " + paql;
  };
  // Analyzed once per distinct text; the mirror holds every appended row,
  // and validity and objective of a package do not depend on rows past it.
  std::map<std::string, pb::Result<pb::paql::AnalyzedQuery>> analyzed;
  std::map<std::string, double> optimum;
  for (const Answer& a : answers) {
    const QuerySpec q = gen.Query(a.query);
    if (q.expect_infeasible) {
      if (a.ok || a.code != "Infeasible") {
        flag(q.paql,
             "expected Infeasible, got " + (a.ok ? "a package" : a.code));
      }
      continue;
    }
    if (!a.ok) continue;  // a failure, counted by the caller
    auto it = analyzed.find(q.paql);
    if (it == analyzed.end()) {
      it = analyzed.emplace(q.paql, pb::paql::ParseAndAnalyze(q.paql, mirror))
               .first;
    }
    if (!it->second.ok()) {
      flag(q.paql, "mirror cannot analyze: " + it->second.status().ToString());
      continue;
    }
    const pb::paql::AnalyzedQuery& aq = *it->second;
    if (a.rows.size() != a.multiplicity.size() || a.rows.empty()) {
      flag(q.paql, "malformed or empty package");
      continue;
    }
    pb::core::Package pkg;
    bool in_range = a.table_rows <= aq.table->num_rows();
    for (size_t i = 0; i < a.rows.size(); ++i) {
      in_range = in_range && a.rows[i] < a.table_rows;
      if (in_range) pkg.Add(a.rows[i], a.multiplicity[i]);
    }
    if (!in_range) {
      flag(q.paql, "package row beyond table_rows");
      continue;
    }
    auto valid = pb::core::IsValidPackage(aq, pkg);
    if (!valid.ok() || (!*valid && !ValidWithinTolerance(aq, pkg))) {
      flag(q.paql, "invalid package");
      continue;
    }
    auto objective = pb::core::PackageObjective(aq, pkg);
    if (!objective.ok() ||
        std::abs(*objective - a.objective) >
            1e-6 * std::max(1.0, std::abs(*objective))) {
      flag(q.paql, "objective does not match the package");
      continue;
    }
    if (a.proven_optimal) {
      // Appends move the optimum, so agreement is per table size.
      auto [opt, fresh] = optimum.emplace(
          q.paql + "@" + std::to_string(a.table_rows), a.objective);
      if (!fresh && std::abs(opt->second - a.objective) >
                        1e-6 * std::max(1.0, std::abs(a.objective))) {
        flag(q.paql, "two proven optima differ");
      }
    }
  }
  return wrong;
}

// ------------------------------------------------------------- utilities

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double PeakRssMiB() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
