// End-to-end benchmark of reoptdb: one database of one named workload per
// invocation. perfbench/run.py runs it once per database of a seed and
// pools the figures.
//
//   perfbench --workload=job_cold|job_eager|service_zipf --seed=N
//             --database=K --seconds=S --trace=0|1 [--answers=DIR]
//             [--out=DIR] [--record-answers]
//
// Workloads (see README.md for why each exists):
//   job_cold      113 JOB-like statements, each parsed, bound into a fresh
//                 QuerySession and run by one QueryRunner, re-opt at Q-error
//                 32; one client, serial closed loop, scale 1.
//   job_eager     the same at Q-error 2: many more materializations.
//   service_zipf  one SqlServer (2 session workers x 1 intra thread, re-opt
//                 at 32, scale 0.4), warmed with every statement once, then
//                 two closed-loop clients replay a zipf(0.8) stream.
//
// Seed N has kDatabasesPerSeed databases; K picks one. Its data seed, from
// which the IMDB generator and the zipf stream are drawn, is
// N * kDatabasesPerSeed + K. The engine sees only the generated SQL text.
// Every reply is checked against the answer digest committed for
// (scale, data seed) under --answers, or, for a data seed with no committed
// digest, against a re-opt-off run of the same statement.
//
// --trace=0 reports the raw figures of the measured phase (set-up time,
// statements, busy time, every latency, peak RSS); run.py turns those of
// all databases into the end-to-end metrics. --trace=1 runs the traced
// replica (replica.h) and prints the per-layer metrics, after checking that
// the replica's results equal QueryRunner::Run's and that its exact work
// counters repeat between two passes. Spans go to --out as a Chrome
// trace-event file. The last stdout line is the JSON report; the exit code
// is non-zero on any answer mismatch, replica divergence or counter drift.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "imdb/imdb.h"
#include "reopt/query_runner.h"
#include "replica.h"
#include "service/sql_server.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "workload/job_like.h"

namespace {

using namespace reopt;  // NOLINT: benchmark driver
using perfbench::ScopedSpan;
using perfbench::Tracer;
using perfbench::WorkCounters;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct WorkloadDef {
  const char* name;
  double scale;
  double qerror;
  bool service;
};

constexpr WorkloadDef kWorkloads[] = {
    {"job_cold", 1.0, 32.0, false},
    {"job_eager", 1.0, 2.0, false},
    {"service_zipf", 0.4, 32.0, true},
};

constexpr int kServiceWorkers = 2;
constexpr int kServiceClients = 2;
constexpr double kZipfTheta = 0.8;
// Statements per zipf block, and blocks drawn: far more than any run serves.
constexpr double kStreamBlock = 500;
constexpr size_t kStreamBlocks = 400;
// Databases per seed. Each is set up and measured in its own process, so
// its set-up time and peak RSS are those of one database; pooling several
// keeps a run's figures from hinging on how costly one draw of the data
// makes a few statements. run.py holds the same number.
constexpr uint64_t kDatabasesPerSeed = 5;
// Popularity ranking of the statements is part of the workload, not of
// the seed: the seed draws the stream, the ranking stays put, so every
// seed replays the same statement mix.
constexpr uint64_t kPopularitySeed = 0x5EA11CE;
// Statements of the zipf stream the traced service run replays through
// the replica: a fixed count, so its counters are exact per seed.
constexpr size_t kReplicaStreamLength = 226;

struct Options {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 1;
  uint64_t database = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string answers_dir;
  std::string out_dir = ".";
  bool record_answers = false;
};

uint64_t DataSeed(const Options& opt) {
  return opt.seed * kDatabasesPerSeed + opt.database;
}

// ---- the database and its statements -----------------------------------

struct Fixture {
  std::unique_ptr<imdb::ImdbDatabase> db;
  std::vector<std::string> names;
  std::vector<std::string> sql;
  double generate_s = 0.0;
  double build_s = 0.0;
};

Fixture BuildFixture(double scale, uint64_t seed) {
  Fixture f;
  imdb::ImdbOptions options;
  options.scale = scale;
  options.seed = seed;
  const auto t0 = Clock::now();
  f.db = imdb::BuildImdbDatabase(options);
  f.generate_s = SecondsSince(t0);
  const auto t1 = Clock::now();
  auto workload = workload::BuildJobLikeWorkload(f.db->catalog);
  for (const auto& query : workload->queries) {
    f.names.push_back(query->name);
    f.sql.push_back(sql::RenderSql(*query));
  }
  f.build_s = SecondsSince(t1);
  return f;
}

// ---- answers -------------------------------------------------------------

std::string Digest(const std::vector<common::Value>& aggregates,
                   int64_t raw_rows) {
  std::string text;
  for (const common::Value& v : aggregates) text += v.ToString() + "|";
  text += "#" + std::to_string(raw_rows);
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string AnswersPath(const Options& opt) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/scale%g.txt", opt.workload->scale);
  return opt.answers_dir + buf;
}

// The committed digests for `seed`, one per statement, or empty.
std::vector<std::string> LoadAnswers(const std::string& path, uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    uint64_t line_seed = 0;
    if (!(fields >> line_seed) || line_seed != seed) continue;
    std::vector<std::string> digests;
    std::string d;
    while (fields >> d) digests.push_back(d);
    return digests;
  }
  return {};
}

// Parses, binds and runs one statement in a fresh session.
common::Result<reoptimizer::RunResult> RunFresh(
    reoptimizer::QueryRunner* runner, imdb::ImdbDatabase* db,
    const std::string& sql, const reoptimizer::ReoptOptions& reopt) {
  REOPT_ASSIGN_OR_RETURN(sql::ParsedStatement parsed,
                         sql::ParseStatement(sql, db->catalog));
  REOPT_ASSIGN_OR_RETURN(
      auto session, reoptimizer::QuerySession::Create(
                        parsed.query.get(), &db->catalog, &db->stats));
  return runner->Run(session.get(), reoptimizer::ModelSpec::Estimator(),
                     reopt);
}

// Reference digests from an independent plan: re-optimization off, so the
// answers come from different join orders than the measured runs use.
common::Result<std::vector<std::string>> ReferenceDigests(Fixture* f) {
  reoptimizer::QueryRunner runner(&f->db->catalog, &f->db->stats, {});
  std::vector<std::string> digests;
  for (const std::string& sql : f->sql) {
    REOPT_ASSIGN_OR_RETURN(
        reoptimizer::RunResult r,
        RunFresh(&runner, f->db.get(), sql, reoptimizer::ReoptOptions{}));
    digests.push_back(Digest(r.aggregates, r.raw_rows));
  }
  return digests;
}

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  if (rank < 1) rank = 1;
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Effective parallelism: the same spin loop on 1 thread and on every
// hardware thread at once; P * t1 / tP is how many cores really run.
double EffectiveParallelism(int threads) {
  auto spin = [] {
    volatile uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ull + 1;
  };
  auto t0 = Clock::now();
  spin();
  const double one = SecondsSince(t0);
  t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (auto& t : pool) t.join();
  const double all = SecondsSince(t0);
  return threads * one / all;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// ---- run state -----------------------------------------------------------

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  // Raw figures of the measured phase (--trace=0).
  int64_t statements = 0;
  double busy_s = 0.0;  // the time those statements took
  std::vector<double> latency_ms;
  double peak_rss_mb = 0.0;
  // Per-layer metrics (--trace=1).
  std::vector<Metric> metrics;
  // Metrics only this workload has (the server's, on service_zipf): they
  // are reported, but they are not BENCHMARK.json metrics, which every
  // workload must measure.
  std::vector<Metric> workload_metrics;
  std::string trace_file;
  // Answers are recorded while measuring and checked afterwards, so the
  // reference run's memory stays out of peak_rss_mb.
  struct Answer {
    size_t statement;
    std::string digest;  // empty when the statement failed
    std::string error;
  };
  std::vector<Answer> answers;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

void RecordAnswer(Outcome* out, size_t statement,
                  const common::Result<reoptimizer::RunResult>& r) {
  if (r.ok()) {
    out->answers.push_back({statement, Digest(r->aggregates, r->raw_rows), ""});
  } else {
    out->answers.push_back({statement, "", r.status().ToString()});
  }
}

void VerifyAnswers(Outcome* out, const Fixture& f,
                   const std::vector<std::string>& expected) {
  for (const auto& a : out->answers) {
    ++out->attempted;
    if (a.digest.empty()) {
      out->Fail(f.names[a.statement] + ": " + a.error);
    } else if (a.digest != expected[a.statement]) {
      out->Fail(f.names[a.statement] +
                ": answer differs from the reference digest");
    }
  }
}

bool SameResult(const reoptimizer::RunResult& a,
                const reoptimizer::RunResult& b) {
  return a.aggregates == b.aggregates && a.raw_rows == b.raw_rows &&
         a.plan_cost_units == b.plan_cost_units &&
         a.exec_cost_units == b.exec_cost_units &&
         a.num_materializations == b.num_materializations;
}

// ---- traced per-layer report -----------------------------------------------

// Self time in ms per span name.
using LayerTimes = std::map<std::string, double>;

LayerTimes SelfTimes(const std::vector<Tracer::Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  LayerTimes t;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t self = spans[i].end_ns - spans[i].start_ns - child_ns[i];
    t[spans[i].name] += static_cast<double>(self) / 1e6;
  }
  return t;
}

void WriteTrace(const std::string& path,
                const std::vector<Tracer::Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"statement\":%d}}\n",
                  i == 0 ? "" : ",", s.name, s.lane,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.statement);
    out << buf;
  }
  out << "]}\n";
}

// Figures are per pass of `statements` statements; that count is each
// one's sample count.
void AddLayerMetrics(Outcome* out, const LayerTimes& t, double passes,
                     const WorkCounters& c, int64_t statements) {
  auto ms = [&](const char* span) {
    auto it = t.find(span);
    return it == t.end() ? 0.0 : it->second / passes;
  };
  auto ratio = [](int64_t num, int64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  auto add = [&](const char* name, double value, const char* unit) {
    out->metrics.push_back({name, value, unit, statements});
  };
  auto count = [](int64_t n) { return static_cast<double>(n); };
  add("sql.parse_ms", ms("sql.parse"), "ms");
  add("optimizer.bind_ms", ms("optimizer.bind"), "ms");
  add("optimizer.plan_ms", ms("optimizer.plan"), "ms");
  add("optimizer.plan_estimates", count(c.plan_estimates), "count");
  add("optimizer.plan_paths", count(c.plan_paths), "count");
  add("optimizer.plan_incremental_ratio",
      ratio(c.replans_incremental, c.replans), "ratio");
  add("optimizer.oracle_ms", ms("optimizer.oracle"), "ms");
  add("optimizer.oracle_calls", count(c.oracle_calls), "count");
  add("optimizer.oracle_computed", count(c.oracle_computed), "count");
  add("optimizer.oracle_hit_ratio",
      c.oracle_calls == 0 ? 1.0 : ratio(c.oracle_hits, c.oracle_calls),
      "ratio");
  add("exec.execute_ms", ms("exec.execute"), "ms");
  add("exec.rows", count(c.exec_rows), "count");
  add("exec.temp_write_ms", ms("exec.temp_write"), "ms");
  add("exec.temp_rows", count(c.temp_rows), "count");
  add("exec.temp_bytes", count(c.temp_bytes), "bytes");
  add("reopt.rewrite_ms", ms("reopt.rewrite"), "ms");
  add("reopt.rounds", count(c.rounds), "count");
  add("reopt.materializations", count(c.materializations), "count");
}

// ---- job_cold / job_eager ----------------------------------------------

// Runs whole passes over the statements until about `seconds` have passed
// (a new pass starts only if it is expected to end nearer the target than
// stopping now), so every run measures the same statement mix.
void TimedJobPasses(const Options& opt, Fixture* f, Outcome* out) {
  reoptimizer::QueryRunner runner(&f->db->catalog, &f->db->stats, {});
  const auto reopt = bench::ReoptOn(opt.workload->qerror);
  const auto start = Clock::now();
  double pass_s = 0.0;
  do {
    const auto pass_start = Clock::now();
    for (size_t i = 0; i < f->sql.size(); ++i) {
      const auto t0 = Clock::now();
      auto r = RunFresh(&runner, f->db.get(), f->sql[i], reopt);
      out->latency_ms.push_back(SecondsSince(t0) * 1e3);
      RecordAnswer(out, i, r);
    }
    pass_s = SecondsSince(pass_start);
    out->statements += static_cast<int64_t>(f->sql.size());
    out->busy_s += pass_s;
  } while (SecondsSince(start) + pass_s / 2 < opt.seconds);
}

// Two passes; in each, every statement runs untraced through
// QueryRunner::Run and traced through the replica, back to back and in
// turns first (untraced first on the first pass), so both sides of
// trace.overhead_ratio see the same heap and cache state. Replica results
// must match Run's, and counters must repeat exactly between the passes.
void TracedJob(const Options& opt, Fixture* f, Outcome* out) {
  const auto reopt = bench::ReoptOn(opt.workload->qerror);
  reoptimizer::QueryRunner runner(&f->db->catalog, &f->db->stats, {});
  std::vector<reoptimizer::RunResult> reference;
  Tracer tracer;
  std::vector<WorkCounters> per_statement[2];
  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < f->sql.size(); ++i) {
      auto run_untraced = [&] {
        const auto t0 = Clock::now();
        auto r = RunFresh(&runner, f->db.get(), f->sql[i], reopt);
        untraced_s += SecondsSince(t0);
        if (pass == 0) {
          RecordAnswer(out, i, r);
          reference.push_back(r.ok() ? std::move(r.value())
                                     : reoptimizer::RunResult{});
        }
      };
      auto run_traced = [&] {
        const auto t0 = Clock::now();
        tracer.set_statement(static_cast<int>(pass * f->sql.size() + i));
        WorkCounters c;
        common::Result<reoptimizer::RunResult> traced =
            common::Status::Internal("not run");
        {
          ScopedSpan statement(&tracer, "statement");
          traced = [&]() -> common::Result<reoptimizer::RunResult> {
            common::Result<sql::ParsedStatement> parsed =
                common::Status::Internal("not parsed");
            {
              ScopedSpan span(&tracer, "sql.parse");
              parsed = sql::ParseStatement(f->sql[i], f->db->catalog);
            }
            if (!parsed.ok()) return parsed.status();
            common::Result<std::unique_ptr<reoptimizer::QuerySession>>
                session = common::Status::Internal("not bound");
            {
              ScopedSpan span(&tracer, "optimizer.bind");
              session = reoptimizer::QuerySession::Create(
                  parsed->query.get(), &f->db->catalog, &f->db->stats);
            }
            if (!session.ok()) return session.status();
            return perfbench::TracedRun(&tracer, &c, &f->db->catalog,
                                        &f->db->stats, {}, session->get(),
                                        reopt);
          }();
        }
        traced_s += SecondsSince(t0);
        per_statement[pass].push_back(c);
        return traced;
      };
      common::Result<reoptimizer::RunResult> traced =
          common::Status::Internal("not run");
      if (pass == 0) {
        run_untraced();
        traced = run_traced();
      } else {
        traced = run_traced();
        run_untraced();
      }
      ++out->attempted;
      if (!traced.ok()) {
        out->Fail(f->names[i] + " (traced): " + traced.status().ToString());
      } else if (!SameResult(*traced, reference[i])) {
        out->Fail(f->names[i] + ": traced replica diverges from Run");
      }
    }
  }
  WorkCounters total;
  for (size_t i = 0; i < f->sql.size(); ++i) {
    if (!(per_statement[0][i] == per_statement[1][i])) {
      out->Fail(f->names[i] + ": work counters drift between passes: " +
                per_statement[0][i].ToString() + " vs " +
                per_statement[1][i].ToString());
    }
    total.Add(per_statement[0][i]);
  }
  AddLayerMetrics(out, SelfTimes(tracer.spans()), 2.0, total,
                  static_cast<int64_t>(f->sql.size()));
  double sim_s = 0.0;
  for (const auto& r : reference) sim_s += r.total_seconds();
  out->metrics.push_back({"sim.plan_exec_s", sim_s, "sim_s", 1});
  out->metrics.push_back(
      {"trace.overhead_ratio", traced_s / untraced_s, "ratio", 2});
  out->trace_file = opt.out_dir + "/trace_" + opt.workload->name + "_seed" +
                    std::to_string(opt.seed) + "_db" +
                    std::to_string(opt.database) + ".json";
  WriteTrace(out->trace_file, tracer.spans());
}

// ---- service_zipf ----------------------------------------------------------

struct Service {
  std::unique_ptr<service::SqlServer> server;
  std::vector<service::QueryReply> warmup;  // one reply per statement
  double warmup_s = 0.0;
};

Service StartService(Fixture* f) {
  Service s;
  service::ServerOptions options;
  options.session_workers = kServiceWorkers;
  options.intra_query_threads = 1;
  options.reopt = bench::ReoptOn(32.0);
  s.server = std::make_unique<service::SqlServer>(&f->db->catalog,
                                                  &f->db->stats, options);
  const auto t0 = Clock::now();
  service::SqlSession* session = s.server->OpenSession("warmup");
  std::vector<service::TicketPtr> tickets;
  for (const std::string& sql : f->sql) tickets.push_back(session->Submit(sql));
  for (auto& t : tickets) s.warmup.push_back(t->Wait());
  s.warmup_s = SecondsSince(t0);
  return s;
}

reoptimizer::RunResult FromReply(const service::QueryReply& reply) {
  reoptimizer::RunResult r;
  r.aggregates = reply.outcome.aggregates;
  r.raw_rows = reply.outcome.raw_rows;
  r.plan_cost_units = reply.outcome.plan_cost_units;
  r.exec_cost_units = reply.outcome.exec_cost_units;
  r.num_materializations = reply.outcome.num_materializations;
  return r;
}

common::Result<reoptimizer::RunResult> ReplyResult(
    const service::QueryReply& reply) {
  if (!reply.status.ok()) return reply.status;
  return FromReply(reply);
}

// The zipf stream, stratified: each block holds every statement
// round(kStreamBlock * P(rank)) times (at least once) in an order the seed
// shuffles, so the statement mix of whole blocks never varies and the seed
// decides only the sequence.
std::vector<size_t> ZipfBlocks(size_t num_statements, uint64_t seed,
                               size_t num_blocks, size_t* block_length) {
  std::vector<size_t> by_rank(num_statements);
  for (size_t i = 0; i < num_statements; ++i) by_rank[i] = i;
  common::Rng ranking(kPopularitySeed);
  ranking.Shuffle(&by_rank);
  double total = 0.0;
  for (size_t k = 1; k <= num_statements; ++k) {
    total += std::pow(static_cast<double>(k), -kZipfTheta);
  }
  std::vector<size_t> block;
  for (size_t k = 1; k <= num_statements; ++k) {
    const double share = std::pow(static_cast<double>(k), -kZipfTheta) / total;
    const auto copies = std::max<long>(1, std::lround(kStreamBlock * share));
    block.insert(block.end(), static_cast<size_t>(copies), by_rank[k - 1]);
  }
  *block_length = block.size();
  common::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x2545F4914F6CDD1Dull);
  std::vector<size_t> stream;
  for (size_t b = 0; b < num_blocks; ++b) {
    rng.Shuffle(&block);
    stream.insert(stream.end(), block.begin(), block.end());
  }
  return stream;
}

struct ServedStatement {
  size_t position = 0;
  size_t statement = 0;
  int client = 0;
  Clock::time_point submitted;
  double latency_ms = 0.0;
  service::QueryReply reply;
};

// Two closed-loop clients share one cursor over the stream; each waits
// for its reply before submitting the next statement. The first claim at a
// block boundary after the deadline ends the phase, so it serves whole
// blocks only.
std::vector<ServedStatement> ServeStream(service::SqlServer* server,
                                         const Fixture& f,
                                         const std::vector<size_t>& stream,
                                         size_t block_length,
                                         double seconds) {
  std::mutex cursor_mu;
  size_t cursor = 0;
  bool ended = false;
  std::vector<std::vector<ServedStatement>> served(kServiceClients);
  std::vector<service::SqlSession*> sessions;
  for (int c = 0; c < kServiceClients; ++c) {
    sessions.push_back(server->OpenSession("client" + std::to_string(c)));
  }
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kServiceClients; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        size_t pos = 0;
        {
          std::lock_guard<std::mutex> lock(cursor_mu);
          if (!ended && cursor % block_length == 0 &&
              (Clock::now() >= deadline || cursor == stream.size())) {
            ended = true;
          }
          if (ended) break;
          pos = cursor++;
        }
        ServedStatement s;
        s.position = pos;
        s.statement = stream[pos];
        s.client = c;
        s.submitted = Clock::now();
        s.reply = sessions[c]->Submit(f.sql[s.statement])->Wait();
        s.latency_ms = SecondsSince(s.submitted) * 1e3;
        served[c].push_back(std::move(s));
      }
    });
  }
  for (auto& t : clients) t.join();
  std::vector<ServedStatement> all;
  for (auto& v : served) {
    for (auto& s : v) all.push_back(std::move(s));
  }
  std::sort(all.begin(), all.end(),
            [](const ServedStatement& a, const ServedStatement& b) {
              return a.position < b.position;
            });
  return all;
}

void RecordWarmup(const Service& s, Outcome* out) {
  for (size_t i = 0; i < s.warmup.size(); ++i) {
    RecordAnswer(out, i, ReplyResult(s.warmup[i]));
  }
}

// Every timed reply must carry the answer and the exact plan/exec cost of
// the statement's warm-up reply.
void CheckServed(const Fixture& f, const Service& s,
                 const std::vector<ServedStatement>& served, Outcome* out) {
  for (const auto& sv : served) {
    auto r = ReplyResult(sv.reply);
    RecordAnswer(out, sv.statement, r);
    if (r.ok() && !SameResult(*r, FromReply(s.warmup[sv.statement]))) {
      out->Fail(f.names[sv.statement] + ": reply differs from its warm-up");
    }
  }
}

// The phase's busy time runs from the first submission to the last reply.
// A statement's latency is the one the server reports, Submit to reply
// (QueryReply::wall_seconds, queue wait included). It leaves out the client
// thread's wake-up after the reply: on a shared host that wake-up adds
// 0.03 to 0.1 ms, up to a tenth of the median statement, and varies with
// how busy the host is, not with the server.
void TimedService(const Options& opt, Fixture* f, Service* s, Outcome* out) {
  RecordWarmup(*s, out);
  size_t block_length = 0;
  const auto stream =
      ZipfBlocks(f->sql.size(), DataSeed(opt), kStreamBlocks, &block_length);
  const auto start = Clock::now();
  auto served =
      ServeStream(s->server.get(), *f, stream, block_length, opt.seconds);
  out->busy_s = SecondsSince(start);
  CheckServed(*f, *s, served, out);
  out->statements = static_cast<int64_t>(served.size());
  for (const auto& sv : served) {
    out->latency_ms.push_back(sv.reply.wall_seconds * 1e3);
  }
}

// Server spans (Submit -> reply, split by the reply's queue time) for the
// timed phase, then the replica over the first kReplicaStreamLength stream
// statements with warm per-statement sessions, as the server's statement
// cache keeps them.
void TracedService(const Options& opt, Fixture* f, Service* s, Outcome* out) {
  RecordWarmup(*s, out);
  size_t block_length = 0;
  const auto stream =
      ZipfBlocks(f->sql.size(), DataSeed(opt), kStreamBlocks, &block_length);
  Tracer tracer;  // created before the spans it records, so times are >= 0
  auto served =
      ServeStream(s->server.get(), *f, stream, block_length, opt.seconds);
  CheckServed(*f, *s, served, out);

  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  int64_t hits = 0;
  for (const auto& sv : served) {
    tracer.set_statement(static_cast<int>(sv.position));
    const int64_t start = tracer.Ns(sv.submitted);
    const int64_t end = start + static_cast<int64_t>(sv.latency_ms * 1e6);
    const int64_t queued =
        start + static_cast<int64_t>(sv.reply.queue_seconds * 1e9);
    const int lane = 1 + sv.client;
    const int root = tracer.Add("service.statement", start, end, -1, lane);
    tracer.Add("service.queue", start, queued, root, lane);
    tracer.Add("service.exec", queued, end, root, lane);
    queue_ms.push_back(sv.reply.queue_seconds * 1e3);
    exec_ms.push_back((sv.reply.wall_seconds - sv.reply.queue_seconds) * 1e3);
    if (sv.reply.cache_hit) ++hits;
  }

  // The replica's statement cache: parse and bind once per statement (the
  // `fill` spans), warm the session with one QueryRunner::Run and one
  // replica run (each keeps its own round-0 memo), as the server's warm-up
  // does.
  const auto reopt = bench::ReoptOn(32.0);
  reoptimizer::QueryRunner runner(&f->db->catalog, &f->db->stats, {});
  std::vector<sql::ParsedStatement> parsed(f->sql.size());
  std::vector<std::unique_ptr<reoptimizer::QuerySession>> sessions(
      f->sql.size());
  Tracer fill;
  Tracer warm_tracer;
  for (size_t i = 0; i < f->sql.size(); ++i) {
    fill.set_statement(static_cast<int>(i));
    common::Result<sql::ParsedStatement> p =
        common::Status::Internal("not parsed");
    {
      ScopedSpan span(&fill, "sql.parse");
      p = sql::ParseStatement(f->sql[i], f->db->catalog);
    }
    if (!p.ok()) {
      out->Fail(f->names[i] + ": " + p.status().ToString());
      return;
    }
    parsed[i] = std::move(p.value());
    common::Result<std::unique_ptr<reoptimizer::QuerySession>> session =
        common::Status::Internal("not bound");
    {
      ScopedSpan span(&fill, "optimizer.bind");
      session = reoptimizer::QuerySession::Create(
          parsed[i].query.get(), &f->db->catalog, &f->db->stats);
    }
    if (!session.ok()) {
      out->Fail(f->names[i] + ": " + session.status().ToString());
      return;
    }
    sessions[i] = std::move(session.value());
    (void)runner.Run(sessions[i].get(), reoptimizer::ModelSpec::Estimator(),
                     reopt);
    WorkCounters ignored;
    (void)perfbench::TracedRun(&warm_tracer, &ignored, &f->db->catalog,
                               &f->db->stats, {}, sessions[i].get(), reopt);
  }

  // Each stream statement runs untraced through QueryRunner::Run and
  // traced through the replica, back to back and in turns first; the
  // replica must give the same result.
  const size_t n = std::min(kReplicaStreamLength, stream.size());
  Tracer replica;
  WorkCounters total;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (size_t pos = 0; pos < n; ++pos) {
    const size_t i = stream[pos];
    common::Result<reoptimizer::RunResult> reference =
        common::Status::Internal("not run");
    common::Result<reoptimizer::RunResult> traced = reference;
    auto run_untraced = [&] {
      const auto t0 = Clock::now();
      reference = runner.Run(sessions[i].get(),
                             reoptimizer::ModelSpec::Estimator(), reopt);
      untraced_s += SecondsSince(t0);
    };
    auto run_traced = [&] {
      const auto t0 = Clock::now();
      replica.set_statement(static_cast<int>(pos));
      {
        ScopedSpan statement(&replica, "statement");
        traced = perfbench::TracedRun(&replica, &total, &f->db->catalog,
                                      &f->db->stats, {}, sessions[i].get(),
                                      reopt);
      }
      traced_s += SecondsSince(t0);
    };
    if (pos % 2 == 0) {
      run_untraced();
      run_traced();
    } else {
      run_traced();
      run_untraced();
    }
    ++out->attempted;
    if (!traced.ok() || !reference.ok() || !SameResult(*traced, *reference)) {
      out->Fail(f->names[i] + ": traced replica diverges from Run");
    }
  }

  // Per-layer figures are per kReplicaStreamLength stream statements,
  // except parse and bind: the timed stream does neither, so theirs are the
  // statement-cache fill, one parse and one bind per statement.
  LayerTimes times = SelfTimes(replica.spans());
  const LayerTimes fill_times = SelfTimes(fill.spans());
  for (const char* span : {"sql.parse", "optimizer.bind"}) {
    times[span] = fill_times.at(span);
  }
  AddLayerMetrics(out, times, 1.0, total, static_cast<int64_t>(n));
  auto& m = out->metrics;
  m.push_back({"trace.overhead_ratio", traced_s / untraced_s, "ratio", 1});
  double sim_s = 0.0;
  for (const auto& w : s->warmup) {
    sim_s += common::CostUnitsToSeconds(w.outcome.plan_cost_units +
                                        w.outcome.exec_cost_units);
  }
  m.push_back({"sim.plan_exec_s", sim_s, "sim_s", 1});
  auto& w = out->workload_metrics;
  const auto served_n = static_cast<int64_t>(served.size());
  w.push_back({"service.queue_wait_p50_ms", Percentile(queue_ms, 0.5), "ms",
               served_n});
  w.push_back({"service.queue_wait_p99_ms", Percentile(queue_ms, 0.99), "ms",
               served_n});
  w.push_back({"service.exec_ms", Median(exec_ms), "ms", served_n});
  w.push_back({"service.cache_hit_ratio",
               served.empty() ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(served.size()),
               "ratio", served_n});

  // One file: the server's spans, then the replica's on their own lane,
  // shifted to start after the last reply.
  std::vector<Tracer::Span> spans = tracer.spans();
  int64_t offset = 0;
  for (const auto& sp : spans) offset = std::max(offset, sp.end_ns);
  const int base = static_cast<int>(spans.size());
  for (Tracer::Span sp : replica.spans()) {
    sp.start_ns += offset;
    sp.end_ns += offset;
    if (sp.parent >= 0) sp.parent += base;
    spans.push_back(sp);
  }
  out->trace_file = opt.out_dir + "/trace_" + opt.workload->name + "_seed" +
                    std::to_string(opt.seed) + "_db" +
                    std::to_string(opt.database) + ".json";
  WriteTrace(out->trace_file, spans);
}

// ---- driver ---------------------------------------------------------------

bool ParseOptions(int argc, char** argv, Options* opt) {
  const std::string name = bench::BenchFlagString(argc, argv, "--workload", "");
  for (const auto& w : kWorkloads) {
    if (name == w.name) opt->workload = &w;
  }
  if (opt->workload == nullptr) {
    std::fprintf(stderr,
                 "perfbench: --workload must be job_cold, job_eager or "
                 "service_zipf (got \"%s\")\n",
                 name.c_str());
    return false;
  }
  opt->seed = static_cast<uint64_t>(
      bench::BenchFlagInt(argc, argv, "--seed", 0, 1L << 40, 1));
  opt->database = static_cast<uint64_t>(bench::BenchFlagInt(
      argc, argv, "--database", 0,
      static_cast<long>(kDatabasesPerSeed) - 1, 0));
  opt->seconds = bench::BenchFlagDouble(argc, argv, "--seconds", 0.1, 3600, 10);
  opt->trace = bench::BenchFlagInt(argc, argv, "--trace", 0, 1, 0) == 1;
  opt->answers_dir = bench::BenchFlagString(argc, argv, "--answers", "");
  opt->out_dir = bench::BenchFlagString(argc, argv, "--out", ".");
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--record-answers") opt->record_answers = true;
  }
  return true;
}

// Appends the (scale, seed) digest line once the re-opt-off reference and
// both re-opt thresholds agree on every statement.
int RecordAnswers(const Options& opt, Fixture* f) {
  auto reference = ReferenceDigests(f);
  if (!reference.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  reoptimizer::QueryRunner runner(&f->db->catalog, &f->db->stats, {});
  for (double q : {32.0, 2.0}) {
    for (size_t i = 0; i < f->sql.size(); ++i) {
      auto r = RunFresh(&runner, f->db.get(), f->sql[i], bench::ReoptOn(q));
      if (!r.ok() || Digest(r->aggregates, r->raw_rows) != (*reference)[i]) {
        std::fprintf(stderr, "perfbench: %s disagrees at Q-error %g\n",
                     f->names[i].c_str(), q);
        return 1;
      }
    }
  }
  std::ofstream out(AnswersPath(opt), std::ios::app);
  out << DataSeed(opt);
  for (const auto& d : *reference) out << ' ' << d;
  out << '\n';
  std::fprintf(stderr, "perfbench: recorded %zu digests for data seed %llu\n",
               reference->size(),
               static_cast<unsigned long long>(DataSeed(opt)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) return 2;

  const auto setup_start = Clock::now();
  Fixture fixture = BuildFixture(opt.workload->scale, DataSeed(opt));
  if (opt.record_answers) return RecordAnswers(opt, &fixture);
  Service service;
  if (opt.workload->service) service = StartService(&fixture);
  const double setup_s = SecondsSince(setup_start);

  Outcome out;
  if (!opt.trace) {
    if (opt.workload->service) {
      TimedService(opt, &fixture, &service, &out);
    } else {
      TimedJobPasses(opt, &fixture, &out);
    }
    out.peak_rss_mb = PeakRssMb();
  } else {
    if (opt.workload->service) {
      TracedService(opt, &fixture, &service, &out);
      out.workload_metrics.push_back(
          {"service.warmup_s", service.warmup_s, "s", 1});
    } else {
      TracedJob(opt, &fixture, &out);
    }
    out.metrics.push_back({"imdb.generate_s", fixture.generate_s, "s", 1});
    out.metrics.push_back({"workload.build_s", fixture.build_s, "s", 1});
  }
  if (service.server != nullptr) service.server->Shutdown();

  const auto check_start = Clock::now();
  std::vector<std::string> expected =
      LoadAnswers(AnswersPath(opt), DataSeed(opt));
  const bool committed = expected.size() == fixture.sql.size();
  if (!committed) {
    auto reference = ReferenceDigests(&fixture);
    if (!reference.ok()) {
      std::fprintf(stderr, "perfbench: reference run failed: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    expected = std::move(reference.value());
  }
  VerifyAnswers(&out, fixture, expected);
  const double reference_s = SecondsSince(check_start);

  for (const auto& e : out.errors) {
    std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  }

  // One JSON object on the last line.
  std::ostringstream json;
  json.precision(17);
  json << "{\"workload\":\"" << opt.workload->name << "\",\"env\":{"
       << "\"scale\":" << opt.workload->scale << ",\"seed\":" << opt.seed
       << ",\"database\":" << opt.database << ",\"data_seed\":" << DataSeed(opt)
       << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
       << JsonEscape(PERFBENCH_COMPILER) << "\",\"nproc\":"
       << std::thread::hardware_concurrency();
  // The calibration takes up to a second on a busy machine; the first
  // database's process takes it for the whole run.
  if (opt.database == 0) {
    json << ",\"effective_parallelism\":"
         << EffectiveParallelism(
                static_cast<int>(std::thread::hardware_concurrency()));
  }
  json << ",\"answers\":\"" << (committed ? "committed" : "reopt-off reference")
       << "\",\"reference_s\":" << reference_s << "},\"correct\":"
       << (out.failed == 0 && out.attempted > 0 ? "true" : "false")
       << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
       << ",\"trace_file\":\"" << JsonEscape(out.trace_file) << "\""
       << ",\"setup_s\":" << setup_s << ",\"statements\":" << out.statements
       << ",\"busy_s\":" << out.busy_s << ",\"peak_rss_mb\":" << out.peak_rss_mb
       << ",\"latency_ms\":[";
  for (size_t i = 0; i < out.latency_ms.size(); ++i) {
    json << (i == 0 ? "" : ",") << out.latency_ms[i];
  }
  json << "]";
  auto write_metrics = [&json](const char* key,
                               const std::vector<Metric>& metrics) {
    json << ",\"" << key << "\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      json << (i == 0 ? "" : ",") << "\"" << m.name << "\":{\"value\":"
           << m.value << ",\"unit\":\"" << m.unit
           << "\",\"samples\":" << m.samples << "}";
    }
    json << "}";
  };
  write_metrics("metrics", out.metrics);
  write_metrics("workload_metrics", out.workload_metrics);
  json << "}";
  std::printf("%s\n", json.str().c_str());
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
