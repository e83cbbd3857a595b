// The traced replica of reoptimizer::QueryRunner::Run.
//
// The benchmark measures the engine from outside: instead of putting timers
// inside the program, it drives one statement through the same public
// functions QueryRunner::Run calls, in the same order, and records a span
// around each call:
//
//   optimizer.plan     Planner::Plan / PlanFromMemo / PlanIncremental
//   optimizer.oracle   TrueCardinalityOracle::True over the plan's joins
//   exec.temp_write    Executor::Execute of a TempWrite plan (fused ANALYZE)
//   reopt.rewrite      ColumnsToMaterialize, RewriteWithTemp, re-bind,
//                      MemoTranslationFor, CardinalityModel::Rebind
//   exec.execute       Executor::Execute of the final plan
//
// Next to the spans it counts exact work (oracle subsets computed, DP
// estimates and paths, rows produced and materialized). The benchmark
// checks that every replica result equals QueryRunner::Run's, so the trace
// provably measures the same work the program does.
#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "optimizer/cost_params.h"
#include "reopt/query_runner.h"
#include "stats/stats_catalog.h"
#include "storage/catalog.h"

namespace perfbench {

/// In-memory span recorder. Spans nest by a stack: each one's parent is the
/// span open when it began, and every span carries the statement id set by
/// the caller. Written out only when the run ends.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int statement = -1;
    int lane = 0;  // trace-viewer row: spans on one lane nest
  };

  Tracer() : epoch_(Clock::now()) {}

  void set_statement(int id) { statement_ = id; }
  int Begin(const char* name);
  void End(int span);
  /// Records an already-finished span (the server's reply split).
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
          int lane);
  /// Nanoseconds since the tracer was created.
  int64_t Ns(Clock::time_point t) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int statement_ = -1;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), span_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// Exact work of one statement (or, summed, of a pass). Deterministic for a
/// given database and statement sequence.
struct WorkCounters {
  int64_t oracle_calls = 0;
  int64_t oracle_hits = 0;
  int64_t oracle_computed = 0;
  int64_t plan_estimates = 0;
  int64_t plan_paths = 0;
  int64_t replans = 0;              // planning rounds after round 0
  int64_t replans_incremental = 0;  // ... that carried the previous memo
  int64_t rounds = 0;               // planning rounds, final one included
  int64_t materializations = 0;
  int64_t temp_rows = 0;
  int64_t temp_bytes = 0;
  int64_t exec_rows = 0;  // sum of PlanNode::actual_rows over executed plans

  void Add(const WorkCounters& other);
  bool operator==(const WorkCounters& other) const;
  std::string ToString() const;
};

/// Runs `session`'s query exactly as QueryRunner::Run does with the
/// estimator model, default planner options, one intra-query thread,
/// incremental re-planning on and no knowledge base. Round 0 replays the
/// session's memo stored under the replica's own key when one exists, and
/// stores it otherwise, as Run does under its key.
reopt::common::Result<reopt::reoptimizer::RunResult> TracedRun(
    Tracer* tracer, WorkCounters* counters, reopt::storage::Catalog* catalog,
    reopt::stats::StatsCatalog* stats_catalog,
    const reopt::optimizer::CostParams& params,
    reopt::reoptimizer::QuerySession* session,
    const reopt::reoptimizer::ReoptOptions& reopt);

}  // namespace perfbench

#endif  // PERFBENCH_REPLICA_H_
