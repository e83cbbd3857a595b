#include "replica.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "common/scope_guard.h"
#include "exec/executor.h"
#include "optimizer/cardinality_model.h"
#include "optimizer/planner.h"
#include "optimizer/query_context.h"
#include "optimizer/true_cardinality.h"
#include "plan/physical_plan.h"
#include "reopt/rewrite.h"

namespace perfbench {

using namespace reopt;  // NOLINT: benchmark driver

int Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = Ns(Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  span.statement = statement_;
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[span].end_ns = Ns(Clock::now());
  open_.pop_back();
}

int Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                int parent, int lane) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.statement = statement_;
  span.lane = lane;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

int64_t Tracer::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

void WorkCounters::Add(const WorkCounters& o) {
  oracle_calls += o.oracle_calls;
  oracle_hits += o.oracle_hits;
  oracle_computed += o.oracle_computed;
  plan_estimates += o.plan_estimates;
  plan_paths += o.plan_paths;
  replans += o.replans;
  replans_incremental += o.replans_incremental;
  rounds += o.rounds;
  materializations += o.materializations;
  temp_rows += o.temp_rows;
  temp_bytes += o.temp_bytes;
  exec_rows += o.exec_rows;
}

bool WorkCounters::operator==(const WorkCounters& o) const {
  return oracle_calls == o.oracle_calls && oracle_hits == o.oracle_hits &&
         oracle_computed == o.oracle_computed &&
         plan_estimates == o.plan_estimates && plan_paths == o.plan_paths &&
         replans == o.replans &&
         replans_incremental == o.replans_incremental &&
         rounds == o.rounds && materializations == o.materializations &&
         temp_rows == o.temp_rows && temp_bytes == o.temp_bytes &&
         exec_rows == o.exec_rows;
}

std::string WorkCounters::ToString() const {
  std::ostringstream out;
  out << "oracle_computed=" << oracle_computed
      << " plan_estimates=" << plan_estimates << " plan_paths=" << plan_paths
      << " materializations=" << materializations
      << " temp_rows=" << temp_rows << " exec_rows=" << exec_rows;
  return out.str();
}

namespace {

// Round-0 memo key of the replica. QueryRunner keys its memos by its own
// private scheme, so the two never share an entry; each replays only what
// it stored itself, which is the same DP table.
constexpr uint64_t kReplicaMemoKey = 0x7e91ca5e00000001ull;

int64_t SumActualRows(const plan::PlanNode& root) {
  int64_t rows = 0;
  root.PostOrderConst([&rows](const plan::PlanNode* node) {
    if (node->actual_rows > 0) rows += static_cast<int64_t>(node->actual_rows);
  });
  return rows;
}

}  // namespace

common::Result<reoptimizer::RunResult> TracedRun(
    Tracer* tracer, WorkCounters* counters, storage::Catalog* catalog,
    stats::StatsCatalog* stats_catalog, const optimizer::CostParams& params,
    reoptimizer::QuerySession* session,
    const reoptimizer::ReoptOptions& reopt) {
  reoptimizer::RunResult result;
  exec::Executor executor(catalog, stats_catalog, params);
  const optimizer::PlannerOptions planner_options;

  std::vector<std::unique_ptr<plan::QuerySpec>> owned_specs;
  std::vector<std::unique_ptr<optimizer::QueryContext>> owned_ctxs;
  std::vector<std::unique_ptr<optimizer::TrueCardinalityOracle>>
      owned_oracles;
  std::vector<std::string> temp_tables;
  common::ScopeGuard drop_temps([&]() {
    for (const std::string& name : temp_tables) {
      (void)catalog->DropTable(name);
      stats_catalog->Remove(name);
    }
  });

  const plan::QuerySpec* spec = &session->spec();
  optimizer::QueryContext* ctx = session->ctx();
  optimizer::TrueCardinalityOracle* oracle = session->oracle();
  auto model = std::make_unique<optimizer::EstimatorModel>(ctx);
  std::shared_ptr<const optimizer::PlanMemo> cached =
      session->FindPlanMemo(kReplicaMemoKey);
  optimizer::PlanMemo prev_memo;
  optimizer::MemoTranslation translation;

  for (int round = 0;; ++round) {
    common::Result<optimizer::PlannerResult> planned =
        common::Status::Internal("not planned");
    {
      ScopedSpan span(tracer, "optimizer.plan");
      optimizer::Planner planner(ctx, model.get(), params, planner_options);
      planned = round == 0 ? (cached != nullptr ? planner.PlanFromMemo(*cached)
                                                : planner.Plan())
                           : planner.PlanIncremental(prev_memo, translation);
      if (!planned.ok()) return planned.status();
      prev_memo = planner.TakeMemo();
      if (round == 0 && cached == nullptr) {
        session->StorePlanMemo(kReplicaMemoKey, prev_memo);
      }
    }
    result.plan_cost_units += planned->planning_cost_units;
    ++counters->rounds;
    // A memo replay re-costs nothing, though its result reports the
    // simulated charge of a full plan; count only DP that actually ran.
    if (round > 0 || cached == nullptr) {
      counters->plan_estimates += planned->num_estimates;
      counters->plan_paths += planned->num_paths;
    }
    if (round > 0) {
      ++counters->replans;
      if (planned->used_incremental) ++counters->replans_incremental;
    }

    plan::PlanNode* offender = nullptr;
    double offender_q = 0.0;
    if (reopt.enabled && round < reopt.max_rounds &&
        planned->root->est_cost >= reopt.min_plan_cost_units) {
      ScopedSpan span(tracer, "optimizer.oracle");
      planned->root->PostOrder([&](plan::PlanNode* node) {
        if (!node->is_join()) return;
        const double est = std::max(1.0, node->est_rows);
        const int64_t computed_before = oracle->num_computed();
        const double truth = std::max(1.0, oracle->True(node->rels));
        const int64_t computed = oracle->num_computed() - computed_before;
        ++counters->oracle_calls;
        counters->oracle_computed += computed;
        if (computed == 0) ++counters->oracle_hits;
        const double q = std::max(truth / est, est / truth);
        if (q <= reopt.qerror_threshold) return;
        const bool lower =
            offender == nullptr ||
            node->rels.count() < offender->rels.count() ||
            (node->rels.count() == offender->rels.count() &&
             node->rels.bits() < offender->rels.bits());
        if (lower) {
          offender = node;
          offender_q = q;
        }
      });
    }

    if (offender == nullptr) {
      ScopedSpan span(tracer, "exec.execute");
      auto executed = executor.Execute(*spec, planned->root.get());
      if (!executed.ok()) return executed.status();
      counters->exec_rows += SumActualRows(*planned->root);
      result.aggregates = std::move(executed->aggregates);
      result.raw_rows = executed->raw_rows;
      result.exec_cost_units += executed->cost_units;
      reoptimizer::RoundRecord record;
      record.subset = planned->root->rels;
      record.plan_cost_units = planned->planning_cost_units;
      record.exec_cost_units = executed->cost_units;
      result.rounds.push_back(record);
      break;
    }

    const plan::RelSet subset = offender->rels;
    std::vector<plan::ColumnRef> temp_cols;
    std::unique_ptr<plan::PlanNode> write;
    {
      ScopedSpan span(tracer, "reopt.rewrite");
      temp_cols = reoptimizer::ColumnsToMaterialize(*spec, subset);
      write = std::make_unique<plan::PlanNode>();
      write->op = plan::PlanOp::kTempWrite;
      write->rels = subset;
      write->est_rows = offender->est_rows;
      write->temp_table_name = catalog->NextTempName();
      write->temp_columns = temp_cols;
      write->left = plan::ClonePlan(*offender);
      write->est_cost = write->left->est_cost;
    }
    const std::string temp_name = write->temp_table_name;
    temp_tables.push_back(temp_name);
    {
      ScopedSpan span(tracer, "exec.temp_write");
      auto executed = executor.Execute(*spec, write.get());
      if (!executed.ok()) return executed.status();
      counters->exec_rows += SumActualRows(*write);
      result.exec_cost_units += executed->cost_units;
      ++result.num_materializations;
      const int64_t bytes =
          executed->raw_rows * static_cast<int64_t>(temp_cols.size()) * 8;
      result.materialized_rows += executed->raw_rows;
      result.materialized_bytes += bytes;
      ++counters->materializations;
      counters->temp_rows += executed->raw_rows;
      counters->temp_bytes += bytes;

      reoptimizer::RoundRecord record;
      record.materialized = true;
      record.subset = subset;
      record.qerror = offender_q;
      record.est_rows = offender->est_rows;
      record.true_rows = static_cast<double>(executed->raw_rows);
      record.plan_cost_units = planned->planning_cost_units;
      record.exec_cost_units = executed->cost_units;
      result.rounds.push_back(record);
    }

    ScopedSpan span(tracer, "reopt.rewrite");
    reoptimizer::RewriteInfo rewrite_info;
    owned_specs.push_back(reoptimizer::RewriteWithTemp(
        *spec, subset, temp_name, temp_cols, round, &rewrite_info));
    const plan::QuerySpec* old_spec = spec;
    spec = owned_specs.back().get();
    auto bound = optimizer::QueryContext::Bind(spec, catalog, stats_catalog);
    if (!bound.ok()) return bound.status();
    owned_ctxs.push_back(std::move(bound.value()));
    ctx = owned_ctxs.back().get();
    owned_oracles.push_back(
        std::make_unique<optimizer::TrueCardinalityOracle>(ctx));
    oracle = owned_oracles.back().get();
    translation = reoptimizer::MemoTranslationFor(*old_spec, *spec, subset,
                                                  rewrite_info);
    model->Rebind(ctx, oracle);
  }
  return result;
}

}  // namespace perfbench
