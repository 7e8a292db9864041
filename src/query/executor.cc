// Copyright 2026 The AmnesiaDB Authors

#include "query/executor.h"

#include <algorithm>
#include <optional>
#include <thread>

#include "common/stats.h"
#include "obs/engine_metrics.h"
#include "obs/trace.h"
#include "query/profile.h"
#include "query/vector_kernels.h"

namespace amnesia {

namespace {

// Upper bound on the per-query thread count; a defensive cap, not a tuning
// parameter (scan parallelism saturates memory bandwidth far earlier).
constexpr int kMaxParallelism = 256;

// The plan an aggregate actually runs: the single-pass scan kernel serves
// full scans and the no-index fallback; everything else probes the index.
PlanKind EffectiveAggregatePlan(const ExecOptions& options,
                                const IndexManager* indexes) {
  return (options.plan == PlanKind::kFullScan || indexes == nullptr)
             ? PlanKind::kFullScan
             : options.plan;
}

}  // namespace

ThreadPool* Executor::PoolFor(int parallelism) {
  if (parallelism <= 1) return nullptr;
  // A single-morsel table falls back to the serial kernel anyway; don't
  // spawn (and keep) idle threads for it.
  if (table_->Morsels().count() <= 1) return nullptr;
  // Clamp to hardware concurrency: the pool is grow-only, so an
  // oversubscribed request would otherwise pin useless threads (and their
  // stacks) for the executor's lifetime. Floor of 2 keeps the parallel
  // dispatch path reachable on single-core machines.
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t hw_cap = std::max<size_t>(2, hw);
  size_t want = static_cast<size_t>(
      parallelism > kMaxParallelism ? kMaxParallelism : parallelism);
  if (want > hw_cap) want = hw_cap;
  // Grow-only: one pool at the widest parallelism seen serves every
  // query; narrower requests cap their scan width via ParallelFor's
  // max_workers instead of paying a join+respawn per width change. The
  // query thread drains morsels too, so `want`-way scanning needs only
  // want-1 pool threads.
  if (pool_ == nullptr || pool_->num_threads() < want - 1) {
    pool_ = std::make_unique<ThreadPool>(want - 1);
  }
  return pool_.get();
}

StatusOr<ResultSet> Executor::RunPlan(const RangePredicate& pred,
                                      const ExecOptions& options) {
  if (pred.col >= table_->num_columns()) {
    return Status::InvalidArgument("predicate column out of range");
  }

  PlanKind plan = options.plan;
  if (indexes_ == nullptr && plan != PlanKind::kFullScan) {
    plan = PlanKind::kFullScan;  // graceful degradation, still correct
  }

  switch (plan) {
    case PlanKind::kFullScan: {
      ++stats_.full_scans;
      stats_.rows_examined += table_->num_rows();
      return ScanRange(*table_, pred, options.visibility, options.engine,
                       PoolFor(options.parallelism),
                       static_cast<size_t>(options.parallelism));
    }
    case PlanKind::kBrinScan: {
      ++stats_.brin_scans;
      AMNESIA_ASSIGN_OR_RETURN(
          Index * index,
          indexes_->GetOrBuild(*table_, pred.col, IndexKind::kBlockRange));
      AMNESIA_ASSIGN_OR_RETURN(std::vector<RowId> candidates,
                               index->LookupRange(pred.lo, pred.hi));
      stats_.rows_examined += candidates.size();
      ResultSet out;
      for (RowId r : candidates) {
        const Value v = table_->value(pred.col, r);
        if (!pred.Matches(v)) continue;
        // Index plans only ever see active tuples: forgotten rows are
        // skipped even though the candidate block still spans them.
        if (!table_->IsActive(r)) continue;
        out.rows.push_back(r);
        out.values.push_back(v);
      }
      return out;
    }
    case PlanKind::kBTreeProbe: {
      ++stats_.btree_probes;
      AMNESIA_ASSIGN_OR_RETURN(
          Index * index,
          indexes_->GetOrBuild(*table_, pred.col, IndexKind::kBTree));
      AMNESIA_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                               index->LookupRange(pred.lo, pred.hi));
      stats_.rows_examined += rows.size();
      ResultSet out;
      for (RowId r : rows) {
        // The B+-tree is exact and maintained to drop forgotten rows
        // (index-skip); a defensive visibility recheck keeps results
        // correct even when the index was rebuilt from a stale snapshot.
        if (!table_->IsActive(r)) continue;
        out.rows.push_back(r);
        out.values.push_back(table_->value(pred.col, r));
      }
      return out;
    }
  }
  return Status::Internal("unreachable plan kind");
}

StatusOr<ResultSet> Executor::ExecuteRange(const RangePredicate& pred,
                                           const ExecOptions& options) {
  obs::TraceScope trace("executor.scan",
                        obs::EngineMetrics::Get().scan_ns);
  trace.Annotate("plan", static_cast<int64_t>(options.plan));
  trace.Annotate("parallelism", options.parallelism);
  ++stats_.queries;
  std::optional<ProfiledQuery> prof;
  if (options.profile) {
    prof.emplace("scan", options.plan, options.engine, options.visibility,
                 options.parallelism, /*num_shards=*/1);
    prof->Stage("execute");
  }
  AMNESIA_ASSIGN_OR_RETURN(ResultSet result, RunPlan(pred, options));
  stats_.rows_returned += result.size();
  trace.Annotate("rows_returned", static_cast<int64_t>(result.size()));
  if (options.record_access) {
    if (prof) prof->Stage("record_access");
    for (RowId r : result.rows) table_->BumpAccess(r);
  }
  if (prof) prof->Finish(result.size());
  return result;
}

StatusOr<AggregateResult> Executor::ExecuteAggregate(
    const RangePredicate& pred, const ExecOptions& options) {
  obs::TraceScope trace("executor.aggregate",
                        obs::EngineMetrics::Get().scan_ns);
  trace.Annotate("plan", static_cast<int64_t>(options.plan));
  trace.Annotate("parallelism", options.parallelism);
  ++stats_.queries;
  std::optional<ProfiledQuery> prof;
  if (options.profile) {
    prof.emplace("aggregate", EffectiveAggregatePlan(options, indexes_),
                 options.engine, options.visibility, options.parallelism,
                 /*num_shards=*/1);
  }
  // Aggregates reuse the range plan, then fold. For full scans we use the
  // single-pass kernel to avoid materialization.
  if (options.plan == PlanKind::kFullScan || indexes_ == nullptr) {
    ++stats_.full_scans;
    stats_.rows_examined += table_->num_rows();
    if (prof) prof->Stage("execute");
    StatusOr<AggregateResult> result = AggregateRange(
        *table_, pred, options.visibility, options.engine,
        PoolFor(options.parallelism),
        static_cast<size_t>(options.parallelism));
    if (prof && result.ok()) prof->Finish(result.value().count);
    return result;
  }
  if (prof) prof->Stage("probe");
  AMNESIA_ASSIGN_OR_RETURN(ResultSet rows, RunPlan(pred, options));
  stats_.rows_returned += rows.size();
  if (options.record_access) {
    for (RowId r : rows.rows) table_->BumpAccess(r);
  }
  if (prof) prof->Stage("fold");
  AggregateResult result;
  if (options.engine == Engine::kVectorized) {
    result = AggregateValues(rows.values).Finish();
  } else {
    RunningStats stats;
    for (Value v : rows.values) stats.Add(static_cast<double>(v));
    result = ToAggregateResult(stats);
  }
  if (prof) prof->Finish(result.count);
  return result;
}

StatusOr<AggregateResult> Executor::ExecuteAggregateWithSummary(
    const RangePredicate& pred, const SummaryStore& summaries,
    const ExecOptions& options) {
  ExecOptions active_only = options;
  active_only.visibility = Visibility::kActiveOnly;
  AMNESIA_ASSIGN_OR_RETURN(AggregateResult active,
                           ExecuteAggregate(pred, active_only));
  const Summary forgotten =
      summaries.EstimateRange(pred.col, pred.lo, pred.hi);
  return BlendAggregates(active, forgotten);
}

AggregateResult BlendAggregates(const AggregateResult& active,
                                const Summary& forgotten) {
  if (forgotten.count == 0) return active;
  AggregateResult out = active;
  out.count = active.count + forgotten.count;
  out.sum = active.sum + forgotten.sum;
  out.avg = out.count == 0 ? 0.0 : out.sum / static_cast<double>(out.count);
  if (active.count == 0) {
    out.min = static_cast<double>(forgotten.min);
    out.max = static_cast<double>(forgotten.max);
  } else {
    out.min = std::min(active.min, static_cast<double>(forgotten.min));
    out.max = std::max(active.max, static_cast<double>(forgotten.max));
  }
  // Variance over the blend is not recoverable from (count, sum, min, max);
  // keep the active-only variance as the best available estimate.
  return out;
}

}  // namespace amnesia
