// Copyright 2026 The AmnesiaDB Authors

#include "query/scan.h"

#include <utility>
#include <vector>

#include "common/stats.h"
#include "obs/engine_metrics.h"
#include "query/profile.h"
#include "query/vector_kernels.h"

namespace amnesia {

namespace {

// One operator-level increment per Scan/Count/AggregateRange call, keyed by
// the engine that ran it.
inline void NoteOp(Engine engine) {
#if !defined(AMNESIA_NO_METRICS)
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  (engine == Engine::kVectorized ? m.scan_ops_vectorized : m.scan_ops_scalar)
      ->Inc();
#else
  (void)engine;
#endif
}

// Scalar kernels never skip a morsel: every row in the morsel is touched.
inline void NoteScalarMorsel(uint64_t rows) {
#if !defined(AMNESIA_NO_METRICS)
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  m.scan_morsels_scanned->Inc();
  m.scan_rows_scanned->Inc(rows);
#else
  (void)rows;
#endif
}

inline bool Visible(const Table& table, RowId row, Visibility visibility) {
  switch (visibility) {
    case Visibility::kActiveOnly:
      return table.IsActive(row);
    case Visibility::kAll:
      return true;
    case Visibility::kForgottenOnly:
      return !table.IsActive(row);
  }
  return false;
}

// Validates the predicate and notes the operator call.
Status BeginScan(const ScanSource& source, const RangePredicate& pred,
                 Engine engine) {
  if (pred.col >= source.shard(0).num_columns()) {
    return Status::InvalidArgument("predicate column out of range");
  }
  NoteOp(engine);
  return Status::OK();
}

// Scalar per-morsel kernels: the reference engine. The vectorized
// counterparts live in query/vector_kernels.{h,cc} and uphold the same
// contract against these loops.

ResultSet ScanMorsel(const Table& table, const RangePredicate& pred,
                     Visibility visibility, Morsel morsel) {
  NoteScalarMorsel(morsel.size());
  ResultSet out;
  // ForEachSpan walks the morsel's maximal contiguous runs: one run for a
  // vector-mode column, one per sealed partition file (plus the tail) for
  // a mapped column — the scalar loops read the mapped words in place.
  table.column(pred.col).ForEachSpan(
      morsel.begin, morsel.end, [&](RowId base, ValueSpan vals) {
        for (uint64_t i = 0; i < vals.size; ++i) {
          const Value v = vals[i];
          if (!pred.Matches(v)) continue;
          const RowId r = base + i;
          if (!Visible(table, r, visibility)) continue;
          out.rows.push_back(r);
          out.values.push_back(v);
        }
      });
  return out;
}

uint64_t CountMorsel(const Table& table, const RangePredicate& pred,
                     Visibility visibility, Morsel morsel) {
  NoteScalarMorsel(morsel.size());
  uint64_t count = 0;
  table.column(pred.col).ForEachSpan(
      morsel.begin, morsel.end, [&](RowId base, ValueSpan vals) {
        for (uint64_t i = 0; i < vals.size; ++i) {
          if (pred.Matches(vals[i]) && Visible(table, base + i, visibility)) {
            ++count;
          }
        }
      });
  return count;
}

RunningStats AggregateMorsel(const Table& table, const RangePredicate& pred,
                             Visibility visibility, Morsel morsel) {
  NoteScalarMorsel(morsel.size());
  RunningStats stats;
  table.column(pred.col).ForEachSpan(
      morsel.begin, morsel.end, [&](RowId base, ValueSpan vals) {
        for (uint64_t i = 0; i < vals.size; ++i) {
          const Value v = vals[i];
          if (pred.Matches(v) && Visible(table, base + i, visibility)) {
            stats.Add(static_cast<double>(v));
          }
        }
      });
  return stats;
}

// Morsel-order merges of the per-morsel partials.
void MergeInto(ResultSet* out, ResultSet&& part) {
  if (out->rows.empty()) {
    *out = std::move(part);
    return;
  }
  out->rows.insert(out->rows.end(), part.rows.begin(), part.rows.end());
  out->values.insert(out->values.end(), part.values.begin(),
                     part.values.end());
}
void MergeInto(uint64_t* out, uint64_t part) { *out += part; }
void MergeInto(RunningStats* out, const RunningStats& part) {
  out->Merge(part);
}
void MergeInto(VectorAggState* out, const VectorAggState& part) {
  out->Merge(part);
}

// The morsel runner behind all three operators: splits every shard of
// `source` into Table::Morsels(morsel_rows), runs `kernel(table, shard,
// morsel)` per morsel on the calling thread or on `pool`, and merges the
// partials in shard-major morsel order. The serial and parallel paths
// merge the same partials in the same order, so their results are
// identical.
template <typename Partial, typename Kernel>
Partial RunMorsels(const ScanSource& source, Visibility visibility,
                   Engine engine, ThreadPool* pool, size_t max_workers,
                   uint64_t morsel_rows, const Kernel& kernel) {
  struct Work {
    uint32_t shard;
    Morsel morsel;
  };
  std::vector<Work> work;
  for (uint32_t s = 0; s < source.num_shards(); ++s) {
    for (Morsel m : source.shard(s).Morsels(morsel_rows)) {
      work.push_back(Work{s, m});
    }
  }
  const auto run = [&](const Work& w) {
    const Table& table = source.shard(w.shard);
    ProfiledMorselScope prof(table, visibility, engine, w.morsel, w.shard);
    return kernel(table, w.shard, w.morsel);
  };

  Partial out{};
  if (pool == nullptr || pool->EffectiveWidth(max_workers) <= 1 ||
      work.size() <= 1) {
    for (const Work& w : work) MergeInto(&out, run(w));
    return out;
  }
  std::vector<Partial> partials(work.size());
  pool->ParallelFor(0, work.size(), 1, max_workers,
                    [&](uint64_t lo, uint64_t hi) {
                      for (uint64_t i = lo; i < hi; ++i) {
                        partials[i] = run(work[i]);
                      }
                    });
  for (Partial& p : partials) MergeInto(&out, std::move(p));
  return out;
}

}  // namespace

AggregateResult ToAggregateResult(const RunningStats& stats) {
  AggregateResult out;
  out.count = stats.count();
  out.sum = stats.sum();
  out.avg = stats.mean();
  out.min = stats.min();
  out.max = stats.max();
  out.variance = stats.variance();
  return out;
}

StatusOr<ResultSet> ScanRange(ScanSource source, const RangePredicate& pred,
                              Visibility visibility, Engine engine,
                              ThreadPool* pool, size_t max_workers,
                              uint64_t morsel_rows) {
  AMNESIA_RETURN_NOT_OK(BeginScan(source, pred, engine));
  return RunMorsels<ResultSet>(
      source, visibility, engine, pool, max_workers, morsel_rows,
      [&](const Table& table, uint32_t shard, Morsel m) {
        ResultSet part;
        if (engine == Engine::kVectorized) {
          ScanMorselVectorized(table, pred, visibility, m,
                               &ThreadLocalScanContext(), &part);
        } else {
          part = ScanMorsel(table, pred, visibility, m);
        }
        if (shard != 0) {
          for (RowId& r : part.rows) r = MakeGlobalRowId(shard, r);
        }
        return part;
      });
}

StatusOr<uint64_t> CountRange(ScanSource source, const RangePredicate& pred,
                              Visibility visibility, Engine engine,
                              ThreadPool* pool, size_t max_workers,
                              uint64_t morsel_rows) {
  AMNESIA_RETURN_NOT_OK(BeginScan(source, pred, engine));
  return RunMorsels<uint64_t>(
      source, visibility, engine, pool, max_workers, morsel_rows,
      [&](const Table& table, uint32_t, Morsel m) {
        return engine == Engine::kVectorized
                   ? CountMorselVectorized(table, pred, visibility, m,
                                           &ThreadLocalScanContext())
                   : CountMorsel(table, pred, visibility, m);
      });
}

StatusOr<AggregateResult> AggregateRange(ScanSource source,
                                         const RangePredicate& pred,
                                         Visibility visibility, Engine engine,
                                         ThreadPool* pool, size_t max_workers,
                                         uint64_t morsel_rows) {
  AMNESIA_RETURN_NOT_OK(BeginScan(source, pred, engine));
  if (engine == Engine::kVectorized) {
    return RunMorsels<VectorAggState>(
               source, visibility, engine, pool, max_workers, morsel_rows,
               [&](const Table& table, uint32_t, Morsel m) {
                 return AggregateMorselVectorized(table, pred, visibility, m,
                                                  &ThreadLocalScanContext());
               })
        .Finish();
  }
  return ToAggregateResult(RunMorsels<RunningStats>(
      source, visibility, engine, pool, max_workers, morsel_rows,
      [&](const Table& table, uint32_t, Morsel m) {
        return AggregateMorsel(table, pred, visibility, m);
      }));
}

}  // namespace amnesia
