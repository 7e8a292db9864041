// Copyright 2026 The AmnesiaDB Authors
//
// Full-scan operators. Visibility is explicit: the paper's central point is
// that a complete scan can still fetch forgotten-but-present tuples, while
// amnesia-aware plans only see active ones.
//
// Three functions make up the whole scan surface: ScanRange, CountRange and
// AggregateRange. Each reads a ScanSource (a Table, or a ShardedTable in
// shard-major order), splits every shard into Table::Morsels, runs one
// per-morsel kernel on the calling thread or on a ThreadPool, and merges
// the per-morsel results in morsel order. Serial and parallel runs
// therefore merge the same partials in the same order and return identical
// results, aggregates included.
//
// The engine contract: Engine::kVectorized is the default and the one
// production path. It runs the batch-at-a-time kernels of
// query/vector_kernels.h (branch-free selection bitmaps ANDed against the
// visibility bitmap, with fully-forgotten morsels skipped wholesale).
// Engine::kScalar is the reference engine: tuple-at-a-time row loops that
// tests and ablations select explicitly to cross-check the default. Both
// engines return the same rows in the same order; COUNT/MIN/MAX are
// bit-identical across engines, SUM/AVG/variance agree up to FP
// reassociation (scalar folds through Welford, vectorized sums directly).

#ifndef AMNESIA_QUERY_SCAN_H_
#define AMNESIA_QUERY_SCAN_H_

#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "query/predicate.h"
#include "query/result.h"
#include "storage/sharded_table.h"
#include "storage/table.h"

namespace amnesia {

/// \brief Which tuples a scan may observe.
enum class Visibility : int {
  kActiveOnly = 0,     ///< Amnesic view: forgotten tuples are invisible.
  kAll = 1,            ///< Physical view: everything still in storage.
  kForgottenOnly = 2,  ///< Only marked-forgotten tuples (diagnostics).
};

/// \brief Which execution engine a scan operator runs.
enum class Engine : int {
  kScalar = 0,      ///< Tuple-at-a-time row loops (the reference engine).
  kVectorized = 1,  ///< Batch-at-a-time selection-bitmap kernels.
};

/// \brief The shards a scan reads. Built implicitly from a Table (one
/// shard with id 0, row ids unchanged) or from a ShardedTable (its shards
/// in shard-major order, row ids mapped through MakeGlobalRowId). Borrows
/// the table for the duration of one scan call.
class ScanSource {
 public:
  ScanSource(const Table& table) : table_(&table) {}  // NOLINT
  ScanSource(const ShardedTable& table) : sharded_(&table) {}  // NOLINT

  /// Returns the number of shards (1 for a Table).
  uint32_t num_shards() const {
    return sharded_ == nullptr ? 1 : sharded_->num_shards();
  }
  /// Returns shard `s`'s storage. Precondition: s < num_shards().
  const Table& shard(uint32_t s) const {
    return sharded_ == nullptr ? *table_ : sharded_->shard(s).table();
  }

 private:
  const Table* table_ = nullptr;
  const ShardedTable* sharded_ = nullptr;
};

/// \brief Converts a finished accumulator into the aggregate result shape.
/// The single definition of that mapping, shared by the scalar merge and
/// the executor's index-plan fold.
AggregateResult ToAggregateResult(const RunningStats& stats);

// The trailing knobs of all three operators: `pool` runs the morsels on a
// ThreadPool (nullptr runs them on the calling thread), `max_workers` caps
// the scan width below the pool size (0 = whole pool), and `morsel_rows`
// sizes the morsels (Table::Morsels caps it at a mapped table's partition
// size, so no morsel straddles a partition file). All three return
// InvalidArgument when `pred.col` is out of range.

/// \brief Scans `source` for rows matching `pred` under `visibility`.
/// Returns rows in ascending (global) RowId order.
StatusOr<ResultSet> ScanRange(ScanSource source, const RangePredicate& pred,
                              Visibility visibility,
                              Engine engine = Engine::kVectorized,
                              ThreadPool* pool = nullptr,
                              size_t max_workers = 0,
                              uint64_t morsel_rows = kDefaultMorselRows);

/// \brief Counts matching rows without materializing them.
StatusOr<uint64_t> CountRange(ScanSource source, const RangePredicate& pred,
                              Visibility visibility,
                              Engine engine = Engine::kVectorized,
                              ThreadPool* pool = nullptr,
                              size_t max_workers = 0,
                              uint64_t morsel_rows = kDefaultMorselRows);

/// \brief Computes all aggregates over matching rows in one pass.
/// Per-morsel partials merge associatively in morsel order (Chan et al.).
StatusOr<AggregateResult> AggregateRange(
    ScanSource source, const RangePredicate& pred, Visibility visibility,
    Engine engine = Engine::kVectorized, ThreadPool* pool = nullptr,
    size_t max_workers = 0, uint64_t morsel_rows = kDefaultMorselRows);

}  // namespace amnesia

#endif  // AMNESIA_QUERY_SCAN_H_
