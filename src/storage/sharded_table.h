// Copyright 2026 The AmnesiaDB Authors
//
// A table partitioned across N independent shards behind the Table-style
// API. Rows are placed round-robin by insertion order; global RowIds
// encode (shard, local row) — see storage/shard.h — so RowId consumers
// keep working unchanged and a single-shard table is bit-compatible with
// the unsharded Table (shard 0's global ids equal its local ids). Each
// shard owns its columns, amnesia metadata and active bitmap, so scans,
// forget passes, compaction and checkpointing all proceed shard-locally.

#ifndef AMNESIA_STORAGE_SHARDED_TABLE_H_
#define AMNESIA_STORAGE_SHARDED_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/shard.h"
#include "storage/table.h"

namespace amnesia {

/// \brief Append-only columnar table partitioned across independent shards.
class ShardedTable {
 public:
  /// Creates an empty table with `num_shards` shards.
  /// Returns InvalidArgument for zero columns, zero shards, or more than
  /// kMaxShards shards.
  static StatusOr<ShardedTable> Make(Schema schema, uint32_t num_shards);

  /// Creates an empty table with `num_shards` shards on the given storage
  /// backend. For kMapped, shard `s` owns the subdirectory
  /// `<storage.dir>/shard-<s>` (created if missing).
  static StatusOr<ShardedTable> Make(Schema schema, uint32_t num_shards,
                                     const StorageOptions& storage);

  /// Reassembles a sharded table from restored shard tables (checkpoint
  /// restore). All tables must share one schema; `next_shard` is the
  /// round-robin ingest cursor at checkpoint time.
  static StatusOr<ShardedTable> FromShards(std::vector<Table> tables,
                                           uint64_t next_shard);

  /// Returns the number of shards.
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  /// Returns shard `s`. Precondition: s < num_shards().
  const Shard& shard(uint32_t s) const { return shards_[s]; }
  /// Returns shard `s` for mutation. Precondition: s < num_shards().
  Shard& mutable_shard(uint32_t s) { return shards_[s]; }

  /// Returns the shared schema.
  const Schema& schema() const { return shards_[0].table().schema(); }
  /// Returns the number of columns.
  size_t num_columns() const { return shards_[0].table().num_columns(); }

  /// Returns the round-robin ingest cursor (rows ever appended; the next
  /// row goes to shard cursor % num_shards()).
  uint64_t ingest_cursor() const { return next_shard_; }

  /// \name Global counters, summed over shards.
  /// @{
  uint64_t num_rows() const;
  uint64_t num_active() const;
  uint64_t num_forgotten() const;
  uint64_t lifetime_inserted() const;
  uint64_t lifetime_forgotten() const;
  /// @}

  /// Returns the current update-batch id (kept in lockstep across shards).
  BatchId current_batch() const { return shards_[0].table().current_batch(); }
  /// Starts a new update batch on every shard.
  void BeginBatch();

  /// Appends one row to the next round-robin shard. Returns its global
  /// RowId.
  StatusOr<RowId> AppendRow(const std::vector<Value>& values);

  /// Bulk ingest: appends `columns[c][i]` as row i's column c, placing
  /// rows on the same round-robin schedule as repeated AppendRow calls
  /// (the final state is identical). All inner vectors must share one
  /// length and `columns` must have num_columns() entries. Returns the
  /// number of rows appended.
  StatusOr<uint64_t> AppendColumns(
      const std::vector<std::vector<Value>>& columns);

  /// Returns the value of column `col` at global row `row`.
  /// Preconditions: col < num_columns(), `row` is a valid global id.
  Value value(size_t col, RowId row) const {
    return shards_[ShardOfRow(row)].table().value(col, LocalRowOf(row));
  }

  /// Returns true iff global row `row` is active.
  bool IsActive(RowId row) const {
    return shards_[ShardOfRow(row)].table().IsActive(LocalRowOf(row));
  }

  /// Marks the global row forgotten (OutOfRange for invalid ids,
  /// FailedPrecondition when already forgotten).
  Status Forget(RowId row);
  /// Reverses a Forget on the global row.
  Status Revive(RowId row);
  /// Scrubs the payload of a forgotten global row.
  Status ScrubRow(RowId row, Value scrub_value = 0);

  /// Returns the shard-local insertion tick of the global row (ticks are
  /// per-shard counters; compare them only within one shard).
  Tick insert_tick(RowId row) const {
    return shards_[ShardOfRow(row)].table().insert_tick(LocalRowOf(row));
  }
  /// Returns the update batch the global row was inserted in.
  BatchId batch_of(RowId row) const {
    return shards_[ShardOfRow(row)].table().batch_of(LocalRowOf(row));
  }
  /// Returns how many query results the global row appeared in.
  uint64_t access_count(RowId row) const {
    return shards_[ShardOfRow(row)].table().access_count(LocalRowOf(row));
  }
  /// Records that the global row appeared in a query result.
  void BumpAccess(RowId row) {
    shards_[ShardOfRow(row)].mutable_table().BumpAccess(LocalRowOf(row));
  }

  /// Returns the largest value ever appended to column `col`, across all
  /// shards.
  Value max_seen(size_t col) const;
  /// Returns the smallest value ever appended to column `col`, across all
  /// shards.
  Value min_seen(size_t col) const;

  /// Physically removes forgotten rows shard by shard. Returns one
  /// shard-local RowMapping per shard (global ids change only in their
  /// low kShardLocalBits).
  std::vector<RowMapping> CompactForgotten();

  /// Sum of the shards' structural versions; bumped by any shard mutation.
  uint64_t version() const;

  /// Approximate heap footprint across all shards, in bytes.
  size_t ApproxBytes() const;

 private:
  explicit ShardedTable(std::vector<Shard> shards, uint64_t next_shard)
      : shards_(std::move(shards)), next_shard_(next_shard) {}

  /// Returns the shard owning `row`, or OutOfRange.
  StatusOr<Shard*> Resolve(RowId row);

  std::vector<Shard> shards_;
  /// Rows ever appended; row i lands on shard i % num_shards().
  uint64_t next_shard_ = 0;
};

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_SHARDED_TABLE_H_
