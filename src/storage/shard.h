// Copyright 2026 The AmnesiaDB Authors
//
// One shard of a partitioned table, plus the global RowId codec that makes
// shards transparent to RowId consumers. A shard owns its own columns,
// amnesia metadata and active bitmap (a full Table), so scans, forget
// passes and compaction proceed shard-locally without touching any shared
// per-table state — the prerequisite for parallelizing forgetting and
// compaction the way PR 1 parallelized scans.

#ifndef AMNESIA_STORAGE_SHARD_H_
#define AMNESIA_STORAGE_SHARD_H_

#include <cstdint>
#include <utility>

#include "storage/table.h"
#include "storage/types.h"

namespace amnesia {

/// Number of low RowId bits addressing a row within its shard. The
/// remaining high bits carry the shard index, so shard 0's global ids
/// equal its local ids and a single-shard table is bit-compatible with an
/// unsharded Table.
inline constexpr int kShardLocalBits = 48;

/// Mask selecting the shard-local row bits of a global RowId.
inline constexpr RowId kShardLocalMask = (RowId{1} << kShardLocalBits) - 1;

/// Hard cap on shard count; keeps the shard field well clear of the
/// all-ones kInvalidRow encoding.
inline constexpr uint32_t kMaxShards = 4096;

/// Returns the global RowId of row `local` in shard `shard`.
constexpr RowId MakeGlobalRowId(uint32_t shard, RowId local) {
  return (RowId{shard} << kShardLocalBits) | local;
}

/// Returns the shard index encoded in a global RowId.
constexpr uint32_t ShardOfRow(RowId global) {
  return static_cast<uint32_t>(global >> kShardLocalBits);
}

/// Returns the shard-local row index encoded in a global RowId.
constexpr RowId LocalRowOf(RowId global) { return global & kShardLocalMask; }

/// \brief One partition of a ShardedTable: a full Table plus its shard id.
///
/// The wrapped table is a regular Table, so every existing component that
/// consumes a `const Table&` (policies, scan kernels, checkpointing,
/// indexes) works on one shard unchanged; only the RowIds it sees are
/// shard-local.
class Shard {
 public:
  Shard(uint32_t id, Table table) : id_(id), table_(std::move(table)) {}

  /// Returns this shard's index within its ShardedTable.
  uint32_t id() const { return id_; }

  /// Returns the shard's storage.
  const Table& table() const { return table_; }
  /// Returns the shard's storage for mutation (ingest, forgetting).
  Table& mutable_table() { return table_; }

  /// Translates a shard-local RowId into the global encoding.
  RowId ToGlobal(RowId local) const { return MakeGlobalRowId(id_, local); }

 private:
  uint32_t id_;
  Table table_;
};

}  // namespace amnesia

#endif  // AMNESIA_STORAGE_SHARD_H_
