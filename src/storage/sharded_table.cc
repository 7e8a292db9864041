// Copyright 2026 The AmnesiaDB Authors

#include "storage/sharded_table.h"

#include <algorithm>
#include <string>
#include <utility>

#include "storage/mapped_file.h"

namespace amnesia {

StatusOr<ShardedTable> ShardedTable::Make(Schema schema, uint32_t num_shards) {
  if (num_shards == 0 || num_shards > kMaxShards) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  std::vector<Shard> shards;
  shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    AMNESIA_ASSIGN_OR_RETURN(Table table, Table::Make(schema));
    shards.emplace_back(s, std::move(table));
  }
  return ShardedTable(std::move(shards), 0);
}

StatusOr<ShardedTable> ShardedTable::Make(Schema schema, uint32_t num_shards,
                                          const StorageOptions& storage) {
  if (storage.backend == StorageBackend::kVector) {
    return Make(std::move(schema), num_shards);
  }
  if (num_shards == 0 || num_shards > kMaxShards) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  if (storage.dir.empty()) {
    return Status::InvalidArgument("mapped storage needs a directory");
  }
  AMNESIA_RETURN_NOT_OK(EnsureDirExists(storage.dir));
  std::vector<Shard> shards;
  shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    StorageOptions shard_storage = storage;
    shard_storage.dir = storage.dir + "/shard-" + std::to_string(s);
    AMNESIA_ASSIGN_OR_RETURN(Table table,
                             Table::Make(schema, shard_storage));
    shards.emplace_back(s, std::move(table));
  }
  return ShardedTable(std::move(shards), 0);
}

StatusOr<ShardedTable> ShardedTable::FromShards(std::vector<Table> tables,
                                                uint64_t next_shard) {
  if (tables.empty() || tables.size() > kMaxShards) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  for (const Table& t : tables) {
    if (!t.schema().Equals(tables[0].schema())) {
      return Status::InvalidArgument("shards disagree on the schema");
    }
  }
  std::vector<Shard> shards;
  shards.reserve(tables.size());
  for (uint32_t s = 0; s < tables.size(); ++s) {
    shards.emplace_back(s, std::move(tables[s]));
  }
  return ShardedTable(std::move(shards), next_shard);
}

uint64_t ShardedTable::num_rows() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.table().num_rows();
  return total;
}

uint64_t ShardedTable::num_active() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.table().num_active();
  return total;
}

uint64_t ShardedTable::num_forgotten() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.table().num_forgotten();
  return total;
}

uint64_t ShardedTable::lifetime_inserted() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.table().lifetime_inserted();
  return total;
}

uint64_t ShardedTable::lifetime_forgotten() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.table().lifetime_forgotten();
  return total;
}

void ShardedTable::BeginBatch() {
  for (Shard& s : shards_) s.mutable_table().BeginBatch();
}

StatusOr<RowId> ShardedTable::AppendRow(const std::vector<Value>& values) {
  Shard& shard = shards_[next_shard_ % shards_.size()];
  AMNESIA_ASSIGN_OR_RETURN(RowId local,
                           shard.mutable_table().AppendRow(values));
  ++next_shard_;
  return shard.ToGlobal(local);
}

StatusOr<uint64_t> ShardedTable::AppendColumns(
    const std::vector<std::vector<Value>>& columns) {
  if (columns.size() != num_columns()) {
    return Status::InvalidArgument(
        "column arity " + std::to_string(columns.size()) +
        " != schema arity " + std::to_string(num_columns()));
  }
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  for (const auto& col : columns) {
    if (col.size() != rows) {
      return Status::InvalidArgument("ragged bulk-append columns");
    }
  }
  if (rows == 0) return uint64_t{0};
  if (shards_.size() == 1) {
    // Single shard: no redistribution needed, forward the buffers as-is.
    AMNESIA_RETURN_NOT_OK(
        shards_[0].mutable_table().AppendColumns(columns).status());
    next_shard_ += rows;
    return static_cast<uint64_t>(rows);
  }

  // Split the row stream per shard on the same round-robin schedule as
  // AppendRow, then bulk-append each shard's slice: the resulting state
  // (placement, per-shard row order, ticks, batches) is identical to a
  // row-at-a-time loop.
  const size_t n = shards_.size();
  std::vector<std::vector<std::vector<Value>>> per_shard(n);
  for (size_t s = 0; s < n; ++s) {
    per_shard[s].resize(columns.size());
    // Rows i with (next_shard_ + i) % n == s.
    const size_t first = static_cast<size_t>(
        (s + n - next_shard_ % n) % n);
    if (first >= rows) continue;
    const size_t shard_rows = (rows - first + n - 1) / n;
    for (auto& col : per_shard[s]) col.reserve(shard_rows);
    for (size_t i = first; i < rows; i += n) {
      for (size_t c = 0; c < columns.size(); ++c) {
        per_shard[s][c].push_back(columns[c][i]);
      }
    }
  }
  for (size_t s = 0; s < n; ++s) {
    if (per_shard[s][0].empty()) continue;
    AMNESIA_RETURN_NOT_OK(
        shards_[s].mutable_table().AppendColumns(per_shard[s]).status());
  }
  next_shard_ += rows;
  return static_cast<uint64_t>(rows);
}

StatusOr<Shard*> ShardedTable::Resolve(RowId row) {
  const uint32_t s = ShardOfRow(row);
  if (s >= shards_.size() ||
      LocalRowOf(row) >= shards_[s].table().num_rows()) {
    return Status::OutOfRange("global row " + std::to_string(row) +
                              " does not address a stored row");
  }
  return &shards_[s];
}

Status ShardedTable::Forget(RowId row) {
  AMNESIA_ASSIGN_OR_RETURN(Shard * shard, Resolve(row));
  return shard->mutable_table().Forget(LocalRowOf(row));
}

Status ShardedTable::Revive(RowId row) {
  AMNESIA_ASSIGN_OR_RETURN(Shard * shard, Resolve(row));
  return shard->mutable_table().Revive(LocalRowOf(row));
}

Status ShardedTable::ScrubRow(RowId row, Value scrub_value) {
  AMNESIA_ASSIGN_OR_RETURN(Shard * shard, Resolve(row));
  return shard->mutable_table().ScrubRow(LocalRowOf(row), scrub_value);
}

Value ShardedTable::max_seen(size_t col) const {
  Value out = shards_[0].table().max_seen(col);
  for (const Shard& s : shards_) {
    out = std::max(out, s.table().max_seen(col));
  }
  return out;
}

Value ShardedTable::min_seen(size_t col) const {
  Value out = shards_[0].table().min_seen(col);
  for (const Shard& s : shards_) {
    out = std::min(out, s.table().min_seen(col));
  }
  return out;
}

std::vector<RowMapping> ShardedTable::CompactForgotten() {
  std::vector<RowMapping> mappings;
  mappings.reserve(shards_.size());
  for (Shard& s : shards_) {
    mappings.push_back(s.mutable_table().CompactForgotten());
  }
  return mappings;
}

uint64_t ShardedTable::version() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.table().version();
  return total;
}

size_t ShardedTable::ApproxBytes() const {
  size_t total = 0;
  for (const Shard& s : shards_) total += s.table().ApproxBytes();
  return total;
}

}  // namespace amnesia
