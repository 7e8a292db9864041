// Copyright 2026 The AmnesiaDB Authors

#include "amnesia/rot.h"

#include <algorithm>

namespace amnesia {

StatusOr<std::vector<RowId>> RotPolicy::SelectVictims(const Table& table,
                                                      size_t k, Rng* rng) {
  if (options_.smoothing <= 0.0) {
    return Status::InvalidArgument("rot smoothing must be positive");
  }
  const Bitmap& live = table.active_bitmap();
  const size_t want = std::min<size_t>(k, table.num_active());

  // High-water mark: only tuples old enough are eligible to rot. Rows are
  // stored in batch order, so the protected (young) rows are a suffix and
  // the eligible ones are exactly the first `eligible` active ranks.
  const BatchId current = table.current_batch();
  const BatchId protect = options_.protect_latest_batches;
  const RowId young_begin =
      current + 1 > protect ? table.FirstRowFromBatch(current + 1 - protect)
                            : 0;
  const size_t eligible = live.CountSetPrefix(young_begin);

  // The sampler asks for weights in rank order, so a cursor walks the
  // active rows from `from` once instead of materialising them.
  auto rank_weights = [&](RowId from) {
    return [this, &table, &live, cursor = from](size_t) mutable {
      const RowId row = live.NextSet(cursor);
      cursor = row + 1;
      return 1.0 / (options_.smoothing +
                    static_cast<double>(table.access_count(row)));
    };
  };
  std::vector<size_t> ranks =
      rng->WeightedSampleWithoutReplacement(eligible, want, rank_weights(0));

  if (ranks.size() < want) {
    // Budget pressure exceeds the rot-eligible population: take the
    // least-accessed young tuples to make up the difference.
    const std::vector<size_t> extra = rng->WeightedSampleWithoutReplacement(
        table.num_active() - eligible, want - ranks.size(),
        rank_weights(young_begin));
    for (size_t p : extra) ranks.push_back(eligible + p);
  }
  std::sort(ranks.begin(), ranks.end());
  return table.NthActiveRows(ranks);
}

}  // namespace amnesia
