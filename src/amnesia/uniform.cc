// Copyright 2026 The AmnesiaDB Authors

#include "amnesia/uniform.h"

#include <algorithm>

namespace amnesia {

StatusOr<std::vector<RowId>> UniformPolicy::SelectVictims(const Table& table,
                                                          size_t k,
                                                          Rng* rng) {
  const size_t active = static_cast<size_t>(table.num_active());
  // Sorted ranks map to rows in one bitmap walk instead of one walk per
  // victim; the controller sorts victims anyway, so the set is unchanged.
  std::vector<size_t> ranks = rng->SampleWithoutReplacement(active, k);
  std::sort(ranks.begin(), ranks.end());
  return table.NthActiveRows(ranks);
}

}  // namespace amnesia
