// Copyright 2026 The AmnesiaDB Authors

#ifndef AMNESIA_AMNESIA_UNIFORM_H_
#define AMNESIA_AMNESIA_UNIFORM_H_

#include "amnesia/policy.h"

namespace amnesia {

/// \brief Reservoir-style random forgetting (§3.1 Uniform-amnesia).
///
/// Every active tuple has the same probability of being forgotten in any
/// round; older tuples have simply been candidates more often, producing
/// the exponential retention-by-age profile of Figure 1. "Serves as an
/// easy to understand baseline."
///
/// A pass draws k active ranks (Floyd), sorts them and maps them to rows
/// in one walk over the active bitmap: O(num_rows()/64 + k log k).
class UniformPolicy final : public AmnesiaPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kUniform; }
  StatusOr<std::vector<RowId>> SelectVictims(const Table& table, size_t k,
                                             Rng* rng) override;
};

}  // namespace amnesia

#endif  // AMNESIA_AMNESIA_UNIFORM_H_
