// Copyright 2026 The AmnesiaDB Authors
//
// The benchmark's three workloads, each a SimulationConfig that departs
// from the library defaults only in the settings that define it (a later
// change to a default is therefore measured, not masked). README.md in
// this directory explains why each workload exists.

#ifndef PERFBENCH_E2E_WORKLOADS_H_
#define PERFBENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "sim/config.h"

namespace perfbench {

/// \brief One configured workload run.
struct Workload {
  /// The simulation; config.num_batches is the StepBatch count.
  amnesia::SimulationConfig config;
  /// Where the table's checkpoints live at the end of a run. A workload
  /// that does not journal gets one snapshot written there after the
  /// loop, so recovery and footprint stay measurable.
  std::string checkpoint_dir;

  /// Whether the batch loop journals and checkpoints.
  bool journaled() const { return config.checkpoint_every_n_batches > 0; }
};

/// \brief Builds workload `name` with all inputs drawn from `seed` and
/// all files under `dir` (absolute). `tiny` shrinks the sizes for the
/// benchmark's own tests; the shape of the workload stays the same.
amnesia::StatusOr<Workload> MakeWorkload(const std::string& name,
                                         uint64_t seed,
                                         const std::string& dir, bool tiny);

}  // namespace perfbench

#endif  // PERFBENCH_E2E_WORKLOADS_H_
