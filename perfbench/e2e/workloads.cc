// Copyright 2026 The AmnesiaDB Authors

#include "workloads.h"

namespace perfbench {

using amnesia::BackendKind;
using amnesia::LogFormat;
using amnesia::PolicyKind;
using amnesia::SimulationConfig;
using amnesia::Status;
using amnesia::StatusOr;
using amnesia::StorageBackend;

namespace {

// 100 batches is the fewest that leaves ten samples beyond batch_ms_p90.
constexpr uint32_t kBatches = 100;
constexpr uint32_t kTinyBatches = 12;

// Checkpoint cadence of the journaled workloads. 100 % 8 == 4, so every
// run ends with the same four-batch log tail past its newest manifest,
// and a checkpoint lands on 12% of batches: p90 sits inside the
// checkpoint batches rather than on the edge between them and the rest.
constexpr uint32_t kCheckpointEvery = 8;
constexpr uint32_t kRetain = 2;

void Durable(Workload* w) {
  w->config.checkpoint_every_n_batches = kCheckpointEvery;
  w->config.checkpoint_dir = w->checkpoint_dir;
  w->config.checkpoint_retention = kRetain;
}

}  // namespace

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                const std::string& dir, bool tiny) {
  Workload w;
  w.checkpoint_dir = dir + "/ckpt";
  SimulationConfig& c = w.config;
  c.seed = seed;
  c.num_batches = tiny ? kTinyBatches : kBatches;
  if (name == "churn") {
    // Forgetting, journaling, storage and checkpoints dominate: FIFO on
    // the delete backend over mapped partitions, so victims are
    // contiguous runs and whole partitions expire. upd_perc 0.4 at the
    // shortest vacuum deadline splits each batch's forgetting evenly
    // between the budget pass and the vacuum sweep (DBSIZE holds 2.5
    // batches; the budget trims the oldest half batch, the deadline the
    // rest), so both sweeps do work every batch.
    c.dbsize = tiny ? 2000 : 10000;
    c.upd_perc = 0.4;
    c.queries_per_batch = 10;
    c.aggregate_queries_per_batch = 1;
    c.record_access = false;
    c.policy.kind = PolicyKind::kFifo;
    c.backend = BackendKind::kDelete;
    c.storage_backend = StorageBackend::kMapped;
    c.storage_dir = dir + "/storage";
    if (tiny) c.partition_rows = 1024;
    c.log_format = LogFormat::kSegmented;
    c.vacuum_max_age_batches = 1;
    c.audit_ledger = true;
    Durable(&w);
  } else if (name == "scatter") {
    // The same amnesia and durability layers with scattered victims:
    // uniform forgetting on the delete backend (compacting every round,
    // the default) over vector storage and the default single-file log.
    c.dbsize = tiny ? 2000 : 10000;
    c.upd_perc = 0.4;
    c.queries_per_batch = 10;
    c.aggregate_queries_per_batch = 1;
    c.record_access = false;
    c.policy.kind = PolicyKind::kUniform;
    c.backend = BackendKind::kDelete;
    Durable(&w);
  } else if (name == "scan") {
    // Queries drive forgetting and do most of the work: rot with access
    // recording (the default), the default mark-only backend, vector
    // storage and no durability; range queries and aggregates at 10:1 on
    // one scan worker (the default). On a shared 4-vCPU VM, parallel
    // workers made the tail measure the host's scheduler: one preempted
    // worker stalls every query. Over six seeds with both settings run
    // in turn, batch_ms_p90 spread 40% with 2 workers and 7% with 1 (4
    // workers: 40% over ten seeds).
    c.dbsize = tiny ? 5000 : 25000;
    c.upd_perc = 0.05;
    c.queries_per_batch = tiny ? 20 : 100;
    c.aggregate_queries_per_batch = tiny ? 2 : 10;
    c.policy.kind = PolicyKind::kRot;
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (churn, scatter, scan)");
  }
  AMNESIA_RETURN_NOT_OK(c.Validate());
  return w;
}

}  // namespace perfbench
