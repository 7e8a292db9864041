// Copyright 2026 The AmnesiaDB Authors

#include "obs/sla.h"

#include <algorithm>

namespace amnesia {
namespace obs {

SlaTracker::PolicyState& SlaTracker::StateLocked(const std::string& policy) {
  auto it = states_.find(policy);
  if (it == states_.end()) {
    it = states_.emplace(policy, PolicyState{}).first;
    MetricsRegistry& registry = MetricsRegistry::Global();
    it->second.lag_gauge =
        registry.GetGauge("sla." + policy + ".forget_lag_batches");
    it->second.latency_hist =
        registry.GetHistogram("sla." + policy + ".deletion_latency_batches");
  }
  return it->second;
}

void SlaTracker::RecordSweep(const std::string& policy, uint64_t lag_batches,
                             uint64_t batch) {
  std::lock_guard<std::mutex> lock(mu_);
  PolicyState& state = StateLocked(policy);
  // Sharded sweeps record one sample per shard at the same batch; the
  // policy's lag for that batch is the WORST shard, so same-batch samples
  // fold with max while a newer batch resets the gauge.
  if (state.sweeps == 0 || batch > state.last_batch) {
    state.last_batch = batch;
    state.lag = lag_batches;
  } else if (batch == state.last_batch) {
    state.lag = std::max(state.lag, lag_batches);
  }
  ++state.sweeps;
  state.max_lag = std::max(state.max_lag, lag_batches);
  state.lag_gauge->Set(static_cast<int64_t>(state.lag));
}

void SlaTracker::RecordDeletionLatency(const std::string& policy,
                                       uint64_t latency_batches,
                                       uint64_t count) {
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  PolicyState& state = StateLocked(policy);
  // Manual accumulation into the always-on snapshot: Histogram::Record is
  // compiled out under AMNESIA_NO_METRICS but BucketIndex is not, so the
  // compliance histogram exists in both builds.
  state.latency.buckets[Histogram::BucketIndex(latency_batches)] += count;
  state.latency.count += count;
  state.latency.sum += latency_batches * count;
  state.latency_hist->Record(latency_batches, count);
}

void SlaTracker::RecordAttestation(const std::string& policy,
                                   const SlaAttestation& attestation) {
  std::lock_guard<std::mutex> lock(mu_);
  StateLocked(policy).attestation = attestation;
}

std::vector<SlaPolicySnapshot> SlaTracker::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SlaPolicySnapshot> out;
  out.reserve(states_.size());
  for (const auto& [policy, state] : states_) {
    SlaPolicySnapshot snap;
    snap.policy = policy;
    snap.sweeps = state.sweeps;
    snap.last_batch = state.last_batch;
    snap.forget_lag_batches = state.lag;
    snap.max_lag_batches = state.max_lag;
    snap.deletion_latency = state.latency;
    snap.attestation = state.attestation;
    out.push_back(std::move(snap));
  }
  return out;
}

Status SlaTracker::CheckSla(uint64_t max_lag_batches) const {
  std::lock_guard<std::mutex> lock(mu_);
  const PolicyState* worst = nullptr;
  const std::string* worst_name = nullptr;
  for (const auto& [policy, state] : states_) {
    if (worst == nullptr || state.lag > worst->lag) {
      worst = &state;
      worst_name = &policy;
    }
  }
  if (worst == nullptr || worst->lag <= max_lag_batches) {
    return Status::OK();
  }
  return Status::FailedPrecondition(
      "policy '" + *worst_name + "' forget lag " +
      std::to_string(worst->lag) + " batches exceeds SLA threshold " +
      std::to_string(max_lag_batches) + " (oldest live row is overdue)");
}

}  // namespace obs
}  // namespace amnesia
