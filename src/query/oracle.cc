// Copyright 2026 The AmnesiaDB Authors

#include "query/oracle.h"

#include <algorithm>
#include <chrono>

#include "obs/engine_metrics.h"

namespace amnesia {

void GroundTruthOracle::Append(Value v) {
  if (values_.empty() && pending_.empty()) {
    max_seen_ = v;
    min_seen_ = v;
  } else {
    max_seen_ = std::max(max_seen_, v);
    min_seen_ = std::min(min_seen_, v);
  }
  pending_.push_back(v);
}

void GroundTruthOracle::Seal() {
  if (pending_.empty()) return;
  const auto start = std::chrono::steady_clock::now();
  std::sort(pending_.begin(), pending_.end());
  size_t first_changed = 0;
  if (values_.empty()) {
    values_.swap(pending_);
  } else {
    // Entries below the smallest new value keep their positions, and so
    // do their prefix sums; only the suffix from here on is merged and
    // re-summed.
    first_changed = static_cast<size_t>(
        std::upper_bound(values_.begin(), values_.end(), pending_.front()) -
        values_.begin());
    const size_t old_size = values_.size();
    values_.insert(values_.end(), pending_.begin(), pending_.end());
    std::inplace_merge(values_.begin() + first_changed,
                       values_.begin() + old_size, values_.end());
  }
  pending_.clear();
  // Same sequential recurrence as a rebuild from index 0, so every sum is
  // bit-identical to one.
  prefix_sum_.resize(values_.size() + 1, 0.0);
  prefix_sq_.resize(values_.size() + 1, 0.0);
  for (size_t i = first_changed; i < values_.size(); ++i) {
    const double v = static_cast<double>(values_[i]);
    prefix_sum_[i + 1] = prefix_sum_[i] + v;
    prefix_sq_[i + 1] = prefix_sq_[i] + v * v;
  }
  obs::EngineMetrics& metrics = obs::EngineMetrics::Get();
  metrics.oracle_seal_ns->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  metrics.oracle_history_rows->Set(static_cast<int64_t>(values_.size()));
}

StatusOr<uint64_t> GroundTruthOracle::CountRange(Value lo, Value hi) const {
  if (!sealed()) {
    return Status::FailedPrecondition("oracle has unsealed appends");
  }
  if (lo >= hi) return uint64_t{0};
  const auto first = std::lower_bound(values_.begin(), values_.end(), lo);
  const auto last = std::lower_bound(values_.begin(), values_.end(), hi);
  return static_cast<uint64_t>(last - first);
}

StatusOr<Value> GroundTruthOracle::ValueAt(uint64_t i) const {
  if (!sealed()) {
    return Status::FailedPrecondition("oracle has unsealed appends");
  }
  if (i >= values_.size()) {
    return Status::OutOfRange("oracle index out of range");
  }
  return values_[i];
}

StatusOr<AggregateResult> GroundTruthOracle::AggregateRange(Value lo,
                                                            Value hi) const {
  if (!sealed()) {
    return Status::FailedPrecondition("oracle has unsealed appends");
  }
  AggregateResult out;
  if (lo >= hi) return out;
  const auto begin = values_.begin();
  const size_t first =
      static_cast<size_t>(std::lower_bound(begin, values_.end(), lo) - begin);
  const size_t last =
      static_cast<size_t>(std::lower_bound(begin, values_.end(), hi) - begin);
  if (first >= last) return out;
  const uint64_t count = last - first;
  const double sum = prefix_sum_[last] - prefix_sum_[first];
  const double sq = prefix_sq_[last] - prefix_sq_[first];
  out.count = count;
  out.sum = sum;
  out.avg = sum / static_cast<double>(count);
  out.min = static_cast<double>(values_[first]);
  out.max = static_cast<double>(values_[last - 1]);
  out.variance = sq / static_cast<double>(count) - out.avg * out.avg;
  if (out.variance < 0.0) out.variance = 0.0;  // numeric guard
  return out;
}

}  // namespace amnesia
