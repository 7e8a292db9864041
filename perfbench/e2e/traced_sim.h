// Copyright 2026 The AmnesiaDB Authors
//
// The traced run: the Simulator's batch loop rebuilt from the public
// functions of each layer, called in the same order as
// Simulator::Wire / Initialize / StepBatch, with one benchmark-side span
// around every call. Nothing here reaches into the program; the fidelity
// check in main.cc compares the result with an untraced Simulator on the
// same seed, so a later change to StepBatch cannot quietly leave this
// copy behind.

#ifndef PERFBENCH_E2E_TRACED_SIM_H_
#define PERFBENCH_E2E_TRACED_SIM_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "amnesia/audit_ledger.h"
#include "amnesia/controller.h"
#include "amnesia/policy.h"
#include "common/rng.h"
#include "common/status.h"
#include "durability/checkpointer.h"
#include "durability/event_log.h"
#include "index/index_manager.h"
#include "obs/sla.h"
#include "query/executor.h"
#include "query/oracle.h"
#include "sim/config.h"
#include "sim/simulator.h"
#include "storage/cold_store.h"
#include "storage/summary_store.h"
#include "storage/table.h"
#include "workload/distribution.h"
#include "workload/query_gen.h"

namespace perfbench {

/// \brief One closed span: a named interval on the benchmark thread.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;  ///< Since the SpanLog's origin.
  int64_t dur_ns = 0;
  int32_t parent = -1;   ///< Index of the enclosing span, -1 for a root.
  uint32_t batch = 0;    ///< Batch the span belongs to (0 = set-up/after).
};

/// \brief In-memory span recorder for one thread; written out at the end
/// as Chrome trace-event JSON (opens in ui.perfetto.dev).
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int32_t Begin(const char* name) {
    Span s;
    s.name = name;
    s.start_ns = Now();
    s.parent = open_.empty() ? -1 : open_.back();
    s.batch = batch_;
    spans_.push_back(s);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  /// Closes the innermost open span (which must be `index`).
  void End(int32_t index) {
    spans_[index].dur_ns = Now() - spans_[index].start_ns;
    open_.pop_back();
  }
  void set_batch(uint32_t batch) { batch_ = batch; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a complete ("X") trace event.
  amnesia::Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t batch_ = 0;
};

/// \brief RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// \brief Registry counter deltas read once per stage per batch.
struct StageCounts {
  uint64_t pass_appends = 0;    ///< log.appends inside EnforceBudget.
  uint64_t pass_flushes = 0;    ///< log.fsyncs inside EnforceBudget.
  uint64_t vacuum_appends = 0;  ///< log.appends inside VacuumExpired.
  uint64_t passes = 0;          ///< EnforceBudget calls.
  uint64_t query_rows_scanned = 0;     ///< scan.rows_scanned in queries.
  uint64_t query_morsels_scanned = 0;  ///< scan.morsels_scanned in queries.
  uint64_t query_morsels_skipped = 0;  ///< scan.morsels_skipped in queries.
  uint64_t queries = 0;                ///< Range + aggregate calls.
  /// Σ over batches of (queries in the batch × active rows at the time).
  double query_live_rows = 0.0;
};

/// \brief The traced mirror of one Simulator.
class TracedSimulation {
 public:
  static amnesia::StatusOr<std::unique_ptr<TracedSimulation>> Make(
      const amnesia::SimulationConfig& config, SpanLog* spans);

  /// Mirrors Simulator::Initialize().
  amnesia::Status Initialize();
  /// Mirrors Simulator::StepBatch().
  amnesia::StatusOr<amnesia::BatchMetrics> StepBatch();
  /// Mirrors Simulator::FlushCheckpoints().
  amnesia::Status FlushCheckpoints();

  const amnesia::Table& table() const { return table_; }
  const amnesia::ColdStore& cold_store() const { return cold_; }
  const amnesia::SummaryStore& summary_store() const { return summaries_; }
  const amnesia::BackgroundCheckpointer* checkpointer() const {
    return checkpointer_ ? &*checkpointer_ : nullptr;
  }
  const StageCounts& counts() const { return counts_; }

 private:
  TracedSimulation(const amnesia::SimulationConfig& config, SpanLog* spans);
  amnesia::Status Wire();
  amnesia::Status FlushLog();
  amnesia::Status LogAppendedRows(const std::vector<amnesia::RowId>& rows,
                                  bool begin_batch);
  amnesia::Status RunQueryBatch(amnesia::BatchMetrics* metrics);
  amnesia::ExecOptions QueryOptions() const;

  amnesia::SimulationConfig config_;
  SpanLog* spans_;
  amnesia::Rng rng_;
  amnesia::Table table_;
  amnesia::GroundTruthOracle oracle_;
  amnesia::ColdStore cold_;
  amnesia::SummaryStore summaries_;
  amnesia::IndexManager indexes_;
  std::optional<amnesia::ValueGenerator> values_;
  std::optional<amnesia::RangeQueryGenerator> queries_;
  std::unique_ptr<amnesia::AmnesiaPolicy> policy_;
  std::optional<amnesia::AmnesiaController> controller_;
  std::optional<amnesia::Executor> executor_;
  // Declared before checkpointer_: the writer thread's retention GC
  // truncates both, so they must outlive it.
  std::unique_ptr<amnesia::EventLogBase> log_;
  std::unique_ptr<amnesia::AuditLedger> audit_ledger_;
  amnesia::obs::SlaTracker sla_;
  std::optional<amnesia::BackgroundCheckpointer> checkpointer_;
  bool initialized_ = false;
  uint32_t rounds_run_ = 0;
  StageCounts counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_E2E_TRACED_SIM_H_
