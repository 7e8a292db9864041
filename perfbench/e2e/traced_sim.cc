// Copyright 2026 The AmnesiaDB Authors

#include "traced_sim.h"

#include <cstdio>
#include <utility>

#include "amnesia/registry.h"
#include "durability/log_segments.h"
#include "metrics/precision.h"
#include "obs/engine_metrics.h"
#include "query/scan.h"
#include "storage/mapped_file.h"
#include "workload/update_gen.h"

namespace perfbench {

using namespace amnesia;  // NOLINT: the mirror names most of the library

Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"batch\":%u}}\n",
                 i == 0 ? "" : ",", s.name, s.start_ns / 1e3, s.dur_ns / 1e3,
                 s.batch);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::Internal("cannot write " + path);
}

namespace {

uint64_t Read(obs::Counter* c) { return c->Value(); }

}  // namespace

TracedSimulation::TracedSimulation(const SimulationConfig& config,
                                   SpanLog* spans)
    : config_(config),
      spans_(spans),
      rng_(config.seed),
      table_(Table::Make(Schema::SingleColumn(
                             "a", config.distribution.domain_lo,
                             config.distribution.domain_hi))
                 .value()) {}

StatusOr<std::unique_ptr<TracedSimulation>> TracedSimulation::Make(
    const SimulationConfig& config, SpanLog* spans) {
  AMNESIA_RETURN_NOT_OK(config.Validate());
  if (config.serve_port >= 0 || config.metrics_report_every_n_batches > 0) {
    // The mirror covers the batch loop only; a run that also serves or
    // logs delta reports would do work the trace does not see.
    return Status::InvalidArgument(
        "the traced run mirrors neither serve_port nor metric reports");
  }
  std::unique_ptr<TracedSimulation> sim(new TracedSimulation(config, spans));
  AMNESIA_RETURN_NOT_OK(sim->Wire());
  return sim;
}

// Simulator::Wire, minus the introspection server.
Status TracedSimulation::Wire() {
  if (config_.storage_backend == StorageBackend::kMapped) {
    AMNESIA_RETURN_NOT_OK(RemoveDirRecursive(config_.storage_dir));
    StorageOptions storage;
    storage.backend = StorageBackend::kMapped;
    storage.dir = config_.storage_dir;
    storage.partition_rows = config_.partition_rows;
    AMNESIA_ASSIGN_OR_RETURN(
        Table mapped,
        Table::Make(Schema::SingleColumn("a", config_.distribution.domain_lo,
                                         config_.distribution.domain_hi),
                    storage));
    table_ = std::move(mapped);
  }
  AMNESIA_ASSIGN_OR_RETURN(ValueGenerator vg,
                           ValueGenerator::Make(config_.distribution));
  values_.emplace(std::move(vg));
  AMNESIA_ASSIGN_OR_RETURN(RangeQueryGenerator qg,
                           RangeQueryGenerator::Make(config_.query));
  queries_.emplace(std::move(qg));
  AMNESIA_ASSIGN_OR_RETURN(policy_, CreatePolicy(config_.policy, &oracle_));

  ControllerOptions copts;
  copts.mode = BudgetMode::kFixedTupleCount;
  copts.dbsize_budget = config_.dbsize;
  copts.backend = config_.backend;
  copts.payload_col = config_.query.col;
  copts.compact_every_n_rounds = config_.compact_every_n_rounds;
  AMNESIA_ASSIGN_OR_RETURN(
      AmnesiaController ctrl,
      AmnesiaController::Make(copts, policy_.get(), &table_, &indexes_,
                              &cold_, &summaries_));
  controller_.emplace(std::move(ctrl));
  executor_.emplace(&table_, &indexes_);

  if (config_.checkpoint_every_n_batches > 0) {
    AMNESIA_RETURN_NOT_OK(EnsureDir(config_.checkpoint_dir));
    AMNESIA_RETURN_NOT_OK(ClearCheckpointArtifacts(config_.checkpoint_dir));
    AMNESIA_RETURN_NOT_OK(RemoveEventLog(EventLogPathFor(
        config_.checkpoint_dir, config_.log_format == LogFormat::kSegmented
                                    ? LogFormat::kSingleFile
                                    : LogFormat::kSegmented)));
    const std::string log_path =
        EventLogPathFor(config_.checkpoint_dir, config_.log_format);
    if (config_.log_format == LogFormat::kSegmented) {
      SegmentedLogOptions sopts;
      sopts.max_segment_bytes = config_.log_segment_bytes;
      sopts.sync = config_.log_sync;
      AMNESIA_ASSIGN_OR_RETURN(SegmentedEventLog log,
                               SegmentedEventLog::Open(log_path, sopts));
      log_ = std::make_unique<SegmentedEventLog>(std::move(log));
    } else {
      AMNESIA_ASSIGN_OR_RETURN(EventLog log, EventLog::Open(log_path));
      log.set_sync_policy(config_.log_sync);
      log_ = std::make_unique<EventLog>(std::move(log));
    }
    controller_->set_event_sink(log_.get(), /*shard_id=*/0);
    if (config_.audit_ledger) {
      AuditLedgerOptions aopts;
      aopts.max_segment_bytes = config_.audit_segment_bytes;
      AMNESIA_ASSIGN_OR_RETURN(
          AuditLedger ledger,
          AuditLedger::Open(AuditDirFor(config_.checkpoint_dir), aopts));
      audit_ledger_ = std::make_unique<AuditLedger>(std::move(ledger));
      controller_->set_audit_ledger(audit_ledger_.get(), log_.get());
    }
    CheckpointerOptions ckopts;
    ckopts.dir = config_.checkpoint_dir;
    ckopts.async = config_.checkpoint_async;
    ckopts.retain = config_.checkpoint_retention;
    ckopts.log_format = config_.log_format;
    ckopts.log = log_.get();
    if (audit_ledger_ && config_.audit_retention_records > 0) {
      AuditLedger* ledger = audit_ledger_.get();
      const uint64_t keep = config_.audit_retention_records;
      ckopts.on_retention_gc = [ledger, keep](uint64_t /*oldest_lsn*/) {
        const uint64_t next = ledger->next_seq();
        if (next > keep) (void)ledger->TruncateBefore(next - keep);
      };
    }
    AMNESIA_ASSIGN_OR_RETURN(BackgroundCheckpointer ckpt,
                             BackgroundCheckpointer::Make(ckopts));
    checkpointer_.emplace(std::move(ckpt));
  }
  if (config_.vacuum_max_age_batches > 0) {
    controller_->set_sla_tracker(&sla_);
  }
  return Status::OK();
}

Status TracedSimulation::FlushLog() {
  return log_ ? log_->Flush() : Status::OK();
}

Status TracedSimulation::FlushCheckpoints() {
  AMNESIA_RETURN_NOT_OK(FlushLog());
  return checkpointer_ ? checkpointer_->WaitIdle() : Status::OK();
}

Status TracedSimulation::LogAppendedRows(const std::vector<RowId>& rows,
                                         bool begin_batch) {
  if (!log_) return Status::OK();
  if (begin_batch) {
    Event begin;
    begin.kind = EventKind::kBeginBatch;
    AMNESIA_RETURN_NOT_OK(log_->Append(begin));
  }
  Event append;
  append.kind = EventKind::kAppendRows;
  append.columns.resize(table_.num_columns());
  for (auto& col : append.columns) col.reserve(rows.size());
  for (RowId r : rows) {
    for (size_t c = 0; c < table_.num_columns(); ++c) {
      append.columns[c].push_back(table_.value(c, r));
    }
  }
  return log_->Append(append);
}

Status TracedSimulation::Initialize() {
  if (initialized_) {
    return Status::FailedPrecondition("simulator already initialized");
  }
  std::vector<RowId> rows;
  {
    ScopedSpan span(spans_, "workload.initial_load");
    AMNESIA_ASSIGN_OR_RETURN(
        rows, InitialLoad(&table_, &oracle_, &*values_,
                          static_cast<size_t>(config_.dbsize), &rng_));
  }
  {
    ScopedSpan span(spans_, "durability.journal");
    AMNESIA_RETURN_NOT_OK(LogAppendedRows(rows, /*begin_batch=*/false));
  }
  {
    ScopedSpan span(spans_, "durability.flush");
    AMNESIA_RETURN_NOT_OK(FlushLog());
  }
  if (checkpointer_) {
    ScopedSpan span(spans_, "durability.checkpoint");
    AMNESIA_RETURN_NOT_OK(checkpointer_->Checkpoint(
        table_, log_->next_lsn(), TierSet{&cold_, &summaries_}));
  }
  initialized_ = true;
  return Status::OK();
}

ExecOptions TracedSimulation::QueryOptions() const {
  ExecOptions opts;
  opts.plan = config_.plan;
  opts.visibility = Visibility::kActiveOnly;
  opts.record_access = config_.record_access;
  opts.parallelism = config_.parallelism;
  opts.engine = config_.engine;
  return opts;
}

// Simulator::RunQueryBatch with RunOneRangeQuery inlined.
Status TracedSimulation::RunQueryBatch(BatchMetrics* metrics) {
  PrecisionAccumulator ranges;
  for (uint32_t q = 0; q < config_.queries_per_batch; ++q) {
    RangePredicate pred;
    {
      ScopedSpan span(spans_, "workload.query_gen");
      AMNESIA_ASSIGN_OR_RETURN(pred, queries_->Next(table_, oracle_, &rng_));
    }
    ResultSet result;
    {
      ScopedSpan span(spans_, "query.range");
      AMNESIA_ASSIGN_OR_RETURN(result,
                               executor_->ExecuteRange(pred, QueryOptions()));
    }
    uint64_t truth = 0;
    {
      ScopedSpan span(spans_, "query.oracle");
      AMNESIA_ASSIGN_OR_RETURN(truth, oracle_.CountRange(pred.lo, pred.hi));
    }
    ranges.Add(MakeRangePrecision(result.size(), truth));
  }
  if (config_.queries_per_batch > 0) {
    metrics->avg_rf = ranges.AvgRf();
    metrics->avg_mf = ranges.AvgMf();
    metrics->mean_pf = ranges.MeanPf();
    metrics->error_margin = ranges.ErrorMargin();
  }

  if (config_.aggregate_queries_per_batch > 0) {
    double precision_sum = 0.0;
    double rel_error_sum = 0.0;
    for (uint32_t q = 0; q < config_.aggregate_queries_per_batch; ++q) {
      RangePredicate pred = RangePredicate::All(config_.query.col);
      if (config_.aggregate_over_range) {
        ScopedSpan span(spans_, "workload.query_gen");
        AMNESIA_ASSIGN_OR_RETURN(pred, queries_->Next(table_, oracle_, &rng_));
      }
      AggregateResult amnesic;
      {
        ScopedSpan span(spans_, "query.aggregate");
        if (config_.backend == BackendKind::kSummary) {
          AMNESIA_ASSIGN_OR_RETURN(amnesic,
                                   executor_->ExecuteAggregateWithSummary(
                                       pred, summaries_, QueryOptions()));
        } else {
          AMNESIA_ASSIGN_OR_RETURN(
              amnesic, executor_->ExecuteAggregate(pred, QueryOptions()));
        }
      }
      AggregateResult truth;
      {
        ScopedSpan span(spans_, "query.oracle");
        AMNESIA_ASSIGN_OR_RETURN(truth,
                                 oracle_.AggregateRange(pred.lo, pred.hi));
      }
      precision_sum += AggregatePrecision(amnesic.avg, truth.avg);
      rel_error_sum += AggregateRelativeError(amnesic.avg, truth.avg);
    }
    const double n = static_cast<double>(config_.aggregate_queries_per_batch);
    metrics->aggregate_precision = precision_sum / n;
    metrics->aggregate_rel_error = rel_error_sum / n;
  }
  return Status::OK();
}

// Simulator::StepBatch, stage by stage. Registry counters are read
// between stages (outside their spans), never per query.
StatusOr<BatchMetrics> TracedSimulation::StepBatch() {
  if (!initialized_) {
    return Status::FailedPrecondition("call Initialize() first");
  }
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  BatchMetrics metrics;
  metrics.batch = ++rounds_run_;
  spans_->set_batch(metrics.batch);
  ScopedSpan batch_span(spans_, "sim.batch");

  // 1. Ingest.
  std::vector<RowId> rows;
  {
    ScopedSpan span(spans_, "workload.ingest");
    AMNESIA_ASSIGN_OR_RETURN(
        rows, ApplyUpdateBatch(&table_, &oracle_, &*values_,
                               static_cast<size_t>(config_.BatchInsertCount()),
                               &rng_));
  }
  metrics.inserted = rows.size();
  {
    ScopedSpan span(spans_, "durability.journal");
    AMNESIA_RETURN_NOT_OK(LogAppendedRows(rows, /*begin_batch=*/true));
  }

  // 2. Budget pass, then the vacuum deadline sweep.
  uint64_t appends = Read(m.log_appends);
  uint64_t flushes = Read(m.log_fsyncs);
  {
    ScopedSpan span(spans_, "amnesia.pass");
    AMNESIA_RETURN_NOT_OK(controller_->EnforceBudget(&rng_));
  }
  counts_.pass_appends += Read(m.log_appends) - appends;
  counts_.pass_flushes += Read(m.log_fsyncs) - flushes;
  ++counts_.passes;
  appends = Read(m.log_appends);
  {
    ScopedSpan span(spans_, "amnesia.vacuum");
    if (config_.vacuum_max_age_batches > 0) {
      AMNESIA_RETURN_NOT_OK(
          controller_->VacuumExpired(config_.vacuum_max_age_batches)
              .status());
    }
  }
  counts_.vacuum_appends += Read(m.log_appends) - appends;
  metrics.active = table_.num_active();
  metrics.forgotten_total = table_.lifetime_forgotten();
  {
    ScopedSpan span(spans_, "durability.flush");
    AMNESIA_RETURN_NOT_OK(FlushLog());
  }

  // 2b. Attestation cross-check.
  {
    ScopedSpan span(spans_, "sim.attest");
    if (config_.vacuum_max_age_batches > 0) {
      obs::SlaAttestation att;
      att.checked = true;
      att.batch = table_.current_batch();
      att.max_age_batches = config_.vacuum_max_age_batches;
      AMNESIA_ASSIGN_OR_RETURN(
          att.live_rows,
          CountRange(table_, RangePredicate::All(config_.query.col),
                     Visibility::kActiveOnly, config_.engine));
      const uint64_t current = table_.current_batch();
      const uint64_t n = table_.num_rows();
      uint64_t overdue = 0;
      for (RowId r = 0; r < n; ++r) {
        if (!table_.IsActive(r)) continue;
        if (current - table_.batch_of(r) > config_.vacuum_max_age_batches) {
          ++overdue;
        }
      }
      att.overdue_rows = overdue;
      att.passed = overdue == 0 && att.live_rows == table_.num_active();
      sla_.RecordAttestation(std::string(PolicyKindToString(policy_->kind())),
                             att);
    }
  }

  // 3. Query batch.
  const uint64_t scanned = Read(m.scan_rows_scanned);
  const uint64_t morsels = Read(m.scan_morsels_scanned);
  const uint64_t skipped = Read(m.scan_morsels_skipped);
  const uint64_t queries =
      config_.queries_per_batch + config_.aggregate_queries_per_batch;
  counts_.queries += queries;
  counts_.query_live_rows +=
      static_cast<double>(queries) * static_cast<double>(table_.num_active());
  {
    ScopedSpan span(spans_, "query.batch");
    AMNESIA_RETURN_NOT_OK(RunQueryBatch(&metrics));
  }
  counts_.query_rows_scanned += Read(m.scan_rows_scanned) - scanned;
  counts_.query_morsels_scanned += Read(m.scan_morsels_scanned) - morsels;
  counts_.query_morsels_skipped += Read(m.scan_morsels_skipped) - skipped;

  // 4. Checkpoint cadence.
  {
    ScopedSpan span(spans_, "durability.checkpoint");
    if (checkpointer_ &&
        rounds_run_ % config_.checkpoint_every_n_batches == 0) {
      AMNESIA_RETURN_NOT_OK(checkpointer_->Checkpoint(
          table_, log_->next_lsn(), TierSet{&cold_, &summaries_}));
    }
  }
  return metrics;
}

}  // namespace perfbench
