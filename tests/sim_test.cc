// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the simulator: config validation, invariants of the
// query-dominant loop, determinism, engine equivalence, the canned
// experiment configs.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "sim/experiments.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"

namespace amnesia {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.seed = 7;
  config.dbsize = 200;
  config.upd_perc = 0.2;
  config.num_batches = 5;
  config.queries_per_batch = 50;
  config.distribution.kind = DistributionKind::kUniform;
  config.distribution.domain_hi = 10'000;
  config.policy.kind = PolicyKind::kUniform;
  return config;
}

// ---------------------------------------------------------------- Config

TEST(ConfigTest, ValidateAcceptsDefaults) {
  EXPECT_TRUE(SmallConfig().Validate().ok());
}

TEST(ConfigTest, ValidateRejectsBadFields) {
  SimulationConfig c = SmallConfig();
  c.dbsize = 0;
  EXPECT_FALSE(c.Validate().ok());

  c = SmallConfig();
  c.upd_perc = -0.1;
  EXPECT_FALSE(c.Validate().ok());

  c = SmallConfig();
  c.queries_per_batch = 0;
  c.aggregate_queries_per_batch = 0;
  EXPECT_FALSE(c.Validate().ok());

  c = SmallConfig();
  c.query.selectivity = 0.0;
  EXPECT_FALSE(c.Validate().ok());

  c = SmallConfig();
  c.distribution.domain_hi = c.distribution.domain_lo;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ConfigTest, BatchInsertCountRoundsAndFloorsAtOne) {
  SimulationConfig c = SmallConfig();
  c.dbsize = 1000;
  c.upd_perc = 0.2;
  EXPECT_EQ(c.BatchInsertCount(), 200u);
  c.upd_perc = 0.0001;
  EXPECT_EQ(c.BatchInsertCount(), 1u);  // floor
  c.upd_perc = 0.8;
  EXPECT_EQ(c.BatchInsertCount(), 800u);
}

// -------------------------------------------------------------- Simulator

TEST(SimulatorTest, MakeRejectsInvalidConfig) {
  SimulationConfig c = SmallConfig();
  c.dbsize = 0;
  EXPECT_FALSE(Simulator::Make(c).ok());
}

TEST(SimulatorTest, StepBeforeInitializeFails) {
  auto sim = Simulator::Make(SmallConfig()).value();
  EXPECT_EQ(sim->StepBatch().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SimulatorTest, DoubleInitializeFails) {
  auto sim = Simulator::Make(SmallConfig()).value();
  ASSERT_TRUE(sim->Initialize().ok());
  EXPECT_EQ(sim->Initialize().code(), StatusCode::kFailedPrecondition);
}

TEST(SimulatorTest, BudgetHoldsEveryRound) {
  auto sim = Simulator::Make(SmallConfig()).value();
  ASSERT_TRUE(sim->Initialize().ok());
  EXPECT_EQ(sim->table().num_active(), 200u);
  for (int b = 1; b <= 5; ++b) {
    const BatchMetrics m = sim->StepBatch().value();
    EXPECT_EQ(m.batch, static_cast<uint32_t>(b));
    EXPECT_EQ(m.active, 200u);
    EXPECT_EQ(m.inserted, 40u);
    EXPECT_EQ(sim->table().num_active(), 200u);
  }
  // Oracle saw everything: 200 + 5 * 40.
  EXPECT_EQ(sim->oracle().size(), 400u);
}

TEST(SimulatorTest, PrecisionIsInUnitIntervalAndDecays) {
  SimulationConfig c = SmallConfig();
  c.upd_perc = 0.8;
  c.num_batches = 8;
  auto result = Simulator::Make(c).value()->Run();
  ASSERT_TRUE(result.ok());
  const auto& batches = result->batches;
  ASSERT_EQ(batches.size(), 8u);
  for (const auto& m : batches) {
    EXPECT_GE(m.mean_pf, 0.0);
    EXPECT_LE(m.mean_pf, 1.0);
    EXPECT_GE(m.error_margin, 0.0);
    EXPECT_LE(m.error_margin, 1.0);
  }
  // More history forgotten -> lower precision at the end than the start.
  EXPECT_LT(batches.back().mean_pf, batches.front().mean_pf);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  const SimulationConfig c = SmallConfig();
  auto r1 = Simulator::Make(c).value()->Run().value();
  auto r2 = Simulator::Make(c).value()->Run().value();
  ASSERT_EQ(r1.batches.size(), r2.batches.size());
  for (size_t i = 0; i < r1.batches.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.batches[i].mean_pf, r2.batches[i].mean_pf);
    EXPECT_DOUBLE_EQ(r1.batches[i].avg_rf, r2.batches[i].avg_rf);
    EXPECT_EQ(r1.batches[i].forgotten_total, r2.batches[i].forgotten_total);
  }
  ASSERT_EQ(r1.batch_retention.size(), r2.batch_retention.size());
  for (size_t i = 0; i < r1.batch_retention.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.batch_retention[i], r2.batch_retention[i]);
  }
}

TEST(SimulatorTest, ParallelBatchLoopMatchesSerial) {
  // ExecOptions-routed parallelism: the batch loop's range and aggregate
  // queries run on the morsel engine, and every reported metric must be
  // identical to the serial run (range precision is count-based;
  // aggregates here are AVG over identical result sets). The table must
  // span more than one default-size morsel (> 65536 rows), or PoolFor
  // stays serial and the parallel dispatch is never exercised.
  SimulationConfig serial = SmallConfig();
  serial.dbsize = 70'000;
  serial.num_batches = 3;
  serial.queries_per_batch = 20;
  serial.aggregate_queries_per_batch = 5;
  SimulationConfig parallel = serial;
  parallel.parallelism = 4;

  auto rs = Simulator::Make(serial).value()->Run().value();
  auto rp = Simulator::Make(parallel).value()->Run().value();
  ASSERT_EQ(rp.batches.size(), rs.batches.size());
  for (size_t i = 0; i < rs.batches.size(); ++i) {
    EXPECT_DOUBLE_EQ(rp.batches[i].mean_pf, rs.batches[i].mean_pf);
    EXPECT_DOUBLE_EQ(rp.batches[i].avg_rf, rs.batches[i].avg_rf);
    EXPECT_DOUBLE_EQ(rp.batches[i].avg_mf, rs.batches[i].avg_mf);
    EXPECT_EQ(rp.batches[i].forgotten_total, rs.batches[i].forgotten_total);
    EXPECT_NEAR(rp.batches[i].aggregate_precision,
                rs.batches[i].aggregate_precision, 1e-9);
  }
}

// Tiny versions of the three end-to-end benchmark shapes (perfbench/):
// churn, scatter and scan. `dir` holds the run's checkpoints and
// partition files.
SimulationConfig ChurnShape(const std::string& dir) {
  SimulationConfig c;
  c.seed = 911;
  c.dbsize = 1500;
  c.upd_perc = 0.4;
  c.num_batches = 6;
  c.queries_per_batch = 10;
  c.aggregate_queries_per_batch = 2;
  c.record_access = false;
  c.policy.kind = PolicyKind::kFifo;
  c.backend = BackendKind::kDelete;
  c.storage_backend = StorageBackend::kMapped;
  c.storage_dir = dir + "/storage";
  c.partition_rows = 256;
  c.log_format = LogFormat::kSegmented;
  c.vacuum_max_age_batches = 1;
  c.audit_ledger = true;
  c.checkpoint_every_n_batches = 4;
  c.checkpoint_dir = dir + "/ckpt";
  c.checkpoint_retention = 2;
  return c;
}

SimulationConfig ScatterShape() {
  SimulationConfig c;
  c.seed = 912;
  c.dbsize = 1500;
  c.upd_perc = 0.4;
  c.num_batches = 6;
  c.queries_per_batch = 10;
  c.aggregate_queries_per_batch = 2;
  c.record_access = false;
  c.policy.kind = PolicyKind::kUniform;
  c.backend = BackendKind::kDelete;
  return c;
}

SimulationConfig ScanShape() {
  SimulationConfig c;
  c.seed = 913;
  c.dbsize = 2000;
  c.upd_perc = 0.05;
  c.num_batches = 6;
  c.queries_per_batch = 20;
  c.aggregate_queries_per_batch = 2;
  c.policy.kind = PolicyKind::kRot;
  c.record_access = true;
  return c;
}

struct EngineRun {
  SimulationResult result;
  std::vector<uint8_t> final_table;
};

EngineRun RunWithEngine(SimulationConfig config, Engine engine,
                        int parallelism) {
  config.engine = engine;
  config.parallelism = parallelism;
  // Each run gets its own checkpoint and partition directories.
  const std::string tag = "_" + std::to_string(static_cast<int>(engine)) +
                          "_" + std::to_string(parallelism);
  for (std::string* dir : {&config.checkpoint_dir, &config.storage_dir}) {
    if (dir->empty()) continue;
    *dir += tag;
    std::filesystem::remove_all(*dir);
  }
  auto sim = Simulator::Make(config);
  if (!sim.ok()) {
    ADD_FAILURE() << sim.status().ToString();
    return {};
  }
  auto result = (*sim)->Run();
  if (!result.ok()) {
    ADD_FAILURE() << result.status().ToString();
    return {};
  }
  return {std::move(result).value(), CheckpointTable((*sim)->table())};
}

TEST(SimulatorTest, VectorizedEngineMatchesScalarReferenceOnBenchShapes) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "amnesia_sim_engines")
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const SimulationConfig shapes[] = {ChurnShape(root), ScatterShape(),
                                     ScanShape()};
  for (const SimulationConfig& shape : shapes) {
    for (int parallelism : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << PolicyKindToString(shape.policy.kind)
                   << " parallelism " << parallelism);
      const EngineRun scalar =
          RunWithEngine(shape, Engine::kScalar, parallelism);
      const EngineRun vec =
          RunWithEngine(shape, SimulationConfig().engine, parallelism);
      const auto& rs = scalar.result.batches;
      const auto& rv = vec.result.batches;
      ASSERT_EQ(rv.size(), rs.size());
      ASSERT_EQ(rs.size(), shape.num_batches);
      for (size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rv[i].mean_pf, rs[i].mean_pf) << "batch " << i;
        EXPECT_EQ(rv[i].avg_rf, rs[i].avg_rf) << "batch " << i;
        EXPECT_EQ(rv[i].avg_mf, rs[i].avg_mf) << "batch " << i;
        EXPECT_EQ(rv[i].active, rs[i].active) << "batch " << i;
        EXPECT_EQ(rv[i].forgotten_total, rs[i].forgotten_total)
            << "batch " << i;
        const double scale = std::max(
            {1.0, std::fabs(rs[i].aggregate_precision),
             std::fabs(rv[i].aggregate_precision)});
        EXPECT_NEAR(rv[i].aggregate_precision, rs[i].aggregate_precision,
                    1e-9 * scale)
            << "batch " << i;
      }
      // Same table state, access counts included.
      EXPECT_EQ(vec.final_table, scalar.final_table);
    }
  }
  std::filesystem::remove_all(root);
}

// Size of every file under `root`, keyed by its path below `root`.
std::map<std::string, uintmax_t> FileSizes(const std::string& root) {
  std::map<std::string, uintmax_t> sizes;
  for (const auto& e : std::filesystem::recursive_directory_iterator(root)) {
    if (e.is_regular_file()) {
      sizes[std::filesystem::relative(e.path(), root).string()] =
          e.file_size();
    }
  }
  return sizes;
}

// A seeded run leaves the same bytes on disk wherever it runs: the churn
// shape (mapped storage, async checkpoints with retention, segmented log,
// audit ledger) run twice, into directories whose paths differ in length,
// must leave the same files with the same sizes.
TEST(SimulatorTest, DiskFootprintIsAFunctionOfTheSeed) {
  const std::filesystem::path tmp = std::filesystem::temp_directory_path();
  std::map<std::string, uintmax_t> sizes[2];
  const std::string roots[2] = {(tmp / "amnesia_disk_a").string(),
                                (tmp / "amnesia_disk_a_longer_path").string()};
  for (int i = 0; i < 2; ++i) {
    std::filesystem::remove_all(roots[i]);
    std::filesystem::create_directories(roots[i]);
    SimulationConfig c = ChurnShape(roots[i]);
    ASSERT_TRUE(c.checkpoint_async);
    c.num_batches = 13;  // three checkpoints, so retention GC runs
    auto sim = Simulator::Make(c);
    ASSERT_TRUE(sim.ok()) << sim.status().ToString();
    const Status run = (*sim)->Run().status();
    ASSERT_TRUE(run.ok()) << run.ToString();
    sizes[i] = FileSizes(roots[i]);
  }
  EXPECT_FALSE(sizes[0].empty());
  EXPECT_EQ(sizes[0], sizes[1]);
  for (const std::string& root : roots) std::filesystem::remove_all(root);
}

TEST(ConfigTest, ValidateRejectsNonPositiveParallelism) {
  SimulationConfig c = SmallConfig();
  c.parallelism = 0;
  EXPECT_FALSE(c.Validate().ok());
  c.parallelism = 4;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(SimulatorTest, DifferentSeedsDiverge) {
  SimulationConfig c1 = SmallConfig();
  SimulationConfig c2 = SmallConfig();
  c2.seed = 8888;
  auto r1 = Simulator::Make(c1).value()->Run().value();
  auto r2 = Simulator::Make(c2).value()->Run().value();
  bool any_diff = false;
  for (size_t i = 0; i < r1.batches.size(); ++i) {
    if (r1.batches[i].avg_rf != r2.batches[i].avg_rf) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SimulatorTest, RetentionMapsShapeAndBounds) {
  auto result = Simulator::Make(SmallConfig()).value()->Run().value();
  ASSERT_EQ(result.batch_retention.size(), 6u);  // batch 0 + 5 updates
  for (double v : result.batch_retention) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_EQ(result.timeline_retention.size(), 100u);
}

TEST(SimulatorTest, AggregateMetricsPopulated) {
  SimulationConfig c = SmallConfig();
  c.aggregate_queries_per_batch = 20;
  c.aggregate_over_range = false;
  auto result = Simulator::Make(c).value()->Run().value();
  for (const auto& m : result.batches) {
    EXPECT_GE(m.aggregate_precision, 0.0);
    EXPECT_LE(m.aggregate_precision, 1.0);
    EXPECT_GE(m.aggregate_rel_error, 0.0);
  }
}

TEST(SimulatorTest, ExecutorStatsAccumulate) {
  auto sim = Simulator::Make(SmallConfig()).value();
  auto result = sim->Run().value();
  EXPECT_EQ(result.executor.queries, 5u * 50u);
  EXPECT_EQ(result.controller.rounds, 5u);
}

TEST(SimulatorTest, IndexPlanProducesSamePrecisionAsScan) {
  SimulationConfig scan_cfg = SmallConfig();
  SimulationConfig btree_cfg = SmallConfig();
  btree_cfg.plan = PlanKind::kBTreeProbe;
  auto r_scan = Simulator::Make(scan_cfg).value()->Run().value();
  auto r_btree = Simulator::Make(btree_cfg).value()->Run().value();
  for (size_t i = 0; i < r_scan.batches.size(); ++i) {
    EXPECT_DOUBLE_EQ(r_scan.batches[i].mean_pf, r_btree.batches[i].mean_pf);
  }
  EXPECT_GT(r_btree.executor.btree_probes, 0u);
}

TEST(SimulatorTest, SummaryBackendRunsAndFolds) {
  SimulationConfig c = SmallConfig();
  c.backend = BackendKind::kSummary;
  c.aggregate_queries_per_batch = 10;
  auto sim = Simulator::Make(c).value();
  auto result = sim->Run().value();
  EXPECT_GT(sim->summary_store().Total(0).count, 0u);
  EXPECT_EQ(sim->summary_store().Total(0).count,
            result.controller.summary_folds);
}

TEST(SimulatorTest, ColdBackendParksEvictions) {
  SimulationConfig c = SmallConfig();
  c.backend = BackendKind::kColdStorage;
  auto sim = Simulator::Make(c).value();
  auto result = sim->Run().value();
  EXPECT_EQ(sim->cold_store().size(), result.controller.cold_evictions);
  EXPECT_GT(sim->cold_store().size(), 0u);
}

TEST(SimulatorTest, DeleteBackendCompactsPhysically) {
  SimulationConfig c = SmallConfig();
  c.backend = BackendKind::kDelete;
  auto sim = Simulator::Make(c).value();
  auto result = sim->Run().value();
  EXPECT_GT(result.controller.compactions, 0u);
  EXPECT_EQ(sim->table().num_rows(), sim->table().num_active());
  // Precision is still measurable because the oracle never forgets.
  EXPECT_LT(result.batches.back().mean_pf, 1.0);
}

TEST(SimulatorTest, EveryPolicyRunsEndToEnd) {
  for (PolicyKind kind : AllPolicyKinds()) {
    SimulationConfig c = SmallConfig();
    c.policy.kind = kind;
    c.num_batches = 3;
    auto result = Simulator::Make(c).value()->Run();
    ASSERT_TRUE(result.ok()) << PolicyKindToString(kind) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->batches.back().active, c.dbsize);
  }
}


TEST(SimulatorTest, SteppingContinuesAfterRun) {
  // Run() is not terminal: the stepwise API can extend a finished run,
  // and the budget keeps holding.
  auto sim = Simulator::Make(SmallConfig()).value();
  ASSERT_TRUE(sim->Run().ok());
  const BatchMetrics extra = sim->StepBatch().value();
  EXPECT_EQ(extra.batch, 6u);  // continues the 5-batch run
  EXPECT_EQ(extra.active, 200u);
}

TEST(SimulatorTest, MutableAccessorsExposeLiveComponents) {
  auto sim = Simulator::Make(SmallConfig()).value();
  ASSERT_TRUE(sim->Initialize().ok());
  // Externally forgetting a tuple is visible through the same table the
  // simulator queries.
  Table& t = sim->mutable_table();
  ASSERT_TRUE(t.Forget(0).ok());
  EXPECT_EQ(sim->table().num_active(), 199u);
  // The next round's amnesia only needs to forget 39 more to re-balance:
  // insert 40 -> 239 active -> budget 200.
  const BatchMetrics m = sim->StepBatch().value();
  EXPECT_EQ(m.active, 200u);
}

// The row-by-row walk the attestation used to run: every live row more
// than `max_age` batches old.
uint64_t OverdueRowByRow(const Table& t, uint64_t max_age) {
  uint64_t overdue = 0;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (t.IsActive(r) && t.current_batch() - t.batch_of(r) > max_age) {
      ++overdue;
    }
  }
  return overdue;
}

TEST(AttestationTest, OverdueCountMatchesRowByRowWalk) {
  Rng shape(31);
  for (int trial = 0; trial < 60; ++trial) {
    Table t = Table::Make(Schema::SingleColumn("a", 0, 100)).value();
    const uint64_t batches = shape.UniformIndex(12);
    for (uint64_t b = 0; b < batches; ++b) {
      t.BeginBatch();
      // Some batches are empty, so batch ids skip in row order.
      for (size_t i = shape.UniformIndex(3) == 0 ? 0 : shape.UniformIndex(300);
           i > 0; --i) {
        ASSERT_TRUE(t.AppendRow({1}).ok());
      }
    }
    const double forget_share = shape.NextDouble();
    for (RowId r = 0; r < t.num_rows(); ++r) {
      if (shape.Bernoulli(forget_share)) {
        ASSERT_TRUE(t.Forget(r).ok());
      }
    }
    for (uint64_t max_age = 0; max_age <= batches + 1; ++max_age) {
      ASSERT_EQ(CountOverdueRows(t, max_age), OverdueRowByRow(t, max_age))
          << "trial " << trial << " max_age " << max_age;
    }
  }
}

// The attestation reads the table, not the controller: a row revived
// behind the vacuum's back is overdue, and the claim fails with it counted.
TEST(AttestationTest, RevivedExpiredRowFailsTheAttestation) {
  SimulationConfig c = SmallConfig();
  c.policy.kind = PolicyKind::kFifo;
  c.dbsize = 1000;  // the vacuum, not the budget, does the forgetting
  c.upd_perc = 0.1;
  c.vacuum_max_age_batches = 2;
  auto sim = Simulator::Make(c).value();
  ASSERT_TRUE(sim->Initialize().ok());
  for (int b = 0; b < 5; ++b) ASSERT_TRUE(sim->StepBatch().ok());
  obs::SlaAttestation att = sim->sla().Snapshot().at(0).attestation;
  ASSERT_TRUE(att.passed);
  ASSERT_EQ(att.overdue_rows, 0u);

  // Row 0 came with the initial load (batch 0) and is long expired.
  Table& t = sim->mutable_table();
  ASSERT_FALSE(t.IsActive(0));
  ASSERT_TRUE(t.Revive(0).ok());
  EXPECT_EQ(CountOverdueRows(t, c.vacuum_max_age_batches), 1u);

  // Paused, the next batch neither re-forgets row 0 nor expires the
  // oldest surviving batch, and the attestation counts both.
  sim->set_amnesia_paused(true);
  ASSERT_TRUE(sim->StepBatch().ok());
  att = sim->sla().Snapshot().at(0).attestation;
  EXPECT_TRUE(att.checked);
  EXPECT_FALSE(att.passed);
  const uint64_t want = OverdueRowByRow(sim->table(), c.vacuum_max_age_batches);
  EXPECT_EQ(att.overdue_rows, want);
  EXPECT_GT(want, 1u);
  EXPECT_TRUE(sim->table().IsActive(0));
}

TEST(SimulatorTest, PolicyAccessorReflectsConfiguredKind) {
  SimulationConfig c = SmallConfig();
  c.policy.kind = PolicyKind::kArea;
  auto sim = Simulator::Make(c).value();
  EXPECT_EQ(sim->policy().kind(), PolicyKind::kArea);
}

// ------------------------------------------------------------ Experiments

TEST(ExperimentsTest, Figure1MatchesPaperParameters) {
  const SimulationConfig c = Figure1Config(PolicyKind::kFifo);
  EXPECT_EQ(c.dbsize, 1000u);
  EXPECT_DOUBLE_EQ(c.upd_perc, 0.20);
  EXPECT_EQ(c.num_batches, 10u);
  EXPECT_EQ(c.policy.kind, PolicyKind::kFifo);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ExperimentsTest, Figure2UsesRotAndDistribution) {
  const SimulationConfig c = Figure2Config(DistributionKind::kZipf);
  EXPECT_EQ(c.policy.kind, PolicyKind::kRot);
  EXPECT_EQ(c.distribution.kind, DistributionKind::kZipf);
  EXPECT_EQ(c.queries_per_batch, 1000u);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ExperimentsTest, Figure3HasHighVolatilityAndPaperSelectivity) {
  const SimulationConfig c =
      Figure3Config(DistributionKind::kNormal, PolicyKind::kArea);
  EXPECT_DOUBLE_EQ(c.upd_perc, 0.80);
  EXPECT_DOUBLE_EQ(c.query.selectivity, 0.02);
  EXPECT_EQ(c.queries_per_batch, 1000u);
  EXPECT_TRUE(c.Validate().ok());
}

TEST(ExperimentsTest, Section43ExtendsRunAndEnablesAggregates) {
  const SimulationConfig c =
      Section43Config(DistributionKind::kUniform, PolicyKind::kRot, true);
  EXPECT_EQ(c.num_batches, 20u);
  EXPECT_GT(c.aggregate_queries_per_batch, 0u);
  EXPECT_TRUE(c.aggregate_over_range);
  EXPECT_TRUE(c.Validate().ok());
}

}  // namespace
}  // namespace amnesia
