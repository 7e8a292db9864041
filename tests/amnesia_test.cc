// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the amnesia policies, the registry and the controller with all
// five forgetting backends.

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "amnesia/anterograde.h"
#include "amnesia/area.h"
#include "amnesia/controller.h"
#include "amnesia/distribution_aligned.h"
#include "amnesia/fifo.h"
#include "amnesia/inverse_rot.h"
#include "amnesia/pair_preserving.h"
#include "amnesia/registry.h"
#include "amnesia/rot.h"
#include "amnesia/uniform.h"
#include "common/histogram.h"
#include "obs/sla.h"
#include "query/scan.h"

namespace amnesia {
namespace {

Table MakeTableWithValues(const std::vector<Value>& values) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  for (Value v : values) {
    EXPECT_TRUE(t.AppendRow({v}).ok());
  }
  return t;
}

Table MakeSequentialTable(size_t n) {
  std::vector<Value> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<Value>(i);
  return MakeTableWithValues(values);
}

// Checks the contract every policy must satisfy.
void CheckVictimContract(AmnesiaPolicy* policy, const Table& table, size_t k,
                         Rng* rng) {
  const auto victims = policy->SelectVictims(table, k, rng).value();
  const size_t expect =
      std::min<size_t>(k, static_cast<size_t>(table.num_active()));
  ASSERT_EQ(victims.size(), expect);
  std::set<RowId> unique(victims.begin(), victims.end());
  EXPECT_EQ(unique.size(), victims.size()) << "duplicate victims";
  for (RowId r : victims) {
    EXPECT_TRUE(table.IsActive(r)) << "victim " << r << " not active";
  }
}

// A table of `batches` batches of random sizes, some rows forgotten and
// some accessed, so active ranks and rows diverge in every word shape.
Table MakeRandomTable(Rng* shape, uint32_t batches) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  for (uint32_t b = 0; b < batches; ++b) {
    t.BeginBatch();
    const size_t rows = shape->UniformIndex(400);
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_TRUE(t.AppendRow({static_cast<Value>(i % 1000)}).ok());
    }
  }
  const double forget_share = shape->NextDouble();
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (shape->Bernoulli(forget_share)) {
      EXPECT_TRUE(t.Forget(r).ok());
    }
    if (shape->Bernoulli(0.3)) {
      for (uint64_t i = shape->UniformIndex(5); i > 0; --i) t.BumpAccess(r);
    }
  }
  return t;
}

std::vector<RowId> Sorted(std::vector<RowId> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ------------------------------------------------------------ Policy kinds

TEST(PolicyKindTest, NamesRoundTrip) {
  for (PolicyKind k : AllPolicyKinds()) {
    EXPECT_EQ(PolicyKindFromString(PolicyKindToString(k)).value(), k);
  }
  EXPECT_EQ(PolicyKindFromString("anterograde").value(),
            PolicyKind::kAnterograde);
  EXPECT_FALSE(PolicyKindFromString("lru").ok());
}

TEST(PolicyKindTest, PaperSubset) {
  const auto paper = PaperPolicyKinds();
  ASSERT_EQ(paper.size(), 5u);
  EXPECT_EQ(paper[0], PolicyKind::kFifo);
  EXPECT_EQ(paper[4], PolicyKind::kArea);
}

// All policies honor the basic victim contract across k values.
class VictimContractTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(VictimContractTest, DistinctActiveExactCount) {
  Table t = MakeSequentialTable(200);
  GroundTruthOracle oracle;
  for (RowId r = 0; r < t.num_rows(); ++r) oracle.Append(t.value(0, r));
  oracle.Seal();
  PolicyOptions opts;
  opts.kind = GetParam();
  auto policy = CreatePolicy(opts, &oracle).value();
  Rng rng(77);
  for (size_t k : {size_t{0}, size_t{1}, size_t{17}, size_t{200}, size_t{500}}) {
    CheckVictimContract(policy.get(), t, k, &rng);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, VictimContractTest,
                         ::testing::ValuesIn(AllPolicyKinds()),
                         [](const auto& info) {
                           std::string name(PolicyKindToString(info.param));
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ------------------------------------------------------------------ FIFO

TEST(FifoPolicyTest, SelectsOldestByTick) {
  Table t = MakeSequentialTable(10);
  FifoPolicy fifo;
  Rng rng(1);
  const auto victims = fifo.SelectVictims(t, 3, &rng).value();
  ASSERT_EQ(victims.size(), 3u);
  EXPECT_EQ(victims[0], 0u);
  EXPECT_EQ(victims[1], 1u);
  EXPECT_EQ(victims[2], 2u);
}

TEST(FifoPolicyTest, SkipsAlreadyForgotten) {
  Table t = MakeSequentialTable(10);
  ASSERT_TRUE(t.Forget(0).ok());
  ASSERT_TRUE(t.Forget(2).ok());
  FifoPolicy fifo;
  Rng rng(1);
  const auto victims = fifo.SelectVictims(t, 2, &rng).value();
  EXPECT_EQ(victims[0], 1u);
  EXPECT_EQ(victims[1], 3u);
}

TEST(FifoPolicyTest, SlidingWindowInvariant) {
  // After repeated insert+forget rounds, the active set is exactly the
  // most recent DBSIZE insertions.
  Table t = MakeSequentialTable(100);
  FifoPolicy fifo;
  Rng rng(1);
  for (int round = 0; round < 5; ++round) {
    t.BeginBatch();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(t.AppendRow({round * 100 + i}).ok());
    }
    const auto victims = fifo.SelectVictims(t, 20, &rng).value();
    for (RowId r : victims) ASSERT_TRUE(t.Forget(r).ok());
  }
  EXPECT_EQ(t.num_active(), 100u);
  const auto active = t.ActiveRows();
  // Active rows must be the 100 highest ticks.
  const Tick cutoff = t.insert_tick(active.front());
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (t.insert_tick(r) > cutoff) {
      EXPECT_TRUE(t.IsActive(r));
    }
    if (t.insert_tick(r) < cutoff) {
      EXPECT_FALSE(t.IsActive(r));
    }
  }
}

// --------------------------------------------------------------- Uniform

TEST(UniformPolicyTest, EveryActiveTupleEquallyAtRisk) {
  Table t = MakeSequentialTable(50);
  UniformPolicy uniform;
  std::vector<int> hits(50, 0);
  const int rounds = 10000;
  Rng rng(2);
  for (int i = 0; i < rounds; ++i) {
    const auto victims_uniform = uniform.SelectVictims(t, 5, &rng).value();
    for (RowId r : victims_uniform) {
      ++hits[r];
    }
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / rounds, 0.1, 0.02);
  }
}

// The one-walk select must pick exactly the rows a per-rank NthActiveRow
// lookup of the same draws picks, and consume the same random numbers.
TEST(UniformPolicyTest, VictimsMatchPerRankReference) {
  Rng shape(20);
  UniformPolicy uniform;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Table t = MakeRandomTable(&shape, 1 + seed % 7);
    const size_t active = static_cast<size_t>(t.num_active());
    for (size_t k : {active / 3, active > 0 ? active - 1 : 0, active,
                     active + 9}) {
      Rng got_rng(seed);
      Rng want_rng(seed);
      const std::vector<RowId> got =
          uniform.SelectVictims(t, k, &got_rng).value();
      std::vector<RowId> want;
      for (size_t p : want_rng.SampleWithoutReplacement(active, k)) {
        want.push_back(t.NthActiveRow(p));
      }
      ASSERT_EQ(Sorted(got), Sorted(want))
          << "seed " << seed << " k " << k << " active " << active;
      ASSERT_EQ(got_rng.NextU64(), want_rng.NextU64()) << "seed " << seed;
    }
  }
}

// ------------------------------------------------------------ Anterograde

TEST(AnterogradePolicyTest, PrefersRecentTuples) {
  Table t = MakeSequentialTable(100);
  AnterogradePolicy ante(4.0);
  Rng rng(3);
  int old_half_hits = 0, new_half_hits = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto victims_ante = ante.SelectVictims(t, 1, &rng).value();
    for (RowId r : victims_ante) {
      (r < 50 ? old_half_hits : new_half_hits)++;
    }
  }
  EXPECT_GT(new_half_hits, old_half_hits * 5);
}

TEST(AnterogradePolicyTest, BetaZeroDegeneratesToUniform) {
  Table t = MakeSequentialTable(100);
  AnterogradePolicy ante(0.0);
  Rng rng(3);
  int old_half_hits = 0, total = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto victims_ante = ante.SelectVictims(t, 1, &rng).value();
    for (RowId r : victims_ante) {
      if (r < 50) ++old_half_hits;
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(old_half_hits) / total, 0.5, 0.05);
}

TEST(AnterogradePolicyTest, NegativeBetaRejected) {
  Table t = MakeSequentialTable(10);
  AnterogradePolicy ante(-1.0);
  Rng rng(3);
  EXPECT_FALSE(ante.SelectVictims(t, 1, &rng).ok());
}

// ------------------------------------------------------------------- Rot

TEST(RotPolicyTest, ProtectsLatestBatches) {
  Table t = MakeSequentialTable(50);
  t.BeginBatch();
  std::vector<RowId> fresh;
  for (int i = 0; i < 10; ++i) {
    fresh.push_back(t.AppendRow({100 + i}).value());
  }
  RotOptions opts;
  opts.protect_latest_batches = 1;
  RotPolicy rot(opts);
  Rng rng(4);
  // Demand small enough to be satisfiable from old tuples only.
  for (int round = 0; round < 50; ++round) {
    const auto victims_rot = rot.SelectVictims(t, 10, &rng).value();
    for (RowId r : victims_rot) {
      EXPECT_LT(r, 50u) << "rotted a protected fresh tuple";
    }
  }
}

TEST(RotPolicyTest, FrequentlyAccessedSurvive) {
  Table t = MakeSequentialTable(100);
  // Tuples 0..49 are hot: large access counts.
  for (RowId r = 0; r < 50; ++r) {
    for (int i = 0; i < 50; ++i) t.BumpAccess(r);
  }
  t.BeginBatch();  // age everything past the high-water mark
  RotPolicy rot;
  Rng rng(5);
  int hot_hits = 0, cold_hits = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto victims_rot = rot.SelectVictims(t, 5, &rng).value();
    for (RowId r : victims_rot) {
      (r < 50 ? hot_hits : cold_hits)++;
    }
  }
  EXPECT_GT(cold_hits, hot_hits * 5);
}

TEST(RotPolicyTest, FallsBackToYoungWhenDemandExceedsEligible) {
  Table t = MakeSequentialTable(10);
  t.BeginBatch();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.AppendRow({100 + i}).ok());
  RotPolicy rot;
  Rng rng(6);
  // Demand 15 > 10 eligible old tuples: must dip into the protected young.
  const auto victims = rot.SelectVictims(t, 15, &rng).value();
  EXPECT_EQ(victims.size(), 15u);
}

// Rot as it stood with materialised active, eligible, young and weight
// vectors: the streaming pass must pick the same rows from the same draws.
std::vector<RowId> MaterialisedRot(const Table& table, size_t k,
                                   const RotOptions& options, Rng* rng) {
  const std::vector<RowId> active = table.ActiveRows();
  const size_t want = std::min(k, active.size());
  std::vector<RowId> eligible, young;
  for (RowId r : active) {
    const bool protected_row =
        table.batch_of(r) + options.protect_latest_batches >
        table.current_batch();
    (protected_row ? young : eligible).push_back(r);
  }
  auto weights_of = [&](const std::vector<RowId>& rows) {
    std::vector<double> w;
    for (RowId r : rows) {
      w.push_back(1.0 / (options.smoothing +
                         static_cast<double>(table.access_count(r))));
    }
    return w;
  };
  std::vector<RowId> victims;
  for (size_t p : rng->WeightedSampleWithoutReplacement(weights_of(eligible),
                                                        want)) {
    victims.push_back(eligible[p]);
  }
  if (victims.size() < want) {
    for (size_t p : rng->WeightedSampleWithoutReplacement(
             weights_of(young), want - victims.size())) {
      victims.push_back(young[p]);
    }
  }
  return victims;
}

TEST(RotPolicyTest, VictimsMatchMaterialisedReference) {
  Rng shape(21);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Table t = MakeRandomTable(&shape, 1 + seed % 6);
    RotOptions opts;
    opts.protect_latest_batches = static_cast<uint32_t>(seed % 4);
    opts.smoothing = 0.5 + static_cast<double>(seed % 3);
    RotPolicy rot(opts);
    const size_t active = static_cast<size_t>(t.num_active());
    // Small k stays inside the eligible rows; large k forces the young
    // top-up and the k > active clamp.
    for (size_t k : {size_t{1}, active / 4, active, active + 3}) {
      Rng got_rng(seed);
      Rng want_rng(seed);
      const std::vector<RowId> got = rot.SelectVictims(t, k, &got_rng).value();
      ASSERT_EQ(Sorted(got), Sorted(MaterialisedRot(t, k, opts, &want_rng)))
          << "seed " << seed << " k " << k << " active " << active;
      ASSERT_EQ(got_rng.NextU64(), want_rng.NextU64()) << "seed " << seed;
    }
  }
}

TEST(RotPolicyTest, InvalidSmoothingRejected) {
  Table t = MakeSequentialTable(10);
  RotOptions opts;
  opts.smoothing = 0.0;
  RotPolicy rot(opts);
  Rng rng(6);
  EXPECT_FALSE(rot.SelectVictims(t, 1, &rng).ok());
}

// ------------------------------------------------------------ InverseRot

TEST(InverseRotPolicyTest, ForgetsTheHotData) {
  Table t = MakeSequentialTable(100);
  for (RowId r = 0; r < 10; ++r) {
    for (int i = 0; i < 100; ++i) t.BumpAccess(r);
  }
  InverseRotPolicy policy;
  Rng rng(7);
  int hot_hits = 0;
  for (int i = 0; i < 500; ++i) {
    const auto victims_policy = policy.SelectVictims(t, 1, &rng).value();
    for (RowId r : victims_policy) {
      if (r < 10) ++hot_hits;
    }
  }
  // Hot tuples carry all the weight: essentially every pick is hot.
  EXPECT_GT(hot_hits, 450);
}

TEST(InverseRotPolicyTest, NoAccessesFallsBackToAny) {
  Table t = MakeSequentialTable(10);
  InverseRotPolicy policy;
  Rng rng(7);
  const auto victims = policy.SelectVictims(t, 4, &rng).value();
  EXPECT_EQ(victims.size(), 4u);
}

// ------------------------------------------------------------------ Area

TEST(AreaPolicyTest, GrowsContiguousHoles) {
  Table t = MakeSequentialTable(500);
  AreaOptions opts;
  opts.max_areas = 3;
  AreaPolicy area(opts);
  Rng rng(8);
  for (int round = 0; round < 10; ++round) {
    const auto victims_area = area.SelectVictims(t, 20, &rng).value();
    for (RowId r : victims_area) {
      ASSERT_TRUE(t.Forget(r).ok());
    }
  }
  EXPECT_LE(area.num_areas(), 3u);
  // Forgotten rows must form few contiguous runs, not dust: count the runs.
  int runs = 0;
  bool in_run = false;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    const bool forgotten = !t.IsActive(r);
    if (forgotten && !in_run) ++runs;
    in_run = forgotten;
  }
  EXPECT_LE(runs, 12);  // 200 forgotten tuples in a handful of runs
  EXPECT_EQ(t.num_forgotten(), 200u);
}

TEST(AreaPolicyTest, UnboundedAreasStillContract) {
  Table t = MakeSequentialTable(100);
  AreaPolicy area;
  Rng rng(9);
  CheckVictimContract(&area, t, 30, &rng);
}

TEST(AreaPolicyTest, CompactionResetsAreas) {
  Table t = MakeSequentialTable(100);
  AreaPolicy area;
  Rng rng(10);
  const auto victims_area = area.SelectVictims(t, 10, &rng).value();
  for (RowId r : victims_area) {
    ASSERT_TRUE(t.Forget(r).ok());
  }
  EXPECT_GT(area.num_areas(), 0u);
  const RowMapping mapping = t.CompactForgotten();
  area.OnCompaction(mapping);
  EXPECT_EQ(area.num_areas(), 0u);
  CheckVictimContract(&area, t, 10, &rng);
}

TEST(AreaPolicyTest, ExhaustsWholeTable) {
  Table t = MakeSequentialTable(50);
  AreaPolicy area;
  Rng rng(11);
  const auto victims = area.SelectVictims(t, 50, &rng).value();
  EXPECT_EQ(victims.size(), 50u);
  std::set<RowId> unique(victims.begin(), victims.end());
  EXPECT_EQ(unique.size(), 50u);
}

// --------------------------------------------------------- PairPreserving

TEST(PairPreservingPolicyTest, PreservesMeanOnSymmetricData) {
  std::vector<Value> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);  // mean 49.5
  Table t = MakeTableWithValues(values);
  PairPreservingPolicy policy;
  Rng rng(12);
  const double mean_before = 49.5;

  const auto victims = policy.SelectVictims(t, 20, &rng).value();
  ASSERT_EQ(victims.size(), 20u);
  for (RowId r : victims) ASSERT_TRUE(t.Forget(r).ok());

  const AggregateResult after =
      AggregateRange(t, RangePredicate::All(0), Visibility::kActiveOnly)
          .value();
  EXPECT_NEAR(after.avg, mean_before, 0.5);
}

TEST(PairPreservingPolicyTest, OddDemandFillsWithNearMeanSingle) {
  Table t = MakeTableWithValues({0, 50, 100});
  PairPreservingPolicy policy;
  Rng rng(13);
  const auto victims = policy.SelectVictims(t, 3, &rng).value();
  EXPECT_EQ(victims.size(), 3u);
}

TEST(PairPreservingPolicyTest, SkewedDataStaysClose) {
  std::vector<Value> values;
  Rng data_rng(14);
  for (int i = 0; i < 400; ++i) {
    values.push_back(data_rng.UniformInt(0, 9) == 0 ? 900
                                                    : data_rng.UniformInt(0, 99));
  }
  Table t = MakeTableWithValues(values);
  const double mean_before =
      AggregateRange(t, RangePredicate::All(0), Visibility::kActiveOnly)
          .value()
          .avg;
  PairPreservingPolicy policy;
  Rng rng(15);
  const auto victims_policy = policy.SelectVictims(t, 100, &rng).value();
  for (RowId r : victims_policy) {
    ASSERT_TRUE(t.Forget(r).ok());
  }
  const double mean_after =
      AggregateRange(t, RangePredicate::All(0), Visibility::kActiveOnly)
          .value()
          .avg;
  EXPECT_NEAR(mean_after, mean_before, mean_before * 0.05);
}

TEST(PairPreservingPolicyTest, BadOptionsRejected) {
  Table t = MakeSequentialTable(10);
  PairPreservingOptions opts;
  opts.col = 9;
  PairPreservingPolicy policy(opts);
  Rng rng(16);
  EXPECT_FALSE(policy.SelectVictims(t, 1, &rng).ok());
  opts.col = 0;
  opts.tolerance = -0.5;
  PairPreservingPolicy p2(opts);
  EXPECT_FALSE(p2.SelectVictims(t, 1, &rng).ok());
}

// --------------------------------------------------- DistributionAligned

TEST(DistributionAlignedPolicyTest, KeepsActiveShapeCloseToHistory) {
  // History: uniform over [0, 1000). Active set: artificially skewed by
  // inserting extra mass at the low end, which the policy must prune.
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  GroundTruthOracle oracle;
  Rng data_rng(17);
  for (int i = 0; i < 1000; ++i) {
    const Value v = data_rng.UniformInt(0, 999);
    ASSERT_TRUE(t.AppendRow({v}).ok());
    oracle.Append(v);
  }
  // Extra low-end mass (also in the oracle, so the target shape shifts
  // only mildly; the active surplus is what must go).
  for (int i = 0; i < 500; ++i) {
    const Value v = data_rng.UniformInt(0, 99);
    ASSERT_TRUE(t.AppendRow({v}).ok());
    oracle.Append(v);
  }
  oracle.Seal();

  DistributionAlignedPolicy policy(&oracle);
  Rng rng(18);
  const auto victims_policy = policy.SelectVictims(t, 500, &rng).value();
  for (RowId r : victims_policy) {
    ASSERT_TRUE(t.Forget(r).ok());
  }

  // Compare active shape vs. history shape on a 10-bucket histogram.
  Histogram active_h = Histogram::Make(0, 1000, 10).value();
  t.active_bitmap().ForEachSet(
      [&](size_t r) { active_h.Add(t.value(0, r)); });
  Histogram truth_h = Histogram::Make(0, 1000, 10).value();
  for (uint64_t i = 0; i < oracle.size(); ++i) {
    truth_h.Add(oracle.ValueAt(i).value());
  }
  const double dist = Histogram::L1Distance(active_h, truth_h).value();
  EXPECT_LT(dist, 0.12);
}

TEST(DistributionAlignedPolicyTest, RequiresOracle) {
  Table t = MakeSequentialTable(10);
  DistributionAlignedPolicy policy(nullptr);
  Rng rng(19);
  EXPECT_FALSE(policy.SelectVictims(t, 1, &rng).ok());
}

TEST(DistributionAlignedPolicyTest, EmptyOracleFails) {
  Table t = MakeSequentialTable(10);
  GroundTruthOracle oracle;
  DistributionAlignedPolicy policy(&oracle);
  Rng rng(19);
  EXPECT_EQ(policy.SelectVictims(t, 1, &rng).status().code(),
            StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------------- Registry

TEST(RegistryTest, CreatesEveryKind) {
  GroundTruthOracle oracle;
  oracle.Append(1);
  oracle.Seal();
  for (PolicyKind k : AllPolicyKinds()) {
    PolicyOptions opts;
    opts.kind = k;
    auto policy = CreatePolicy(opts, &oracle).value();
    EXPECT_EQ(policy->kind(), k);
  }
}

TEST(RegistryTest, AlignedWithoutOracleRejected) {
  PolicyOptions opts;
  opts.kind = PolicyKind::kDistributionAligned;
  EXPECT_EQ(CreatePolicy(opts, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryTest, BadAnteBetaRejected) {
  PolicyOptions opts;
  opts.kind = PolicyKind::kAnterograde;
  opts.ante_beta = -3.0;
  EXPECT_FALSE(CreatePolicy(opts).ok());
}

// ------------------------------------------------------------- Controller

TEST(ControllerTest, BackendNames) {
  EXPECT_EQ(BackendKindToString(BackendKind::kMarkOnly), "mark-only");
  EXPECT_EQ(BackendKindToString(BackendKind::kDelete), "delete");
  EXPECT_EQ(BackendKindToString(BackendKind::kColdStorage), "cold-storage");
  EXPECT_EQ(BackendKindToString(BackendKind::kSummary), "summary");
  EXPECT_EQ(BackendKindToString(BackendKind::kIndexSkip), "index-skip");
}

TEST(ControllerTest, MakeValidatesWiring) {
  Table t = MakeSequentialTable(10);
  UniformPolicy policy;
  ControllerOptions opts;
  opts.backend = BackendKind::kColdStorage;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
  opts.backend = BackendKind::kSummary;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
  opts.backend = BackendKind::kIndexSkip;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
  opts.backend = BackendKind::kMarkOnly;
  opts.payload_col = 7;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
  EXPECT_FALSE(AmnesiaController::Make(ControllerOptions{}, nullptr, &t).ok());
}

TEST(ControllerTest, MarkOnlyEnforcesFixedBudget) {
  Table t = MakeSequentialTable(150);
  UniformPolicy policy;
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(20);
  EXPECT_EQ(ctrl.Overflow(), 50u);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(t.num_active(), 100u);
  EXPECT_EQ(t.num_rows(), 150u);  // mark-only keeps the rows
  EXPECT_EQ(ctrl.stats().tuples_forgotten, 50u);
  // Within budget: second call is a no-op.
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(t.num_active(), 100u);
  EXPECT_EQ(ctrl.stats().rounds, 2u);
}

TEST(ControllerTest, DeleteBackendScrubsAndCompacts) {
  Table t = MakeSequentialTable(150);
  FifoPolicy policy;
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  opts.backend = BackendKind::kDelete;
  opts.compact_every_n_rounds = 1;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(21);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(t.num_active(), 100u);
  EXPECT_EQ(t.num_rows(), 100u);  // physically gone
  EXPECT_EQ(ctrl.stats().compactions, 1u);
  EXPECT_EQ(ctrl.stats().rows_compacted, 50u);
  // FIFO removed the oldest: the survivors start at value 50.
  EXPECT_EQ(t.value(0, 0), 50);
}

TEST(ControllerTest, DeleteBackendWithoutCompaction) {
  Table t = MakeSequentialTable(120);
  FifoPolicy policy;
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  opts.backend = BackendKind::kDelete;
  opts.compact_every_n_rounds = 0;  // scrub only
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(22);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(t.num_rows(), 120u);
  EXPECT_EQ(t.value(0, 0), 0);  // scrubbed payload
  EXPECT_FALSE(t.IsActive(0));
  EXPECT_EQ(ctrl.stats().compactions, 0u);
}

TEST(ControllerTest, ColdStorageBackendParksTuples) {
  Table t = MakeSequentialTable(120);
  FifoPolicy policy;
  ColdStore cold;
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  opts.backend = BackendKind::kColdStorage;
  auto ctrl =
      AmnesiaController::Make(opts, &policy, &t, nullptr, &cold).value();
  Rng rng(23);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(cold.size(), 20u);
  EXPECT_EQ(ctrl.stats().cold_evictions, 20u);
  // The evicted tuples are the 20 oldest values 0..19; recall finds them.
  const auto recalled = cold.RecallValueRange(0, 20);
  EXPECT_EQ(recalled.size(), 20u);
}

TEST(ControllerTest, SummaryBackendFoldsValues) {
  Table t = MakeSequentialTable(120);
  FifoPolicy policy;
  SummaryStore summaries;
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  opts.backend = BackendKind::kSummary;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t, nullptr, nullptr,
                                      &summaries)
                  .value();
  Rng rng(24);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  const Summary total = summaries.Total(0);
  EXPECT_EQ(total.count, 20u);
  EXPECT_EQ(total.min, 0);
  EXPECT_EQ(total.max, 19);
  EXPECT_DOUBLE_EQ(total.Mean(), 9.5);
  EXPECT_EQ(ctrl.stats().summary_folds, 20u);
}

TEST(ControllerTest, IndexSkipBackendUnhooksRows) {
  Table t = MakeSequentialTable(120);
  FifoPolicy policy;
  IndexManager indexes;
  // Build the index first so it can be maintained incrementally.
  Index* idx = indexes.GetOrBuild(t, 0, IndexKind::kBTree).value();
  ControllerOptions opts;
  opts.dbsize_budget = 100;
  opts.backend = BackendKind::kIndexSkip;
  auto ctrl =
      AmnesiaController::Make(opts, &policy, &t, &indexes).value();
  Rng rng(25);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_EQ(idx->num_entries(), 100u);
  EXPECT_EQ(ctrl.stats().index_erases, 20u);
  // Index stayed in sync: a lookup serves without rebuild.
  EXPECT_NE(indexes.Peek(t, 0, IndexKind::kBTree), nullptr);
  // Scans still see the physically-present forgotten rows.
  EXPECT_EQ(
      CountRange(t, RangePredicate::All(0), Visibility::kAll).value(), 120u);
}

TEST(ControllerTest, ByteHighWaterModeShrinksFootprint) {
  Table t = MakeSequentialTable(1);
  UniformPolicy policy;
  ControllerOptions opts;
  opts.mode = BudgetMode::kByteHighWater;
  opts.backend = BackendKind::kDelete;
  opts.compact_every_n_rounds = 1;
  // Fill until well above a small byte budget.
  for (int i = 1; i < 5000; ++i) ASSERT_TRUE(t.AppendRow({i}).ok());
  opts.byte_high_water = t.ApproxBytes() / 2;
  opts.byte_low_water_fraction = 0.9;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(26);
  EXPECT_GT(ctrl.Overflow(), 0u);
  ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
  EXPECT_LT(t.num_active(), 5000u);
  EXPECT_GT(ctrl.stats().tuples_forgotten, 0u);
}

TEST(ControllerTest, ByteModeValidatesFraction) {
  Table t = MakeSequentialTable(10);
  UniformPolicy policy;
  ControllerOptions opts;
  opts.mode = BudgetMode::kByteHighWater;
  opts.byte_low_water_fraction = 0.0;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
  opts.byte_low_water_fraction = 1.5;
  EXPECT_FALSE(AmnesiaController::Make(opts, &policy, &t).ok());
}

TEST(ControllerTest, RepeatedRoundsKeepExactBudget) {
  Table t = MakeSequentialTable(1000);
  UniformPolicy policy;
  ControllerOptions opts;
  opts.dbsize_budget = 1000;
  auto ctrl = AmnesiaController::Make(opts, &policy, &t).value();
  Rng rng(27);
  for (int round = 0; round < 10; ++round) {
    t.BeginBatch();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(t.AppendRow({round * 1000 + i}).ok());
    }
    ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
    ASSERT_EQ(t.num_active(), 1000u);
  }
  EXPECT_EQ(ctrl.stats().tuples_forgotten, 2000u);
}

// ------------------------------------------------------------- Vacuuming

/// Insert ticks of the active rows (ticks survive compaction, RowIds not).
std::set<Tick> ActiveTicks(const Table& t) {
  std::set<Tick> ticks;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (t.IsActive(r)) ticks.insert(t.insert_tick(r));
  }
  return ticks;
}

/// The full-row reference walk: every active row past the deadline.
std::set<Tick> ReferenceExpiredTicks(const Table& t, uint32_t max_age) {
  std::set<Tick> ticks;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    if (t.IsActive(r) && t.batch_of(r) + max_age < t.current_batch()) {
      ticks.insert(t.insert_tick(r));
    }
  }
  return ticks;
}

struct VacuumCase {
  const char* name;
  bool mapped;
  BackendKind backend;
  uint32_t compact_every;
};

TEST(VacuumTest, EarlyExitWalkMatchesFullReferenceWalk) {
  // Budget passes under FIFO, uniform and rot leave holes before the
  // deadline; the vacuum walk starts at the oldest live row and stops at
  // the first unexpired live row, and must still forget exactly what a
  // walk over every row would.
  namespace fs = std::filesystem;
  const VacuumCase cases[] = {
      {"vector-mark", false, BackendKind::kMarkOnly, 0},
      {"vector-delete-compact", false, BackendKind::kDelete, 1},
      {"mapped-mark", true, BackendKind::kMarkOnly, 0},
      {"mapped-delete", true, BackendKind::kDelete, 1},
  };
  for (const VacuumCase& c : cases) {
    for (PolicyKind kind :
         {PolicyKind::kFifo, PolicyKind::kUniform, PolicyKind::kRot}) {
      SCOPED_TRACE(std::string(c.name) + " " +
                   std::string(PolicyKindToString(kind)));
      const fs::path dir =
          fs::temp_directory_path() /
          ("amnesia_vacuum_walk_" + std::string(c.name) + "_" +
           std::string(PolicyKindToString(kind)));
      fs::remove_all(dir);
      StorageOptions storage;
      if (c.mapped) {
        storage.backend = StorageBackend::kMapped;
        storage.dir = dir.string();
        storage.partition_rows = 64;
      }
      {
        Table t =
            Table::Make(Schema::SingleColumn("a", 0, 1000), storage).value();
        PolicyOptions popts;
        popts.kind = kind;
        auto policy = CreatePolicy(popts).value();
        ControllerOptions opts;
        opts.dbsize_budget = 300;
        opts.backend = c.backend;
        opts.compact_every_n_rounds = c.compact_every;
        auto ctrl = AmnesiaController::Make(opts, policy.get(), &t).value();
        Rng rng(31);
        uint64_t vacuumed_total = 0;
        for (int batch = 0; batch < 16; ++batch) {
          t.BeginBatch();
          for (int i = 0; i < 50; ++i) {
            ASSERT_TRUE(t.AppendRow({rng.UniformInt(0, 999)}).ok());
          }
          ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
          if (batch % 3 != 2) continue;
          const uint32_t max_age = 3;
          const std::set<Tick> expected = ReferenceExpiredTicks(t, max_age);
          const std::set<Tick> before = ActiveTicks(t);
          const uint64_t vacuumed = ctrl.VacuumExpired(max_age).value();
          const std::set<Tick> after = ActiveTicks(t);
          std::set<Tick> forgotten;
          std::set_difference(before.begin(), before.end(), after.begin(),
                              after.end(),
                              std::inserter(forgotten, forgotten.end()));
          EXPECT_EQ(forgotten, expected) << "batch " << batch;
          EXPECT_EQ(vacuumed, expected.size()) << "batch " << batch;
          EXPECT_TRUE(std::includes(before.begin(), before.end(),
                                    after.begin(), after.end()));
          vacuumed_total += vacuumed;
        }
        EXPECT_GT(vacuumed_total, 0u);
      }
      fs::remove_all(dir);
    }
  }
}

TEST(VacuumTest, SlaSamplesMatchPerRowRecording) {
  // The vacuum records one deletion-latency sample per run of rows with
  // equal latency; the snapshot must equal recording every row alone.
  for (PolicyKind kind :
       {PolicyKind::kFifo, PolicyKind::kUniform, PolicyKind::kRot}) {
    SCOPED_TRACE(std::string(PolicyKindToString(kind)));
    const std::string name(PolicyKindToString(kind));
    Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
    PolicyOptions popts;
    popts.kind = kind;
    auto policy = CreatePolicy(popts).value();
    ControllerOptions opts;
    opts.dbsize_budget = 400;
    auto ctrl = AmnesiaController::Make(opts, policy.get(), &t).value();
    obs::SlaTracker live;
    obs::SlaTracker per_row;
    ctrl.set_sla_tracker(&live);
    Rng rng(47);
    uint64_t recorded = 0;
    for (int batch = 0; batch < 20; ++batch) {
      t.BeginBatch();
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(t.AppendRow({rng.UniformInt(0, 999)}).ok());
      }
      ASSERT_TRUE(ctrl.EnforceBudget(&rng).ok());
      // Vacuum only every fourth batch so one sweep spans several
      // latencies.
      if (batch % 4 != 3) continue;
      const uint32_t max_age = 2;
      for (RowId r = 0; r < t.num_rows(); ++r) {
        const BatchId b = t.batch_of(r);
        if (t.IsActive(r) && b + max_age < t.current_batch()) {
          per_row.RecordDeletionLatency(name,
                                        t.current_batch() - b - max_age);
          ++recorded;
        }
      }
      ASSERT_TRUE(ctrl.VacuumExpired(max_age).ok());
    }
    ASSERT_GT(recorded, 0u);
    const std::vector<obs::SlaPolicySnapshot> got = live.Snapshot();
    const std::vector<obs::SlaPolicySnapshot> want = per_row.Snapshot();
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(want.size(), 1u);
    EXPECT_EQ(got[0].deletion_latency.count, recorded);
    EXPECT_EQ(got[0].deletion_latency.count, want[0].deletion_latency.count);
    EXPECT_EQ(got[0].deletion_latency.sum, want[0].deletion_latency.sum);
    EXPECT_EQ(got[0].deletion_latency.buckets,
              want[0].deletion_latency.buckets);
  }
}

}  // namespace
}  // namespace amnesia
