// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the query engine: scans under the three visibilities, the
// one-pass aggregate kernel, the ground-truth oracle, the executor's plan
// equivalence and the summary blending.

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/index_manager.h"
#include "obs/engine_metrics.h"
#include "query/executor.h"
#include "query/oracle.h"
#include "query/predicate.h"
#include "query/scan.h"
#include "storage/table.h"

namespace amnesia {
namespace {

Table MakeTableWithValues(const std::vector<Value>& values) {
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1000)).value();
  for (Value v : values) {
    EXPECT_TRUE(t.AppendRow({v}).ok());
  }
  return t;
}

// -------------------------------------------------------------- Predicate

TEST(PredicateTest, Matches) {
  RangePredicate p{0, 10, 20};
  EXPECT_TRUE(p.Matches(10));
  EXPECT_TRUE(p.Matches(19));
  EXPECT_FALSE(p.Matches(20));
  EXPECT_FALSE(p.Matches(9));
}

TEST(PredicateTest, AllMatchesEverything) {
  RangePredicate p = RangePredicate::All(0);
  EXPECT_TRUE(p.Matches(0));
  EXPECT_TRUE(p.Matches(-1'000'000'000));
  EXPECT_TRUE(p.Matches(1'000'000'000));
  EXPECT_FALSE(p.Empty());
}

TEST(PredicateTest, EmptyAndWidth) {
  EXPECT_TRUE((RangePredicate{0, 5, 5}).Empty());
  EXPECT_TRUE((RangePredicate{0, 6, 5}).Empty());
  EXPECT_EQ((RangePredicate{0, 5, 15}).Width(), 10u);
  EXPECT_EQ((RangePredicate{0, 9, 5}).Width(), 0u);
}

TEST(PredicateTest, WidthAtDomainExtremes) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  // The full domain: a signed hi - lo would overflow (UB); the unsigned
  // computation measures it exactly as 2^64 - 1.
  EXPECT_EQ((RangePredicate{0, kMin, kMax}).Width(),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(RangePredicate::All(0).Width(),
            std::numeric_limits<uint64_t>::max());
  // Half-domain spans crossing zero.
  EXPECT_EQ((RangePredicate{0, kMin, 0}).Width(), uint64_t{1} << 63);
  EXPECT_EQ((RangePredicate{0, 0, kMax}).Width(),
            (uint64_t{1} << 63) - 1);
  EXPECT_EQ((RangePredicate{0, -1, kMax}).Width(), uint64_t{1} << 63);
  // Single-value ranges at both extremes.
  EXPECT_EQ((RangePredicate{0, kMin, kMin + 1}).Width(), 1u);
  EXPECT_EQ((RangePredicate{0, kMax - 1, kMax}).Width(), 1u);
  // Empty/inverted ranges at the extremes stay width 0.
  EXPECT_EQ((RangePredicate{0, kMax, kMax}).Width(), 0u);
  EXPECT_EQ((RangePredicate{0, kMax, kMin}).Width(), 0u);
  // UnsignedSpan is the vectorized kernel's comparison constant: a value
  // is inside iff uint64(v) - uint64(lo) < UnsignedSpan().
  const RangePredicate full{0, kMin, kMax};
  const auto inside = [&](Value v) {
    return static_cast<uint64_t>(v) - static_cast<uint64_t>(full.lo) <
           full.UnsignedSpan();
  };
  EXPECT_TRUE(inside(kMin));
  EXPECT_TRUE(inside(0));
  EXPECT_TRUE(inside(kMax - 1));
  EXPECT_FALSE(inside(kMax));
}

// ------------------------------------------------------------------ Scan

TEST(ScanTest, ActiveOnlyHidesForgotten) {
  Table t = MakeTableWithValues({10, 20, 30});
  ASSERT_TRUE(t.Forget(1).ok());
  const ResultSet r =
      ScanRange(t, RangePredicate{0, 0, 100}, Visibility::kActiveOnly)
          .value();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.values[0], 10);
  EXPECT_EQ(r.values[1], 30);
}

TEST(ScanTest, AllSeesForgotten) {
  Table t = MakeTableWithValues({10, 20, 30});
  ASSERT_TRUE(t.Forget(1).ok());
  const ResultSet r =
      ScanRange(t, RangePredicate{0, 0, 100}, Visibility::kAll).value();
  EXPECT_EQ(r.size(), 3u);
}

TEST(ScanTest, ForgottenOnly) {
  Table t = MakeTableWithValues({10, 20, 30});
  ASSERT_TRUE(t.Forget(1).ok());
  const ResultSet r =
      ScanRange(t, RangePredicate{0, 0, 100}, Visibility::kForgottenOnly)
          .value();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.values[0], 20);
}

TEST(ScanTest, PredicateBoundsAreHalfOpen) {
  Table t = MakeTableWithValues({10, 20, 30});
  EXPECT_EQ(ScanRange(t, RangePredicate{0, 10, 30}, Visibility::kAll)
                .value()
                .size(),
            2u);
}

TEST(ScanTest, BadColumnRejected) {
  Table t = MakeTableWithValues({10});
  EXPECT_EQ(
      ScanRange(t, RangePredicate{4, 0, 1}, Visibility::kAll).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(ScanTest, CountMatchesScan) {
  Table t = MakeTableWithValues({1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(t.Forget(0).ok());
  ASSERT_TRUE(t.Forget(5).ok());
  const RangePredicate pred{0, 2, 6};
  const uint64_t count = CountRange(t, pred, Visibility::kActiveOnly).value();
  const ResultSet scan = ScanRange(t, pred, Visibility::kActiveOnly).value();
  EXPECT_EQ(count, scan.size());
}

TEST(ScanTest, AggregateKernelComputesAllAggregates) {
  Table t = MakeTableWithValues({2, 4, 6, 8});
  const AggregateResult agg =
      AggregateRange(t, RangePredicate::All(0), Visibility::kActiveOnly)
          .value();
  EXPECT_EQ(agg.count, 4u);
  EXPECT_DOUBLE_EQ(agg.sum, 20.0);
  EXPECT_DOUBLE_EQ(agg.avg, 5.0);
  EXPECT_DOUBLE_EQ(agg.min, 2.0);
  EXPECT_DOUBLE_EQ(agg.max, 8.0);
  EXPECT_DOUBLE_EQ(agg.variance, 5.0);
  EXPECT_DOUBLE_EQ(agg.Get(AggregateKind::kCount), 4.0);
  EXPECT_DOUBLE_EQ(agg.Get(AggregateKind::kAvg), 5.0);
  EXPECT_DOUBLE_EQ(agg.Get(AggregateKind::kVariance), 5.0);
}

TEST(ScanTest, AggregateEmptyResult) {
  Table t = MakeTableWithValues({2});
  const AggregateResult agg =
      AggregateRange(t, RangePredicate{0, 100, 200}, Visibility::kActiveOnly)
          .value();
  EXPECT_EQ(agg.count, 0u);
  EXPECT_DOUBLE_EQ(agg.avg, 0.0);
}

// ---------------------------------------------------------------- Oracle

TEST(OracleTest, CountRangeAfterSeal) {
  GroundTruthOracle oracle;
  for (Value v : {5, 1, 9, 5, 3}) oracle.Append(v);
  oracle.Seal();
  EXPECT_EQ(oracle.size(), 5u);
  EXPECT_EQ(oracle.CountRange(1, 6).value(), 4u);
  EXPECT_EQ(oracle.CountRange(5, 6).value(), 2u);
  EXPECT_EQ(oracle.CountRange(10, 20).value(), 0u);
  EXPECT_EQ(oracle.CountRange(6, 1).value(), 0u);
}

/// Reference oracle: every seal re-sorts the whole history and rebuilds
/// both prefix sums from index 0. IncrementalSealMatchesFullResort holds
/// GroundTruthOracle's merging seal to it bit for bit.
class ResortingOracle {
 public:
  void Append(Value v) { values_.push_back(v); }

  void Seal() {
    std::sort(values_.begin(), values_.end());
    prefix_sum_.assign(values_.size() + 1, 0.0);
    prefix_sq_.assign(values_.size() + 1, 0.0);
    for (size_t i = 0; i < values_.size(); ++i) {
      const double v = static_cast<double>(values_[i]);
      prefix_sum_[i + 1] = prefix_sum_[i] + v;
      prefix_sq_[i + 1] = prefix_sq_[i] + v * v;
    }
  }

  const std::vector<Value>& values() const { return values_; }

  uint64_t CountRange(Value lo, Value hi) const {
    if (lo >= hi) return 0;
    return static_cast<uint64_t>(
        std::lower_bound(values_.begin(), values_.end(), hi) -
        std::lower_bound(values_.begin(), values_.end(), lo));
  }

  AggregateResult AggregateRange(Value lo, Value hi) const {
    AggregateResult out;
    if (lo >= hi) return out;
    const auto begin = values_.begin();
    const size_t first = static_cast<size_t>(
        std::lower_bound(begin, values_.end(), lo) - begin);
    const size_t last = static_cast<size_t>(
        std::lower_bound(begin, values_.end(), hi) - begin);
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
    if (out.variance < 0.0) out.variance = 0.0;
    return out;
  }

 private:
  std::vector<Value> values_;
  std::vector<double> prefix_sum_;
  std::vector<double> prefix_sq_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Checks every answer of `oracle` against `ref` over `probes` random
/// ranges plus the whole history; aggregates must match bit for bit.
void ExpectSameAnswers(const GroundTruthOracle& oracle,
                       const ResortingOracle& ref, Rng* rng, int probes) {
  const std::vector<Value>& values = ref.values();
  ASSERT_EQ(oracle.size(), values.size());
  for (uint64_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(oracle.ValueAt(i).value(), values[i]) << "index " << i;
  }
  EXPECT_EQ(oracle.ValueAt(values.size()).status().code(),
            StatusCode::kOutOfRange);
  std::vector<std::pair<Value, Value>> ranges = {
      {std::numeric_limits<Value>::min(), std::numeric_limits<Value>::max()}};
  for (int p = 0; p < probes; ++p) {
    // Endpoints on stored values hit the duplicate-run boundaries.
    auto endpoint = [&]() -> Value {
      if (!values.empty() && rng->Bernoulli(0.5)) {
        return values[rng->UniformIndex(values.size())] +
               rng->UniformInt(-1, 1);
      }
      return rng->UniformInt(-2'000'000, 2'000'000);
    };
    ranges.emplace_back(endpoint(), endpoint());
  }
  for (const auto& [lo, hi] : ranges) {
    ASSERT_EQ(oracle.CountRange(lo, hi).value(), ref.CountRange(lo, hi))
        << "[" << lo << ", " << hi << ")";
    const AggregateResult got = oracle.AggregateRange(lo, hi).value();
    const AggregateResult want = ref.AggregateRange(lo, hi);
    ASSERT_EQ(got.count, want.count) << "[" << lo << ", " << hi << ")";
    ASSERT_TRUE(SameBits(got.sum, want.sum)) << got.sum << " vs " << want.sum;
    ASSERT_TRUE(SameBits(got.avg, want.avg)) << got.avg << " vs " << want.avg;
    ASSERT_TRUE(SameBits(got.variance, want.variance))
        << got.variance << " vs " << want.variance;
    ASSERT_TRUE(SameBits(got.min, want.min));
    ASSERT_TRUE(SameBits(got.max, want.max));
  }
}

TEST(OracleTest, IncrementalSealMatchesFullResort) {
  enum Shape { kInterleaved, kBelowMin, kAboveMax, kDuplicates, kSingle,
               kNothing, kShapes };
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    GroundTruthOracle oracle;
    ResortingOracle ref;
    // The first seal lands on an empty history (seed 4: a single value).
    const int first = seed == 4 ? 1 : static_cast<int>(rng.UniformInt(1, 500));
    for (int i = 0; i < first; ++i) {
      const Value v = rng.UniformInt(-1'000'000, 1'000'000);
      oracle.Append(v);
      ref.Append(v);
    }
    oracle.Seal();
    ref.Seal();
    ASSERT_NO_FATAL_FAILURE(ExpectSameAnswers(oracle, ref, &rng, 50));

    for (int batch = 0; batch < 60; ++batch) {
      const auto shape = static_cast<Shape>(rng.UniformIndex(kShapes));
      const int k = shape == kSingle    ? 1
                    : shape == kNothing ? 0
                                        : static_cast<int>(
                                              rng.UniformInt(2, 400));
      const Value lo = oracle.min_seen();
      const Value hi = oracle.max_seen();
      for (int i = 0; i < k; ++i) {
        Value v = 0;
        switch (shape) {
          case kBelowMin:
            v = lo - rng.UniformInt(1, 1000);
            break;
          case kAboveMax:
            v = hi + rng.UniformInt(1, 1000);
            break;
          case kDuplicates:
            // Repeats of stored values, the extremes among them.
            v = rng.Bernoulli(0.25) ? (rng.Bernoulli(0.5) ? lo : hi)
                                    : ref.values()[rng.UniformIndex(
                                          ref.values().size())];
            break;
          default:
            v = rng.UniformInt(lo, hi);
            break;
        }
        oracle.Append(v);
        ref.Append(v);
      }
      oracle.Seal();
      ref.Seal();
      if (shape == kNothing) oracle.Seal();  // idempotent on no pending
      ASSERT_NO_FATAL_FAILURE(ExpectSameAnswers(oracle, ref, &rng, 20));
    }
  }
}

TEST(OracleTest, SealRecordsOracleMetricsOncePerMerge) {
#if defined(AMNESIA_NO_METRICS)
  GTEST_SKIP() << "metrics compiled out (AMNESIA_NO_METRICS)";
#endif
  obs::EngineMetrics& metrics = obs::EngineMetrics::Get();
  const uint64_t before = metrics.oracle_seal_ns->Snapshot().count;
  GroundTruthOracle oracle;
  for (Value v : {3, 1, 2}) oracle.Append(v);
  oracle.Seal();
  oracle.Seal();  // nothing pending: no work, no sample
  oracle.Append(0);
  oracle.Seal();
  EXPECT_EQ(metrics.oracle_seal_ns->Snapshot().count - before, 2u);
  EXPECT_EQ(metrics.oracle_history_rows->Value(), 4);
}

TEST(OracleTest, UnsealedQueriesFail) {
  GroundTruthOracle oracle;
  oracle.Append(1);
  EXPECT_EQ(oracle.CountRange(0, 10).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(oracle.AggregateRange(0, 10).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(oracle.ValueAt(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(OracleTest, SealIsIdempotentAndIncremental) {
  GroundTruthOracle oracle;
  oracle.Append(5);
  oracle.Seal();
  oracle.Seal();
  oracle.Append(1);
  oracle.Seal();
  EXPECT_EQ(oracle.CountRange(0, 10).value(), 2u);
  EXPECT_EQ(oracle.ValueAt(0).value(), 1);
  EXPECT_EQ(oracle.ValueAt(1).value(), 5);
  EXPECT_EQ(oracle.ValueAt(2).status().code(), StatusCode::kOutOfRange);
}

TEST(OracleTest, MinMaxSeen) {
  GroundTruthOracle oracle;
  oracle.Append(5);
  oracle.Append(-2);
  oracle.Append(11);
  EXPECT_EQ(oracle.min_seen(), -2);
  EXPECT_EQ(oracle.max_seen(), 11);
}

TEST(OracleTest, AggregateRangeMatchesManualComputation) {
  GroundTruthOracle oracle;
  for (Value v : {2, 4, 6, 8, 100}) oracle.Append(v);
  oracle.Seal();
  const AggregateResult agg = oracle.AggregateRange(2, 9).value();
  EXPECT_EQ(agg.count, 4u);
  EXPECT_DOUBLE_EQ(agg.avg, 5.0);
  EXPECT_DOUBLE_EQ(agg.min, 2.0);
  EXPECT_DOUBLE_EQ(agg.max, 8.0);
  EXPECT_DOUBLE_EQ(agg.variance, 5.0);
  EXPECT_EQ(oracle.AggregateRange(50, 10).value().count, 0u);
}

TEST(OracleTest, ScanAndOracleAgreeWithoutAmnesia) {
  Table t = MakeTableWithValues({3, 1, 4, 1, 5, 9, 2, 6});
  GroundTruthOracle oracle;
  for (RowId r = 0; r < t.num_rows(); ++r) oracle.Append(t.value(0, r));
  oracle.Seal();
  for (Value lo = 0; lo < 10; ++lo) {
    for (Value hi = lo; hi < 11; ++hi) {
      EXPECT_EQ(
          CountRange(t, RangePredicate{0, lo, hi}, Visibility::kActiveOnly)
              .value(),
          oracle.CountRange(lo, hi).value());
    }
  }
}

// -------------------------------------------------------------- Executor

TEST(ExecutorTest, PlansAgreeOnResults) {
  std::vector<Value> values;
  Rng rng(71);
  for (int i = 0; i < 500; ++i) values.push_back(rng.UniformInt(0, 300));
  Table t = MakeTableWithValues(values);
  for (int i = 0; i < 100; ++i) {
    // Double-forgets are rejected by the table; skipping them is fine here.
    const Status s = t.Forget(static_cast<RowId>(rng.UniformInt(0, 499)));
    (void)s;
  }
  IndexManager mgr;
  Executor exec(&t, &mgr);

  for (int q = 0; q < 30; ++q) {
    const Value lo = rng.UniformInt(0, 300);
    const RangePredicate pred{0, lo, lo + rng.UniformInt(1, 50)};
    ExecOptions full, brin, btree;
    full.plan = PlanKind::kFullScan;
    brin.plan = PlanKind::kBrinScan;
    btree.plan = PlanKind::kBTreeProbe;
    full.record_access = brin.record_access = btree.record_access = false;
    const ResultSet rf = exec.ExecuteRange(pred, full).value();
    const ResultSet rb = exec.ExecuteRange(pred, brin).value();
    const ResultSet rt = exec.ExecuteRange(pred, btree).value();
    EXPECT_EQ(rf.rows, rb.rows);
    EXPECT_EQ(rf.rows, rt.rows);
    EXPECT_EQ(rf.values, rt.values);
  }
  EXPECT_GT(exec.stats().full_scans, 0u);
  EXPECT_GT(exec.stats().brin_scans, 0u);
  EXPECT_GT(exec.stats().btree_probes, 0u);
  EXPECT_EQ(exec.stats().queries, 90u);
}

TEST(ExecutorTest, NullIndexManagerFallsBackToFullScan) {
  Table t = MakeTableWithValues({1, 2, 3});
  Executor exec(&t, nullptr);
  ExecOptions opts;
  opts.plan = PlanKind::kBTreeProbe;
  const ResultSet r = exec.ExecuteRange(RangePredicate{0, 0, 10}, opts).value();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(exec.stats().full_scans, 1u);
  EXPECT_EQ(exec.stats().btree_probes, 0u);
}

TEST(ExecutorTest, RecordAccessBumpsResultTuples) {
  Table t = MakeTableWithValues({5, 50});
  IndexManager mgr;
  Executor exec(&t, &mgr);
  ExecOptions opts;
  opts.record_access = true;
  ASSERT_TRUE(exec.ExecuteRange(RangePredicate{0, 0, 10}, opts).ok());
  EXPECT_EQ(t.access_count(0), 1u);
  EXPECT_EQ(t.access_count(1), 0u);
  opts.record_access = false;
  ASSERT_TRUE(exec.ExecuteRange(RangePredicate{0, 0, 10}, opts).ok());
  EXPECT_EQ(t.access_count(0), 1u);
}

TEST(ExecutorTest, AggregateMatchesScanKernel) {
  Table t = MakeTableWithValues({2, 4, 6, 8, 10});
  ASSERT_TRUE(t.Forget(4).ok());
  IndexManager mgr;
  Executor exec(&t, &mgr);
  ExecOptions full, btree;
  full.plan = PlanKind::kFullScan;
  btree.plan = PlanKind::kBTreeProbe;
  const AggregateResult a =
      exec.ExecuteAggregate(RangePredicate{0, 0, 100}, full).value();
  const AggregateResult b =
      exec.ExecuteAggregate(RangePredicate{0, 0, 100}, btree).value();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.avg, b.avg);
  EXPECT_DOUBLE_EQ(a.avg, 5.0);
}

TEST(ExecutorTest, BadColumnRejected) {
  Table t = MakeTableWithValues({1});
  IndexManager mgr;
  Executor exec(&t, &mgr);
  EXPECT_FALSE(exec.ExecuteRange(RangePredicate{9, 0, 1}, ExecOptions{}).ok());
}

// -------------------------------------------------------- Summary blending

TEST(BlendTest, EmptyForgottenIsIdentity) {
  AggregateResult active;
  active.count = 2;
  active.sum = 10;
  active.avg = 5;
  active.min = 1;
  active.max = 9;
  const AggregateResult out = BlendAggregates(active, Summary{});
  EXPECT_EQ(out.count, 2u);
  EXPECT_DOUBLE_EQ(out.avg, 5.0);
}

TEST(BlendTest, CombinesCountsSumsAndExtremes) {
  AggregateResult active;
  active.count = 2;
  active.sum = 10.0;
  active.avg = 5.0;
  active.min = 4.0;
  active.max = 6.0;
  Summary forgotten;
  forgotten.Add(0);
  forgotten.Add(20);
  const AggregateResult out = BlendAggregates(active, forgotten);
  EXPECT_EQ(out.count, 4u);
  EXPECT_DOUBLE_EQ(out.sum, 30.0);
  EXPECT_DOUBLE_EQ(out.avg, 7.5);
  EXPECT_DOUBLE_EQ(out.min, 0.0);
  EXPECT_DOUBLE_EQ(out.max, 20.0);
}

TEST(BlendTest, EmptyActiveTakesForgottenShape) {
  AggregateResult active;  // count == 0
  Summary forgotten;
  forgotten.Add(10);
  const AggregateResult out = BlendAggregates(active, forgotten);
  EXPECT_EQ(out.count, 1u);
  EXPECT_DOUBLE_EQ(out.avg, 10.0);
  EXPECT_DOUBLE_EQ(out.min, 10.0);
}

TEST(ExecutorTest, AggregateWithSummaryRecoversForgottenMass) {
  Table t = MakeTableWithValues({10, 20, 30, 40});
  SummaryStore summaries;
  // Forget rows 0 and 3, folding them into the summary tier.
  summaries.AddForgotten(0, 0, 10);
  summaries.AddForgotten(0, 0, 40);
  ASSERT_TRUE(t.Forget(0).ok());
  ASSERT_TRUE(t.Forget(3).ok());
  IndexManager mgr;
  Executor exec(&t, &mgr);

  ExecOptions opts;
  const AggregateResult naked =
      exec.ExecuteAggregate(RangePredicate::All(0), opts).value();
  EXPECT_DOUBLE_EQ(naked.avg, 25.0);  // only 20 and 30 remain

  const AggregateResult blended =
      exec.ExecuteAggregateWithSummary(RangePredicate::All(0), summaries, opts)
          .value();
  EXPECT_EQ(blended.count, 4u);
  // Summary range estimation is approximate (midpoint), but a full-range
  // query recovers the exact count and a close sum.
  EXPECT_NEAR(blended.avg, 25.0, 2.0);
  EXPECT_DOUBLE_EQ(blended.min, 10.0);
  EXPECT_DOUBLE_EQ(blended.max, 40.0);
}

}  // namespace
}  // namespace amnesia
