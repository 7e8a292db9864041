// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the per-query profile layer (query/profile.h): profiled runs
// are bit-identical to unprofiled ones, per-shard attribution matches the
// vectorized kernels' wholesale-skip accounting (cross-checked against
// the scan.morsels_* registry counters), the executor records profiles
// into the global ring when ExecOptions::profile is set, the ring evicts
// oldest-first, and the text/JSON renderings carry the operator tree.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/index_manager.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/profile.h"
#include "query/scan.h"
#include "storage/schema.h"
#include "storage/sharded_table.h"
#include "storage/table.h"

namespace amnesia {
namespace {

#if defined(AMNESIA_NO_METRICS)
#define SKIP_WITHOUT_METRICS() \
  GTEST_SKIP() << "metrics compiled out (AMNESIA_NO_METRICS)"
#else
#define SKIP_WITHOUT_METRICS() (void)0
#endif

uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Sharded fixture with real skip structure: every shard holds two full
// morsels; shard 1's rows are ALL forgotten (the vectorized engine must
// skip both its morsels wholesale), the other shards lose a scattered 10%
// (row-wise visibility filtering, no wholesale skip).
ShardedTable MakeSkippyTable(uint32_t num_shards = 4) {
  const uint64_t rows_per_shard = 2 * kDefaultMorselRows;
  auto table = ShardedTable::Make(Schema::SingleColumn("a", 0, 1'000'000),
                                  num_shards);
  EXPECT_TRUE(table.ok());
  Rng rng(123);
  std::vector<std::vector<Value>> columns(1);
  columns[0].reserve(rows_per_shard * num_shards);
  for (uint64_t i = 0; i < rows_per_shard * num_shards; ++i) {
    columns[0].push_back(rng.UniformInt(0, 999'999));
  }
  EXPECT_TRUE(table->AppendColumns(columns).ok());
  for (uint32_t s = 0; s < num_shards; ++s) {
    Table& shard = table->mutable_shard(s).mutable_table();
    for (RowId r = 0; r < shard.num_rows(); ++r) {
      if (s == 1 || rng.Bernoulli(0.1)) {
        EXPECT_TRUE(shard.Forget(r).ok());
      }
    }
  }
  return std::move(table).value();
}

const RangePredicate kPred{0, 100'000, 900'000};

TEST(ProfileTest, ProfiledShardedVectorizedAggregateIsBitIdentical) {
  SKIP_WITHOUT_METRICS();
  const ShardedTable table = MakeSkippyTable();
  ThreadPool pool(3);

  auto plain = AggregateRange(table, kPred, Visibility::kActiveOnly,
                              Engine::kVectorized, &pool, /*max_workers=*/4);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  ProfiledQuery pq("aggregate", PlanKind::kFullScan, Engine::kVectorized,
                   Visibility::kActiveOnly, /*parallelism=*/4,
                   table.num_shards());
  pq.Stage("execute");
  auto profiled = AggregateRange(table, kPred, Visibility::kActiveOnly,
                                 Engine::kVectorized, &pool,
                                 /*max_workers=*/4);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  const QueryProfile profile = pq.Finish(profiled->count);

  // Profiling only observes; even the FP aggregates must be bit-equal.
  EXPECT_EQ(profiled->count, plain->count);
  EXPECT_EQ(profiled->sum, plain->sum);
  EXPECT_EQ(profiled->avg, plain->avg);
  EXPECT_EQ(profiled->min, plain->min);
  EXPECT_EQ(profiled->max, plain->max);
  EXPECT_EQ(profiled->variance, plain->variance);

  // The operator tree: per-shard morsel/row attribution with timings.
  ASSERT_EQ(profile.shards.size(), 4u);
  const QueryProfile::ShardStats& dead = profile.shards[1];
  EXPECT_EQ(dead.morsels_scanned, 0u);
  EXPECT_EQ(dead.morsels_skipped, 2u);
  EXPECT_EQ(dead.rows_skipped, 2 * kDefaultMorselRows);
  EXPECT_EQ(dead.rows_forgotten_skipped, 2 * kDefaultMorselRows);
  for (uint32_t s : {0u, 2u, 3u}) {
    const QueryProfile::ShardStats& live = profile.shards[s];
    EXPECT_EQ(live.morsels_scanned, 2u) << "shard " << s;
    EXPECT_EQ(live.morsels_skipped, 0u) << "shard " << s;
    EXPECT_EQ(live.rows_scanned, 2 * kDefaultMorselRows) << "shard " << s;
    EXPECT_GT(live.rows_forgotten_skipped, 0u) << "shard " << s;
    EXPECT_GT(live.busy_ns, 0u) << "shard " << s;
  }
  ASSERT_EQ(profile.stages.size(), 1u);
  EXPECT_STREQ(profile.stages[0].name, "execute");
  EXPECT_GT(profile.stages[0].wall_ns, 0u);
  EXPECT_GE(profile.total_ns, profile.stages[0].wall_ns);
  EXPECT_EQ(profile.rows_returned, profiled->count);
}

TEST(ProfileTest, SkipCountsMatchEngineRegistryCounters) {
  SKIP_WITHOUT_METRICS();
  const ShardedTable table = MakeSkippyTable();

  // Serial so no concurrent pool touches the process-global counters
  // between the bracketing snapshots (gtest itself runs tests serially).
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().SnapshotAll();
  ProfiledQuery pq("count", PlanKind::kFullScan, Engine::kVectorized,
                   Visibility::kActiveOnly, /*parallelism=*/1,
                   table.num_shards());
  pq.Stage("execute");
  auto count =
      CountRange(table, kPred, Visibility::kActiveOnly, Engine::kVectorized);
  ASSERT_TRUE(count.ok());
  const QueryProfile profile = pq.Finish(*count);
  const obs::MetricsSnapshot after =
      obs::MetricsRegistry::Global().SnapshotAll();

  // The collector mirrors the kernels' own skip rule from the same
  // MorselLiveCount input, so any drift between the two accountings is a
  // bug in one of them.
  const QueryProfile::ShardStats totals = profile.Totals();
  EXPECT_EQ(totals.morsels_skipped,
            CounterValue(after, "scan.morsels_skipped") -
                CounterValue(before, "scan.morsels_skipped"));
  EXPECT_EQ(totals.morsels_scanned,
            CounterValue(after, "scan.morsels_scanned") -
                CounterValue(before, "scan.morsels_scanned"));
  EXPECT_EQ(totals.rows_scanned, CounterValue(after, "scan.rows_scanned") -
                                     CounterValue(before, "scan.rows_scanned"));
}

TEST(ProfileTest, ScalarEngineNeverSkipsWholesale) {
  SKIP_WITHOUT_METRICS();
  const ShardedTable table = MakeSkippyTable(2);
  ProfiledQuery pq("count", PlanKind::kFullScan, Engine::kScalar,
                   Visibility::kActiveOnly, /*parallelism=*/1,
                   table.num_shards());
  pq.Stage("execute");
  auto count =
      CountRange(table, kPred, Visibility::kActiveOnly, Engine::kScalar);
  ASSERT_TRUE(count.ok());
  const QueryProfile profile = pq.Finish(*count);
  const QueryProfile::ShardStats totals = profile.Totals();
  EXPECT_EQ(totals.morsels_skipped, 0u);
  EXPECT_GT(totals.morsels_scanned, 0u);
  // Shard 1 is fully forgotten: under kActiveOnly the scalar engine still
  // reads it, and every row shows up as forgotten-skipped.
  EXPECT_EQ(profile.shards[1].rows_forgotten_skipped,
            2 * kDefaultMorselRows);
}

TEST(ProfileTest, ExecutorRecordsProfileWhenOptedIn) {
  SKIP_WITHOUT_METRICS();
  auto table = Table::Make(Schema::SingleColumn("a", 0, 1000));
  ASSERT_TRUE(table.ok());
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(table->AppendRow({rng.UniformInt(0, 999)}).ok());
  }
  for (RowId r = 0; r < 1000; ++r) {
    ASSERT_TRUE(table->Forget(r).ok());
  }
  IndexManager indexes;
  Executor exec(&*table, &indexes);
  const RangePredicate pred{0, 100, 900};

  ExecOptions plain_opts;
  plain_opts.engine = Engine::kVectorized;
  auto plain = exec.ExecuteAggregate(pred, plain_opts);
  ASSERT_TRUE(plain.ok());

  ProfileLog& log = ProfileLog::Global();
  const uint64_t recorded_before = log.total_recorded();
  ExecOptions opts = plain_opts;
  opts.profile = true;
  auto profiled = exec.ExecuteAggregate(pred, opts);
  ASSERT_TRUE(profiled.ok());
  EXPECT_EQ(profiled->count, plain->count);
  EXPECT_EQ(profiled->sum, plain->sum);

  EXPECT_EQ(log.total_recorded(), recorded_before + 1);
  const std::vector<QueryProfile> profiles = log.Snapshot();
  ASSERT_FALSE(profiles.empty());
  const QueryProfile& p = profiles.back();
  EXPECT_STREQ(p.op, "aggregate");
  EXPECT_EQ(p.engine, Engine::kVectorized);
  EXPECT_EQ(p.rows_returned, profiled->count);
  ASSERT_FALSE(p.stages.empty());
  EXPECT_STREQ(p.stages[0].name, "execute");
  // Retained and addressable by id for /profilez?id=.
  const auto found = log.Find(p.query_id);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->query_id, p.query_id);
}

TEST(ProfileTest, ProfileLogEvictsOldestFirst) {
  SKIP_WITHOUT_METRICS();
  ProfileLog& log = ProfileLog::Global();
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < ProfileLog::kCapacity + 5; ++i) {
    ProfiledQuery pq("scan", PlanKind::kFullScan, Engine::kScalar,
                     Visibility::kActiveOnly, 1, 1);
    ids.push_back(pq.query_id());
    pq.Finish(0);
  }
  const std::vector<QueryProfile> snap = log.Snapshot();
  EXPECT_EQ(snap.size(), ProfileLog::kCapacity);
  // Oldest-first, and only the newest kCapacity of our ids survive.
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].query_id, snap[i].query_id);
  }
  EXPECT_FALSE(log.Find(ids.front()).has_value());
  EXPECT_TRUE(log.Find(ids.back()).has_value());
}

TEST(ProfileTest, TextAndJsonRenderTheOperatorTree) {
  SKIP_WITHOUT_METRICS();
  const ShardedTable table = MakeSkippyTable(2);
  ProfiledQuery pq("aggregate", PlanKind::kFullScan, Engine::kVectorized,
                   Visibility::kActiveOnly, 1, table.num_shards());
  pq.Stage("execute");
  auto agg =
      AggregateRange(table, kPred, Visibility::kActiveOnly,
                     Engine::kVectorized);
  ASSERT_TRUE(agg.ok());
  const QueryProfile profile = pq.Finish(agg->count);

  const std::string text = profile.ToText();
  EXPECT_NE(text.find("engine=vectorized"), std::string::npos) << text;
  EXPECT_NE(text.find("visibility=active_only"), std::string::npos) << text;
  EXPECT_NE(text.find("Stage execute"), std::string::npos) << text;
  EXPECT_NE(text.find("Shard 0"), std::string::npos) << text;
  EXPECT_NE(text.find("Shard 1"), std::string::npos) << text;

  const std::string json = profile.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"query_id\"", "\"op\"", "\"engine\"", "\"stages\"", "\"shards\"",
        "\"morsels_skipped\"", "\"rows_forgotten_skipped\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

#if defined(AMNESIA_NO_METRICS)

TEST(ProfileTest, NoMetricsStubKeepsMetadataAndStaysEmpty) {
  ProfiledQuery pq("scan", PlanKind::kFullScan, Engine::kScalar,
                   Visibility::kActiveOnly, 1, 2);
  pq.Stage("execute");
  const QueryProfile profile = pq.Finish(17);
  EXPECT_STREQ(profile.op, "scan");
  EXPECT_EQ(profile.rows_returned, 17u);
  EXPECT_EQ(ProfileLog::Global().total_recorded(), 0u);
  EXPECT_TRUE(ProfileLog::Global().Snapshot().empty());
}

#endif  // AMNESIA_NO_METRICS

}  // namespace
}  // namespace amnesia
