// Copyright 2026 The AmnesiaDB Authors
//
// Live-introspection walkthrough: builds a sharded table, forgets enough
// of it that the vectorized kernels get real wholesale-skips, runs
// profiled queries, prints their EXPLAIN-ANALYZE trees, and serves the
// whole observability surface over HTTP.
//
//   introspect_demo [--port P] [--rows N] [--shards S] [--no-serve]
//
// With --no-serve the demo just prints the profiles and exits (what the
// CI smoke uses alongside crash_recovery_demo --serve). Otherwise it
// binds 127.0.0.1:P (0 = ephemeral, the default; the bound port is
// printed) and lingers until GET /quitz, so you can explore:
//
//   curl http://127.0.0.1:$PORT/metrics      # Prometheus exposition
//   curl http://127.0.0.1:$PORT/profilez     # the trees printed below
//   curl http://127.0.0.1:$PORT/tracez > t.json   # open in ui.perfetto.dev
//   curl http://127.0.0.1:$PORT/quitz        # let the demo exit

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "query/profile.h"
#include "query/scan.h"
#include "server/introspect.h"
#include "storage/schema.h"
#include "storage/sharded_table.h"

using namespace amnesia;

namespace {

int Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  uint64_t rows = 1'200'000;
  uint32_t shards = 4;
  bool serve = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-serve") == 0) {
      serve = false;
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port P] [--rows N] [--shards S] "
                   "[--no-serve]\n",
                   argv[0]);
      return 2;
    }
  }

  // 1. Ingest: one value column, round-robin across shards.
  auto table = ShardedTable::Make(Schema::SingleColumn("a", 0, 1'000'000),
                                  shards);
  if (!table.ok()) return Fail(table.status().ToString());
  {
    obs::TraceScope trace("demo.ingest");
    Rng rng(7);
    std::vector<std::vector<Value>> columns(1);
    columns[0].reserve(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      columns[0].push_back(rng.UniformInt(0, 999'999));
    }
    auto appended = table->AppendColumns(columns);
    if (!appended.ok()) return Fail(appended.status().ToString());
    trace.Annotate("rows", static_cast<int64_t>(*appended));
  }

  // 2. Forget. Two flavors so the profile shows both effects: the first
  //    two morsels of every odd shard are forgotten entirely (the
  //    vectorized engine skips them wholesale — morsels_skipped), and 10%
  //    of the remaining rows are forgotten at random (visibility filters
  //    them row-wise — rows_forgotten_skipped).
  {
    obs::TraceScope trace("demo.forget");
    Rng rng(11);
    uint64_t forgotten = 0;
    for (uint32_t s = 0; s < table->num_shards(); ++s) {
      Table& shard = table->mutable_shard(s).mutable_table();
      const uint64_t n = shard.num_rows();
      const uint64_t wholesale =
          s % 2 == 1 ? std::min<uint64_t>(n, 2 * kDefaultMorselRows) : 0;
      for (RowId r = 0; r < n; ++r) {
        if (r < wholesale || rng.Bernoulli(0.1)) {
          if (shard.Forget(r).ok()) ++forgotten;
        }
      }
    }
    trace.Annotate("rows", static_cast<int64_t>(forgotten));
  }

  // 3. Profiled queries over the amnesic view: a serial scalar count (the
  //    reference engine) and the same aggregate on the vectorized
  //    parallel path. Profiling only observes, so the counts must agree
  //    bit-exactly.
  const RangePredicate pred{0, 250'000, 750'000};
  uint64_t scalar_count = 0;
  {
    ProfiledQuery pq("count", PlanKind::kFullScan, Engine::kScalar,
                     Visibility::kActiveOnly, /*parallelism=*/1,
                     table->num_shards());
    pq.Stage("execute");
    auto count = CountRange(*table, pred, Visibility::kActiveOnly,
                            Engine::kScalar);
    if (!count.ok()) return Fail(count.status().ToString());
    scalar_count = *count;
    std::printf("%s\n", pq.Finish(*count).ToText().c_str());
  }
  {
    ThreadPool pool(3);
    ProfiledQuery pq("aggregate", PlanKind::kFullScan, Engine::kVectorized,
                     Visibility::kActiveOnly, /*parallelism=*/4,
                     table->num_shards());
    pq.Stage("execute");
    auto agg = AggregateRange(*table, pred, Visibility::kActiveOnly,
                              Engine::kVectorized, &pool, /*max_workers=*/4);
    if (!agg.ok()) return Fail(agg.status().ToString());
    const QueryProfile profile = pq.Finish(agg->count);
    std::printf("%s\n", profile.ToText().c_str());
    if (agg->count != scalar_count) {
      return Fail("vectorized count diverged from the scalar oracle");
    }
    std::printf("engines agree: count=%llu avg=%.3f (profiled runs are "
                "bit-identical to unprofiled ones)\n\n",
                static_cast<unsigned long long>(agg->count), agg->avg);
  }

  if (!serve) return 0;

  // 4. Serve everything the run just produced.
  server::IntrospectionServer srv;
  server::IntrospectionOptions opts;
  opts.port = static_cast<uint16_t>(port);
  opts.readiness_probes.push_back({"demo", [] { return Status::OK(); }});
  Status st = srv.Start(std::move(opts));
  if (!st.ok()) return Fail(st.ToString());
  std::printf("introspection server at http://127.0.0.1:%u/ "
              "(GET /quitz to exit)\n",
              srv.port());
  std::fflush(stdout);
  while (!srv.quit_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("quitz received, shutting down\n");
  return 0;
}
