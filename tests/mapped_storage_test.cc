// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the mmap-backed, time-partitioned storage backend: partition
// file format (header, checksum, torn-file rejection), table sealing and
// the O(1) partition drop, checkpoint/recovery over manifest v3 + the v2
// mapped blob, crash points around the drop's rename-then-unlink
// protocol, and bit-identity of the kMapped backend against the kVector
// oracle across every amnesia policy, backends, and sharded tables.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "amnesia/controller.h"
#include "amnesia/registry.h"
#include "amnesia/sharded_controller.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "durability/checkpointer.h"
#include "durability/event_log.h"
#include "query/profile.h"
#include "query/scan.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"
#include "storage/checkpoint_io.h"
#include "storage/mapped_file.h"
#include "storage/sharded_table.h"
#include "storage/table.h"

namespace amnesia {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

StorageOptions Mapped(const std::string& dir, uint64_t partition_rows = 64) {
  StorageOptions storage;
  storage.backend = StorageBackend::kMapped;
  storage.dir = dir;
  storage.partition_rows = partition_rows;
  return storage;
}

/// Appends `rows` seeded rows to both tables (same values, same batches:
/// a new batch every `batch_every` rows).
void FillTwins(Table* a, Table* b, uint64_t rows, uint64_t seed,
               uint64_t batch_every = 0) {
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    if (batch_every > 0 && i % batch_every == 0) {
      a->BeginBatch();
      b->BeginBatch();
    }
    const Value v = rng.UniformInt(0, 999'999);
    ASSERT_TRUE(a->AppendRow({v}).ok());
    ASSERT_TRUE(b->AppendRow({v}).ok());
  }
}

// ------------------------------------------------- partition file format

TEST(PartitionFileTest, DirNameRoundtrip) {
  EXPECT_EQ(PartitionDirName(0, 63), "part-0-63");
  EXPECT_EQ(DroppedPartitionDirName(64, 127), "part-64-127.dropped");
  Tick lo = 0, hi = 0;
  bool dropped = false;
  ASSERT_TRUE(ParsePartitionDirName("part-128-191", &lo, &hi, &dropped));
  EXPECT_EQ(lo, 128u);
  EXPECT_EQ(hi, 191u);
  EXPECT_FALSE(dropped);
  ASSERT_TRUE(
      ParsePartitionDirName("part-128-191.dropped", &lo, &hi, &dropped));
  EXPECT_TRUE(dropped);
  EXPECT_FALSE(ParsePartitionDirName("ckpt-1.blob", &lo, &hi, &dropped));
  EXPECT_FALSE(ParsePartitionDirName("part-x-y", &lo, &hi, &dropped));
}

TEST(PartitionFileTest, WriteSealedThenMapRoundtrips) {
  ScratchDir dir("amnesia_partition_roundtrip_test");
  std::vector<Value> values(100);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<Value>(i * 7 - 50);
  }
  const std::string path = dir.file("col-a.dat");
  ASSERT_TRUE(MappedColumnFile::WriteSealed(path, values.data(),
                                            values.size(), 10, 109)
                  .ok());
  MappedColumnFile mapped =
      MappedColumnFile::Map(path, values.size()).value();
  ASSERT_TRUE(mapped.valid());
  EXPECT_EQ(mapped.rows(), 100u);
  EXPECT_EQ(mapped.epoch_lo(), 10u);
  EXPECT_EQ(mapped.epoch_hi(), 109u);
  EXPECT_EQ(mapped.mapped_bytes(),
            kPartitionHeaderBytes + 100 * sizeof(Value));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(mapped.data()[i], values[i]);
  }
}

TEST(PartitionFileTest, TornHeaderIsRejected) {
  ScratchDir dir("amnesia_partition_torn_test");
  std::vector<Value> values = {1, 2, 3, 4};
  const std::string path = dir.file("col-a.dat");
  ASSERT_TRUE(
      MappedColumnFile::WriteSealed(path, values.data(), 4, 0, 3).ok());

  // Flip one header byte (inside the CRC-covered range).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(9);
    char byte = 0x5A;
    f.write(&byte, 1);
  }
  EXPECT_FALSE(MappedColumnFile::Map(path, 4).ok());
}

TEST(PartitionFileTest, TruncatedFileIsRejected) {
  ScratchDir dir("amnesia_partition_truncated_test");
  std::vector<Value> values = {1, 2, 3, 4};
  const std::string path = dir.file("col-a.dat");
  ASSERT_TRUE(
      MappedColumnFile::WriteSealed(path, values.data(), 4, 0, 3).ok());
  fs::resize_file(path, fs::file_size(path) - 8);
  EXPECT_FALSE(MappedColumnFile::Map(path, 4).ok());
  // Row-count mismatch against the caller's expectation also fails.
  EXPECT_FALSE(MappedColumnFile::Map(path, 99).ok());
}

// ----------------------------------------------------- sealing lifecycle

TEST(MappedTableTest, SealsFullPartitionsAndReadsBack) {
  ScratchDir dir("amnesia_mapped_seal_test");
  Schema schema = Schema::SingleColumn("a", 0, 1'000'000);
  Table mapped = Table::Make(schema, Mapped(dir.path(), 64)).value();
  Table vec = Table::Make(schema).value();
  ASSERT_TRUE(mapped.mapped());
  EXPECT_EQ(mapped.partition_rows(), 64u);

  FillTwins(&mapped, &vec, 200, 17);
  EXPECT_EQ(mapped.partitions().size(), 3u);  // 192 sealed + 8 tail rows
  EXPECT_EQ(mapped.sealed_rows(), 192u);
  EXPECT_GT(mapped.MappedBytes(), 0u);
  ASSERT_TRUE(fs::exists(dir.file("part-0-63/col-a.dat")));
  ASSERT_TRUE(fs::exists(dir.file("part-128-191/col-a.dat")));

  for (RowId r = 0; r < 200; ++r) {
    EXPECT_EQ(mapped.value(0, r), vec.value(0, r)) << r;
  }
  EXPECT_EQ(mapped.min_seen(0), vec.min_seen(0));
  EXPECT_EQ(mapped.max_seen(0), vec.max_seen(0));
  // The v1 checkpoint blob splices mapped segments back into one payload:
  // byte equality against the vector twin is the bit-identity statement.
  EXPECT_EQ(CheckpointTable(mapped), CheckpointTable(vec));
}

TEST(MappedTableTest, PartitionRowsRoundUpToPowerOfTwo) {
  ScratchDir dir("amnesia_mapped_rounding_test");
  Table t = Table::Make(Schema::SingleColumn("a", 0, 10),
                        Mapped(dir.path(), 100))
                .value();
  EXPECT_EQ(t.partition_rows(), 128u);
  Table tiny =
      Table::Make(Schema::SingleColumn("a", 0, 10), Mapped(dir.path(), 1))
          .value();
  EXPECT_EQ(tiny.partition_rows(), 64u);
}

TEST(MappedTableTest, ScrubWritesThroughToTheFile) {
  ScratchDir dir("amnesia_mapped_scrub_test");
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1'000'000),
                        Mapped(dir.path(), 64))
                .value();
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<Value>(i + 1)}).ok());
  }
  ASSERT_EQ(t.sealed_rows(), 64u);
  ASSERT_TRUE(t.Forget(3).ok());
  ASSERT_TRUE(t.ScrubRow(3).ok());
  EXPECT_EQ(t.value(0, 3), 0);

  // The scrub must be visible in the file itself (MAP_SHARED).
  std::ifstream f(dir.file("part-0-63/col-a.dat"), std::ios::binary);
  f.seekg(static_cast<std::streamoff>(kPartitionHeaderBytes +
                                      3 * sizeof(Value)));
  Value on_disk = -1;
  f.read(reinterpret_cast<char*>(&on_disk), sizeof(on_disk));
  EXPECT_EQ(on_disk, 0);
}

// --------------------------------------------------- O(1) partition drop

TEST(MappedTableTest, DropPartitionForgetsAllRowsAndUnlinks) {
  ScratchDir dir("amnesia_mapped_drop_test");
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1'000'000),
                        Mapped(dir.path(), 64))
                .value();
  Rng rng(5);
  for (uint64_t i = 0; i < 160; ++i) {
    ASSERT_TRUE(t.AppendRow({rng.UniformInt(1, 999)}).ok());
  }
  ASSERT_EQ(t.partitions().size(), 2u);
  const uint64_t active_before = t.num_active();

  EXPECT_EQ(t.DropPartition(0).value(), 64u);
  EXPECT_TRUE(t.partitions()[0].dropped);
  EXPECT_EQ(t.num_active(), active_before - 64);
  EXPECT_EQ(t.lifetime_forgotten(), 64u);
  // RowIds stay stable; dropped rows read the scrub value.
  for (RowId r = 0; r < 64; ++r) {
    EXPECT_FALSE(t.IsActive(r));
    EXPECT_EQ(t.value(0, r), 0);
  }
  for (RowId r = 64; r < 160; ++r) EXPECT_TRUE(t.IsActive(r));
  // Immediate unlink: neither the live nor the .dropped name remains.
  EXPECT_FALSE(fs::exists(dir.file("part-0-63")));
  EXPECT_FALSE(fs::exists(dir.file("part-0-63.dropped")));
  // Idempotent: a second drop forgets nothing new.
  EXPECT_EQ(t.DropPartition(0).value(), 0u);
}

TEST(MappedTableTest, DeferredDropLeavesRenamedDirForGc) {
  ScratchDir dir("amnesia_mapped_defer_test");
  Table t = Table::Make(Schema::SingleColumn("a", 0, 1'000'000),
                        Mapped(dir.path(), 64))
                .value();
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(t.AppendRow({static_cast<Value>(i)}).ok());
  }
  EXPECT_EQ(t.DropPartition(0, /*defer_unlink=*/true).value(), 64u);
  EXPECT_FALSE(fs::exists(dir.file("part-0-63")));
  EXPECT_TRUE(fs::exists(dir.file("part-0-63.dropped")));
}

// ------------------------------------------- checkpoint/recovery (v2/v3)

Table MakeLoadedMappedTable(const std::string& dir, uint64_t rows,
                            uint64_t seed) {
  Table t = Table::Make(Schema::SingleColumn("v", 0, 1'000'000),
                        Mapped(dir, 64))
                .value();
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({rng.UniformInt(0, 999'999)}).ok());
  }
  return t;
}

TEST(MappedRecoveryTest, RecoveryRemapsPartitionsBitIdentically) {
  ScratchDir dir("amnesia_mapped_recover_test");
  Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 41);
  for (RowId r = 0; r < 20; ++r) {
    ASSERT_TRUE(table.Forget(r).ok());
    ASSERT_TRUE(table.ScrubRow(r).ok());
  }

  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, /*covered_lsn=*/0).ok());

  RecoveredState state = Recover(dir.file("ckpt"), "").value();
  ASSERT_EQ(state.shards.size(), 1u);
  EXPECT_TRUE(state.shards[0].mapped());
  EXPECT_EQ(state.shards[0].partitions().size(), 3u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
}

TEST(MappedRecoveryTest, V2BlobWithoutStorageDirFailsClosed) {
  ScratchDir dir("amnesia_mapped_nodir_test");
  Table table = MakeLoadedMappedTable(dir.file("storage"), 100, 43);
  // SerializeShardSnapshot writes the v2 mapped layout; restoring it
  // without a storage_dir cannot map anything and must not half-restore.
  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());
  // Find the shard blob and restore it directly with no directory.
  for (const auto& entry : fs::directory_iterator(dir.file("ckpt"))) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 &&
        name.rfind(".blob") == name.size() - 5) {
      auto bytes = ReadBytesFile(entry.path().string()).value();
      EXPECT_FALSE(RestoreTable(bytes).ok());
      return;
    }
  }
  FAIL() << "no shard blob written";
}

TEST(MappedRecoveryTest, CrashAfterRenameBeforeJournalRestoresIntact) {
  // The drop protocol renames the partition directory first and journals
  // the drop second. A crash in between loses the event: the manifest
  // still lists the partition as live, but only the `.dropped` name is on
  // disk. Recovery must map the renamed directory and restore the
  // partition's rows intact.
  ScratchDir dir("amnesia_mapped_lostevent_test");
  Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 47);
  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());
  const std::vector<uint8_t> before = CheckpointTable(table);

  // Crash reproduction: the rename reached disk, the journal append did
  // not. (DropPartition with defer_unlink is exactly the rename step.)
  ASSERT_TRUE(table.DropPartition(1, /*defer_unlink=*/true).ok());
  ASSERT_TRUE(fs::exists(dir.file("storage/part-64-127.dropped")));

  RecoveredState state = Recover(dir.file("ckpt"), "").value();
  ASSERT_EQ(state.shards.size(), 1u);
  // The recovered table equals the pre-drop table: nothing forgotten.
  EXPECT_EQ(state.shards[0].num_forgotten(), 0u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), before);
}

TEST(MappedRecoveryTest, JournaledDropReplaysOnRecovery) {
  ScratchDir dir("amnesia_mapped_dropreplay_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 53);
  for (uint64_t b = 0; b < 6; ++b) table.BeginBatch();

  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

  // Vacuum through a controller wired to the journal: every sealed
  // partition is older than the cutoff and drops whole.
  PolicyOptions popts;
  popts.kind = PolicyKind::kFifo;
  auto policy = CreatePolicy(popts, nullptr).value();
  ControllerOptions copts;
  copts.backend = BackendKind::kDelete;
  copts.dbsize_budget = 1'000'000;
  AmnesiaController ctrl =
      AmnesiaController::Make(copts, policy.get(), &table).value();
  ctrl.set_event_sink(&log);
  const uint64_t vacuumed = ctrl.VacuumExpired(1).value();
  EXPECT_EQ(vacuumed, 200u);  // 192 partition rows + 8 tail rows
  EXPECT_EQ(ctrl.stats().partitions_dropped, 3u);
  ASSERT_TRUE(log.Flush().ok());
  // Deferred unlink: the renamed dirs are still there for fallback.
  EXPECT_TRUE(fs::exists(dir.file("storage/part-0-63.dropped")));

  RecoveredState state =
      Recover(dir.file("ckpt"), dir.file("events.log")).value();
  ASSERT_EQ(state.shards.size(), 1u);
  EXPECT_GT(state.events_replayed, 0u);
  EXPECT_EQ(state.shards[0].num_active(), 0u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
}

TEST(MappedRecoveryTest, ReplayRedropsPartitionSealedPastTheManifest) {
  // The log tail past the only manifest both seals partition 0 and drops
  // it. The live run left the partition under `part-0-63.dropped`
  // (deferred unlink), so replay re-seals `part-0-63` next to it and must
  // still be able to replay the drop's rename.
  ScratchDir dir("amnesia_mapped_redrop_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedMappedTable(dir.file("storage"), 10, 67);

  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

  Event append;
  append.kind = EventKind::kAppendRows;
  append.columns.resize(1);
  for (Value v = 0; v < 90; ++v) append.columns[0].push_back(v * 7);
  ASSERT_TRUE(table.AppendColumns(append.columns).ok());
  ASSERT_TRUE(log.Append(append).ok());
  ASSERT_EQ(table.partitions().size(), 1u);
  ASSERT_TRUE(table.DropPartition(0, /*defer_unlink=*/true).ok());
  Event drop;
  drop.kind = EventKind::kDropPartition;
  drop.row = 0;
  drop.value = 64;
  ASSERT_TRUE(log.Append(drop).ok());
  ASSERT_TRUE(log.Flush().ok());
  ASSERT_TRUE(fs::exists(dir.file("storage/part-0-63.dropped")));

  StatusOr<RecoveredState> recovered =
      Recover(dir.file("ckpt"), dir.file("events.log"));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveredState& state = recovered.value();
  ASSERT_EQ(state.shards.size(), 1u);
  EXPECT_EQ(state.shards[0].num_forgotten(), 64u);
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
  EXPECT_FALSE(fs::exists(dir.file("storage/part-0-63")));
  EXPECT_TRUE(fs::exists(dir.file("storage/part-0-63.dropped")));
}

TEST(MappedRecoveryTest, TornPartitionFileFailsRecovery) {
  ScratchDir dir("amnesia_mapped_tornpart_test");
  Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 59);
  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, 0).ok());

  // Corrupt one partition file's header: its CRC no longer matches, so
  // the only manifest cannot restore and recovery reports the failure
  // instead of returning a half-mapped table.
  {
    std::fstream f(dir.file("storage/part-64-127/col-v.dat"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    char byte = 0x7F;
    f.write(&byte, 1);
  }
  EXPECT_FALSE(Recover(dir.file("ckpt"), "").ok());
}

TEST(MappedRecoveryTest, RetentionGcUnlinksDroppedPartitions) {
  // Once no retained manifest lists a partition as live, the retention GC
  // removes its `.dropped` directory — the deferred half of the drop.
  ScratchDir dir("amnesia_mapped_gc_test");
  EventLog log = EventLog::Open(dir.file("events.log")).value();
  Table table = MakeLoadedMappedTable(dir.file("storage"), 200, 61);
  for (uint64_t b = 0; b < 6; ++b) table.BeginBatch();

  CheckpointerOptions opts;
  opts.dir = dir.file("ckpt");
  opts.async = false;
  opts.retain = 1;
  opts.log = &log;
  BackgroundCheckpointer ckpt = BackgroundCheckpointer::Make(opts).value();
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());

  ASSERT_TRUE(table.DropPartition(0, /*defer_unlink=*/true).ok());
  Event event;
  event.kind = EventKind::kDropPartition;
  event.row = 0;
  event.value = 64;
  ASSERT_TRUE(log.Append(event).ok());
  ASSERT_TRUE(log.Flush().ok());
  ASSERT_TRUE(fs::exists(dir.file("storage/part-0-63.dropped")));

  // The next commit's manifest no longer lists part-0-63; with retain=1
  // it becomes the only retained manifest and the GC unlinks the dir.
  ASSERT_TRUE(ckpt.Checkpoint(table, log.next_lsn()).ok());
  ASSERT_TRUE(ckpt.WaitIdle().ok());
  EXPECT_FALSE(fs::exists(dir.file("storage/part-0-63.dropped")));
  EXPECT_GT(ckpt.stats().partition_dirs_gced, 0u);
  // The recovered state still matches the live table.
  RecoveredState state =
      Recover(dir.file("ckpt"), dir.file("events.log")).value();
  EXPECT_EQ(CheckpointTable(state.shards[0]), CheckpointTable(table));
}

// ------------------------------------------------ vacuum fast-path twin

TEST(MappedVacuumTest, PartitionDropMatchesRowWiseVacuum) {
  ScratchDir dir("amnesia_mapped_vacuum_twin_test");
  Schema schema = Schema::SingleColumn("a", 0, 1'000'000);
  Table mapped = Table::Make(schema, Mapped(dir.path(), 64)).value();
  Table vec = Table::Make(schema).value();
  FillTwins(&mapped, &vec, 320, 67, /*batch_every=*/40);  // batches 1..8

  PolicyOptions popts;
  popts.kind = PolicyKind::kFifo;
  auto policy_m = CreatePolicy(popts, nullptr).value();
  auto policy_v = CreatePolicy(popts, nullptr).value();
  ControllerOptions copts;
  copts.backend = BackendKind::kDelete;
  copts.dbsize_budget = 1'000'000;
  copts.compact_every_n_rounds = 0;  // scrub-only keeps RowIds aligned
  AmnesiaController ctrl_m =
      AmnesiaController::Make(copts, policy_m.get(), &mapped).value();
  AmnesiaController ctrl_v =
      AmnesiaController::Make(copts, policy_v.get(), &vec).value();

  const uint64_t vac_m = ctrl_m.VacuumExpired(3).value();
  const uint64_t vac_v = ctrl_v.VacuumExpired(3).value();
  EXPECT_EQ(vac_m, vac_v);
  EXPECT_GT(ctrl_m.stats().partitions_dropped, 0u);
  EXPECT_EQ(ctrl_v.stats().partitions_dropped, 0u);
  EXPECT_EQ(mapped.num_active(), vec.num_active());
  // kDelete scrubs row-wise and zero-reads dropped partitions: the
  // logical contents agree cell for cell.
  for (RowId r = 0; r < 320; ++r) {
    EXPECT_EQ(mapped.IsActive(r), vec.IsActive(r)) << r;
    EXPECT_EQ(mapped.value(0, r), vec.value(0, r)) << r;
  }
}

// ---------------------------------------- policy equivalence (simulator)

SimulationConfig EquivalenceConfig(PolicyKind kind, BackendKind backend,
                                   StorageBackend storage,
                                   const std::string& dir) {
  SimulationConfig config;
  config.seed = 9177;
  config.dbsize = 200;
  config.upd_perc = 0.4;
  config.num_batches = 5;
  config.queries_per_batch = 10;
  config.policy.kind = kind;
  config.backend = backend;
  // Scrub-only delete: physical layouts stay comparable byte for byte
  // (mapped tables never compact; the vector twin must not either).
  config.compact_every_n_rounds = 0;
  config.storage_backend = storage;
  if (storage == StorageBackend::kMapped) {
    config.storage_dir = dir;
    config.partition_rows = 64;
  }
  return config;
}

TEST(MappedEquivalenceTest, AllPoliciesMatchTheVectorOracle) {
  // The acceptance matrix: every policy × {mark-only, delete}, one run
  // per storage backend with the same seed. Query metrics and the final
  // table bytes must be identical — the mapped backend changes where the
  // payload lives, never what a query sees.
  for (const PolicyKind kind :
       {PolicyKind::kFifo, PolicyKind::kUniform, PolicyKind::kAnterograde,
        PolicyKind::kRot, PolicyKind::kInverseRot, PolicyKind::kArea,
        PolicyKind::kPairPreserving, PolicyKind::kDistributionAligned}) {
    for (const BackendKind backend :
         {BackendKind::kMarkOnly, BackendKind::kDelete}) {
      SCOPED_TRACE(std::string(PolicyKindToString(kind)) + "/" +
                   std::string(BackendKindToString(backend)));
      ScratchDir dir("amnesia_mapped_equivalence_test");
      auto vec_sim = Simulator::Make(EquivalenceConfig(
                                         kind, backend,
                                         StorageBackend::kVector, ""))
                         .value();
      auto map_sim = Simulator::Make(EquivalenceConfig(
                                         kind, backend,
                                         StorageBackend::kMapped,
                                         dir.file("storage")))
                         .value();
      ASSERT_TRUE(vec_sim->Initialize().ok());
      ASSERT_TRUE(map_sim->Initialize().ok());
      for (uint32_t b = 0; b < 5; ++b) {
        BatchMetrics mv = vec_sim->StepBatch().value();
        BatchMetrics mm = map_sim->StepBatch().value();
        EXPECT_EQ(mm.inserted, mv.inserted);
        EXPECT_EQ(mm.active, mv.active);
        EXPECT_EQ(mm.forgotten_total, mv.forgotten_total);
        EXPECT_EQ(mm.avg_rf, mv.avg_rf);
        EXPECT_EQ(mm.avg_mf, mv.avg_mf);
        EXPECT_EQ(mm.mean_pf, mv.mean_pf);
        EXPECT_EQ(mm.error_margin, mv.error_margin);
      }
      EXPECT_EQ(CheckpointTable(map_sim->table()),
                CheckpointTable(vec_sim->table()));
    }
  }
}

// ------------------------------------------------------- sharded tables

TEST(MappedShardedTest, ShardedForgetPassesMatchTheVectorOracle) {
  ScratchDir dir("amnesia_mapped_sharded_test");
  Schema schema = Schema::SingleColumn("a", 0, 1'000'000);
  ShardedTable mapped =
      ShardedTable::Make(schema, 4, Mapped(dir.path(), 64)).value();
  ShardedTable vec = ShardedTable::Make(schema, 4).value();
  ASSERT_TRUE(fs::exists(dir.file("shard-0")));

  Rng rng(71);
  for (uint64_t i = 0; i < 1000; ++i) {
    const Value v = rng.UniformInt(0, 999'999);
    ASSERT_TRUE(mapped.AppendRow({v}).ok());
    ASSERT_TRUE(vec.AppendRow({v}).ok());
  }

  ShardedControllerOptions sopts;
  sopts.dbsize_budget = 600;
  sopts.backend = BackendKind::kDelete;
  sopts.compact_every_n_rounds = 0;
  sopts.seed = 99;
  PolicyOptions popts;
  popts.kind = PolicyKind::kUniform;
  ShardedAmnesiaController ctrl_m =
      ShardedAmnesiaController::Make(sopts, popts, &mapped).value();
  ShardedAmnesiaController ctrl_v =
      ShardedAmnesiaController::Make(sopts, popts, &vec).value();
  ASSERT_TRUE(ctrl_m.EnforceBudget().ok());
  ASSERT_TRUE(ctrl_v.EnforceBudget().ok());

  EXPECT_EQ(mapped.num_active(), vec.num_active());
  for (uint32_t s = 0; s < 4; ++s) {
    SCOPED_TRACE(s);
    EXPECT_TRUE(mapped.shard(s).table().mapped());
    EXPECT_EQ(CheckpointTable(mapped.shard(s).table()),
              CheckpointTable(vec.shard(s).table()));
  }
}

TEST(MappedShardedTest, ScanMorselsEndOnPartitionBoundaries) {
  // A morsel request larger than a partition is capped per shard, so no
  // morsel straddles two partition files.
  constexpr uint64_t kPartitionRows = 256;
  constexpr uint64_t kMorselRows = 1000;
  ScratchDir dir("amnesia_mapped_sharded_morsels");
  ShardedTable table =
      ShardedTable::Make(Schema::SingleColumn("a", 0, 1'000'000), 4,
                         Mapped(dir.path(), kPartitionRows))
          .value();
  Rng rng(29);
  for (uint64_t i = 0; i < 6001; ++i) {
    ASSERT_TRUE(table.AppendRow({rng.UniformInt(0, 999'999)}).ok());
  }
  // Shard 1 loses its first partition wholesale (a skippable morsel), the
  // others a scattered 20%.
  for (uint32_t s = 0; s < table.num_shards(); ++s) {
    Table& shard = table.mutable_shard(s).mutable_table();
    ASSERT_GT(shard.partitions().size(), 1u);
    for (RowId r = 0; r < shard.num_rows(); ++r) {
      if ((s == 1 && r < kPartitionRows) || rng.Bernoulli(0.2)) {
        ASSERT_TRUE(shard.Forget(r).ok());
      }
    }
  }
  for (uint32_t s = 0; s < table.num_shards(); ++s) {
    const Table& shard = table.shard(s).table();
    for (Morsel m : shard.Morsels(kMorselRows)) {
      EXPECT_TRUE(m.end % kPartitionRows == 0 || m.end == shard.num_rows())
          << "shard " << s << " morsel ends at " << m.end;
    }
  }

  ThreadPool pool(3);
  const RangePredicate pred{0, 100'000, 800'000};
  for (Visibility vis : {Visibility::kActiveOnly, Visibility::kAll,
                         Visibility::kForgottenOnly}) {
    // The reference: each shard scanned alone as a one-shard source under
    // the scalar engine, its rows mapped to global ids by hand.
    ResultSet want;
    for (uint32_t s = 0; s < table.num_shards(); ++s) {
      const ResultSet part =
          ScanRange(table.shard(s).table(), pred, vis, Engine::kScalar)
              .value();
      for (RowId r : part.rows) want.rows.push_back(MakeGlobalRowId(s, r));
      want.values.insert(want.values.end(), part.values.begin(),
                         part.values.end());
    }
    for (Engine engine : {Engine::kScalar, Engine::kVectorized}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(testing::Message()
                     << "visibility " << static_cast<int>(vis) << " engine "
                     << static_cast<int>(engine) << " pool " << (p != nullptr));
        ProfiledQuery pq("count", PlanKind::kFullScan, engine, vis,
                         /*parallelism=*/p == nullptr ? 1 : 4,
                         table.num_shards());
        const uint64_t count =
            CountRange(table, pred, vis, engine, p, 0, kMorselRows).value();
        const QueryProfile profile = pq.Finish(count);
        EXPECT_EQ(count, want.rows.size());
#if !defined(AMNESIA_NO_METRICS)
        for (uint32_t s = 0; s < table.num_shards(); ++s) {
          const uint64_t rows = table.shard(s).table().num_rows();
          const QueryProfile::ShardStats& st = profile.shards[s];
          EXPECT_EQ(st.morsels_scanned + st.morsels_skipped,
                    (rows + kPartitionRows - 1) / kPartitionRows)
              << "shard " << s;
        }
#endif

        const ResultSet got =
            ScanRange(table, pred, vis, engine, p, 0, kMorselRows).value();
        EXPECT_EQ(got.rows, want.rows);
        EXPECT_EQ(got.values, want.values);
        const AggregateResult agg =
            AggregateRange(table, pred, vis, engine, p, 0, kMorselRows)
                .value();
        EXPECT_EQ(agg.count, want.values.size());
        if (!want.values.empty()) {
          EXPECT_EQ(agg.min, static_cast<double>(*std::min_element(
                                 want.values.begin(), want.values.end())));
          EXPECT_EQ(agg.max, static_cast<double>(*std::max_element(
                                 want.values.begin(), want.values.end())));
        }
      }
    }
  }
}

}  // namespace
}  // namespace amnesia
