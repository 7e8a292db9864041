// Copyright 2026 The AmnesiaDB Authors
//
// perfbench_e2e: the process-level half of the end-to-end benchmark.
// run.py starts one process per mode and workload; each prints one JSON
// object as its last stdout line.
//
//   perfbench_e2e run --workload W --seed S --dir D [--tiny]
//       One repetition: sets the workload's Simulator up a few times
//       (setup_s), then runs the seeded simulation once, timing every
//       StepBatch. It calls FlushCheckpoints() and ends the process with
//       _Exit (no destructors, as a kill would), leaving its directory
//       and the live state's digests for `recover`. run.py repeats it.
//
//   perfbench_e2e recover --workload W --dir D --table X --cold X
//                         --summary X --forgotten N [--tiny]
//       Times Recover() on that directory and checks the recovered table
//       and tiers against the digests `run` printed; on churn it also
//       verifies the audit chain against the recovered forget total.
//
//   perfbench_e2e trace --workload W --seed S --dir D --span-file F
//                       [--tiny]
//       Runs an untraced Simulator, then the traced mirror
//       (traced_sim.h) on the same seed, checks that both end in the same
//       state, and reports the per-layer metrics from the mirror's spans
//       and registry deltas. Writes the spans to F as Chrome trace JSON.

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "amnesia/audit_ledger.h"
#include "durability/checkpointer.h"
#include "durability/log_segments.h"
#include "obs/engine_metrics.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/checkpoint.h"
#include "traced_sim.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using amnesia::Status;
using amnesia::StatusOr;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
namespace obs = amnesia::obs;

// Set-ups run on their own before each measured repetition. The first
// warms the process up (its page faults would otherwise make the median
// straddle cold and warm samples) and is not timed; one set-up takes
// milliseconds, so setup_s is the median of many.
constexpr int kSetupOnlyRuns = 3;
// Recover() repetitions: at least kRecoverMinReps and kRecoverMinS.
constexpr int kRecoverMinReps = 5;
constexpr int kRecoverMaxReps = 200;
constexpr double kRecoverMinS = 0.1;
// The ROADMAP's target share of batch time the named stages must cover.
constexpr double kMinCoverage = 0.95;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// FNV-1a over a checkpoint encoding: equal digests mean equal bytes
/// (up to a 2^-64 collision), which is what "bit-identical" checks.
std::string Digest(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return Hex64(h) + ":" + std::to_string(bytes.size());
}

struct Digests {
  std::string table, cold, summary;
  bool operator==(const Digests& o) const {
    return table == o.table && cold == o.cold && summary == o.summary;
  }
};

Digests DigestOf(const amnesia::Table& table, const amnesia::ColdStore& cold,
                 const amnesia::SummaryStore& summaries) {
  return {Digest(amnesia::CheckpointTable(table)),
          Digest(amnesia::CheckpointColdStore(cold)),
          Digest(amnesia::CheckpointSummaryStore(summaries))};
}

/// Bytes of every regular file under `dir` (0 when it does not exist).
uint64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  if (dir.empty() || !fs::exists(dir, ec)) return 0;
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string FsType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x01021997: return "9p";
    case 0x6A656A63: return "virtiofs";
    case 0x65735546: return "fuse";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "magic 0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One process's verdict and output. Every StepBatch, Recover and
/// correctness check is one attempted operation.
class Report {
 public:
  void Op(const Status& st, const std::string& what) {
    ++attempted_;
    if (!st.ok()) Fail(what + ": " + st.ToString());
  }
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(what);
  }
  bool failed() const { return failed_ > 0; }
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back("{\"name\":" + JsonString(name) +
                       ",\"value\":" + JsonNumber(value) +
                       ",\"unit\":" + JsonString(unit) + "}");
  }
  void Fact(const std::string& key, const std::string& value) {
    facts_.push_back(JsonString(key) + ":" + JsonString(value));
  }
  /// Prints the JSON line; returns the process exit code.
  int Print() const {
    std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                      ",\"failed\":" + std::to_string(failed_) +
                      ",\"errors\":[";
    for (size_t i = 0; i < errors_.size(); ++i) {
      out += (i ? "," : "") + JsonString(errors_[i]);
    }
    out += "],\"metrics\":[";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out += (i ? "," : "") + metrics_[i];
    }
    out += "],\"facts\":{";
    for (size_t i = 0; i < facts_.size(); ++i) {
      out += (i ? "," : "") + facts_[i];
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return failed_ > 0 ? 1 : 0;
  }

 private:
  void Fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    errors_.push_back(what);
  }
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::string> metrics_;
  std::vector<std::string> facts_;
};

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  std::string dir;
  std::string span_file;
  bool tiny = false;
  Digests expect;
  uint64_t expect_forgotten = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--dir") a->dir = v;
    else if (k == "--span-file") a->span_file = v;
    else if (k == "--table") a->expect.table = v;
    else if (k == "--cold") a->expect.cold = v;
    else if (k == "--summary") a->expect.summary = v;
    else if (k == "--forgotten")
      a->expect_forgotten = std::strtoull(v.c_str(), nullptr, 10);
    else return false;
  }
  return !a->workload.empty() && !a->dir.empty();
}

void HostFacts(const Args& a, const Workload& w, Report* r) {
  r->Fact("nproc", std::to_string(std::thread::hardware_concurrency()));
  r->Fact("build_type", PERFBENCH_BUILD_TYPE);
  r->Fact("compiler", PERFBENCH_COMPILER);
  r->Fact("data_fs", FsType(a.dir));
  r->Fact("batches", std::to_string(w.config.num_batches));
  r->Fact("dbsize", std::to_string(w.config.dbsize));
  if (w.journaled()) {
    const amnesia::SyncPolicy& s = w.config.log_sync;
    char buf[200];
    std::snprintf(
        buf, sizeof(buf),
        "%s(%u events, %g ms) + flush at batch and checkpoint boundaries; "
        "fflush, no fsync: survives process kill, not power loss",
        s.kind == amnesia::SyncPolicy::Kind::kGroupCommit ? "GroupCommit"
                                                          : "EveryAppend",
        s.group_events, s.group_interval_ms);
    r->Fact("flush_policy", buf);
  } else {
    r->Fact("flush_policy", "no journal in the loop (durability off)");
  }
}

/// Writes the one snapshot a non-journaled workload leaves behind, so
/// recovery and footprint mean the same thing on every workload.
Status WriteFinalSnapshot(const Workload& w, const amnesia::Table& table,
                          const amnesia::ColdStore& cold,
                          const amnesia::SummaryStore& summaries,
                          amnesia::CheckpointerStats* stats) {
  amnesia::CheckpointerOptions opts;
  opts.dir = w.checkpoint_dir;
  opts.async = false;
  AMNESIA_ASSIGN_OR_RETURN(amnesia::BackgroundCheckpointer ckpt,
                           amnesia::BackgroundCheckpointer::Make(opts));
  AMNESIA_RETURN_NOT_OK(ckpt.Checkpoint(table, /*covered_lsn=*/0,
                                        amnesia::TierSet{&cold, &summaries}));
  AMNESIA_RETURN_NOT_OK(ckpt.WaitIdle());
  if (stats != nullptr) *stats = ckpt.stats();
  return Status::OK();
}

std::string LogPathOf(const Workload& w) {
  return w.journaled()
             ? amnesia::EventLogPathFor(w.checkpoint_dir, w.config.log_format)
             : std::string();
}

/// Recovers `w`'s directory until the repetition rule is met, checking
/// each result against `expect`. Returns the Recover() times in seconds.
std::vector<double> TimeRecovery(const Workload& w, const Digests& expect,
                                 uint64_t expect_forgotten, int min_reps,
                                 double min_s, uint64_t* events_replayed,
                                 Report* r) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < kRecoverMaxReps &&
         (static_cast<int>(samples.size()) < min_reps ||
          SecondsSince(start) < min_s)) {
    const Clock::time_point t0 = Clock::now();
    StatusOr<amnesia::RecoveredState> st =
        amnesia::Recover(w.checkpoint_dir, LogPathOf(w));
    const double s = SecondsSince(t0);
    r->Op(st.status(), "Recover");
    if (!st.ok()) return samples;
    samples.push_back(s);
    *events_replayed = st->events_replayed;
    const bool shaped = st->shards.size() == 1 && st->cold.has_value() &&
                        st->summaries.has_value();
    r->Check(shaped, "recovered state has one shard and both tiers");
    if (!shaped) return samples;
    const amnesia::Table& table = st->shards[0];
    r->Check(DigestOf(table, *st->cold, *st->summaries) == expect,
             "recovered table and tiers are bit-identical to the live "
             "final state");
    r->Check(table.lifetime_forgotten() == expect_forgotten,
             "recovered lifetime_forgotten equals the live run's");
  }
  return samples;
}

/// churn: the audit chain verifies and its claimed forget total equals
/// the run's lifetime_forgotten.
void CheckAudit(const Workload& w, uint64_t forgotten, Report* r) {
  if (!w.config.audit_ledger) return;
  const std::string dir = amnesia::AuditDirFor(w.checkpoint_dir);
  StatusOr<amnesia::AuditChainReport> chain = amnesia::VerifyAuditChain(dir);
  r->Op(chain.status(), "VerifyAuditChain");
  if (!chain.ok()) return;
  r->Check(chain->ok, "audit chain verifies: " + chain->detail);
  StatusOr<std::vector<amnesia::AuditRecord>> records =
      amnesia::ReadAuditRecords(dir);
  r->Op(records.status(), "ReadAuditRecords");
  if (!records.ok()) return;
  uint64_t claimed = 0;
  for (const amnesia::AuditRecord& rec : *records) claimed += rec.rows_marked;
  r->Check(claimed == forgotten,
           "audit ledger claims " + std::to_string(claimed) +
               " forgotten rows, the run forgot " + std::to_string(forgotten));
  r->Check(!records->empty() &&
               records->back().lifetime_forgotten == forgotten,
           "newest audit record's lifetime_forgotten equals the run's");
}

StatusOr<Workload> PrepareWorkload(const Args& a, const std::string& dir) {
  AMNESIA_ASSIGN_OR_RETURN(Workload w,
                           MakeWorkload(a.workload, a.seed, dir, a.tiny));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  return w;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// One measured repetition per process: peak_rss_mb is then this
// repetition's own, and every repetition starts from the same cold state.
// run.py repeats the process and takes the medians.
int RunMode(const Args& a) {
  Report r;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupOnlyRuns; ++i) {
    const std::string dir = a.dir + "/setup-" + std::to_string(i);
    StatusOr<Workload> w = PrepareWorkload(a, dir);
    r.Op(w.status(), "workload");
    if (!w.ok()) return r.Print();
    const Clock::time_point t0 = Clock::now();
    auto sim = amnesia::Simulator::Make(w->config);
    r.Op(sim.status(), "Simulator::Make");
    if (!sim.ok()) return r.Print();
    r.Op(sim.value()->Initialize(), "Initialize");
    if (i > 0) setup_s.push_back(SecondsSince(t0));
    sim.value().reset();
    RemoveDir(dir);
  }

  const std::string dir = a.dir + "/db";
  StatusOr<Workload> w = PrepareWorkload(a, dir);
  r.Op(w.status(), "workload");
  if (!w.ok()) return r.Print();
  const Clock::time_point t0 = Clock::now();
  auto made = amnesia::Simulator::Make(w->config);
  r.Op(made.status(), "Simulator::Make");
  if (!made.ok()) return r.Print();
  std::unique_ptr<amnesia::Simulator> sim = std::move(made).value();
  r.Op(sim->Initialize(), "Initialize");
  setup_s.push_back(SecondsSince(t0));
  if (r.failed()) return r.Print();

  std::vector<double> pf, batch_ms;
  uint64_t inserted = 0;
  const Clock::time_point loop0 = Clock::now();
  for (uint32_t b = 0; b < w->config.num_batches; ++b) {
    const Clock::time_point tb = Clock::now();
    StatusOr<amnesia::BatchMetrics> m = sim->StepBatch();
    const double ms = SecondsSince(tb) * 1e3;
    r.Op(m.status(), "StepBatch");
    if (!m.ok()) return r.Print();
    batch_ms.push_back(ms);
    inserted += m->inserted;
    pf.push_back(m->mean_pf);
  }
  r.Op(sim->FlushCheckpoints(), "FlushCheckpoints");
  const double rows_per_s =
      static_cast<double>(inserted) / SecondsSince(loop0);
  // Read before the digests: the checkpoint encodings they build are the
  // benchmark's memory, not the workload's.
  const double peak_rss_mb = PeakRssMb();

  if (!w->journaled()) {
    r.Op(WriteFinalSnapshot(*w, sim->table(), sim->cold_store(),
                            sim->summary_store(), nullptr),
         "final snapshot");
  }
  const amnesia::Table& t = sim->table();
  const double live_bytes = static_cast<double>(t.num_active()) *
                            static_cast<double>(t.num_columns()) * 8.0;
  const double disk_bytes = static_cast<double>(
      DirBytes(w->checkpoint_dir) + DirBytes(w->config.storage_dir));
  const Digests d = DigestOf(t, sim->cold_store(), sim->summary_store());
  std::vector<uint8_t> pf_bytes(pf.size() * sizeof(double));
  std::memcpy(pf_bytes.data(), pf.data(), pf_bytes.size());

  r.Metric("rows_per_s", rows_per_s, "1/s");
  r.Metric("batch_ms_p50", Quantile(batch_ms, 0.5), "ms");
  r.Metric("batch_ms_p90", Quantile(batch_ms, 0.9), "ms");
  r.Metric("disk_bytes_per_live_byte",
           live_bytes > 0 ? disk_bytes / live_bytes : 0.0, "ratio");
  r.Metric("peak_rss_mb", peak_rss_mb, "MB");
  r.Metric("precision_pf", Mean(pf), "ratio");
  HostFacts(a, *w, &r);
  std::string setups;
  for (double v : setup_s) {
    setups += (setups.empty() ? "" : " ") + JsonNumber(v);
  }
  r.Fact("setup_samples_s", setups);
  r.Fact("final_dir", dir);
  r.Fact("digest_table", d.table);
  r.Fact("digest_cold", d.cold);
  r.Fact("digest_summary", d.summary);
  r.Fact("digest_pf", Digest(pf_bytes));
  r.Fact("lifetime_forgotten", std::to_string(t.lifetime_forgotten()));
  // Die as a kill would, after the flush: no destructors run, and the
  // directory is left for `recover`.
  std::_Exit(r.Print());
}

int RecoverMode(const Args& a) {
  Report r;
  StatusOr<Workload> w = MakeWorkload(a.workload, a.seed, a.dir, a.tiny);
  r.Op(w.status(), "workload");
  if (!w.ok()) return r.Print();
  uint64_t replayed = 0;
  const std::vector<double> samples =
      TimeRecovery(*w, a.expect, a.expect_forgotten, kRecoverMinReps,
                   a.tiny ? 0.0 : kRecoverMinS, &replayed, &r);
  CheckAudit(*w, a.expect_forgotten, &r);
  r.Metric("recovery_s", Quantile(samples, 0.5), "s");
  r.Fact("recover_samples", std::to_string(samples.size()));
  r.Fact("events_replayed", std::to_string(replayed));
  return r.Print();
}

/// Sums and per-call samples of the benchmark's spans inside batches.
struct SpanTotals {
  std::map<std::string, double> ms;              ///< Σ duration by name.
  std::map<std::string, std::vector<double>> us; ///< Per-call, by name.
  double batch_ms = 0.0;     ///< Σ sim.batch.
  double children_ms = 0.0;  ///< Σ direct children of sim.batch.
};

SpanTotals Summarize(const SpanLog& log) {
  SpanTotals t;
  const std::vector<Span>& spans = log.spans();
  for (const Span& s : spans) {
    if (s.batch == 0) continue;
    const double ms = static_cast<double>(s.dur_ns) / 1e6;
    t.ms[s.name] += ms;
    t.us[s.name].push_back(static_cast<double>(s.dur_ns) / 1e3);
    if (std::strcmp(s.name, "sim.batch") == 0) t.batch_ms += ms;
    if (s.parent >= 0 &&
        std::strcmp(spans[s.parent].name, "sim.batch") == 0) {
      t.children_ms += ms;
    }
  }
  return t;
}

/// The untraced Simulator on the same seed: the fidelity baseline and
/// the denominator of trace.overhead.
struct Reference {
  std::vector<double> pf;
  Digests digests;
  double loop_s = 0.0;
};

Reference RunUntraced(const Args& a, Report* r) {
  Reference ref;
  const std::string dir = a.dir + "/untraced";
  StatusOr<Workload> w = PrepareWorkload(a, dir);
  r->Op(w.status(), "workload");
  if (!w.ok()) return ref;
  auto sim = amnesia::Simulator::Make(w->config);
  r->Op(sim.status(), "Simulator::Make");
  if (!sim.ok()) return ref;
  r->Op(sim.value()->Initialize(), "Initialize (untraced)");
  const Clock::time_point loop0 = Clock::now();
  for (uint32_t b = 0; b < w->config.num_batches; ++b) {
    StatusOr<amnesia::BatchMetrics> bm = sim.value()->StepBatch();
    r->Op(bm.status(), "StepBatch (untraced)");
    if (!bm.ok()) break;
    ref.pf.push_back(bm->mean_pf);
  }
  r->Op(sim.value()->FlushCheckpoints(), "FlushCheckpoints (untraced)");
  ref.loop_s = SecondsSince(loop0);
  ref.digests = DigestOf(sim.value()->table(), sim.value()->cold_store(),
                         sim.value()->summary_store());
  sim.value().reset();
  RemoveDir(dir);
  return ref;
}

int TraceMode(const Args& a) {
  Report r;
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  obs::Counter* dropped_spans =
      obs::MetricsRegistry::Global().GetCounter("obs.trace.dropped_spans");

  const std::string dir = a.dir + "/traced";
  StatusOr<Workload> w = PrepareWorkload(a, dir);
  r.Op(w.status(), "workload");
  if (!w.ok()) return r.Print();
  SpanLog spans;
  auto made = TracedSimulation::Make(w->config, &spans);
  r.Op(made.status(), "TracedSimulation::Make");
  if (!made.ok()) return r.Print();
  std::unique_ptr<TracedSimulation> sim = std::move(made).value();
  r.Op(sim->Initialize(), "Initialize (traced)");
  if (r.failed()) return r.Print();

  m.storage_mapped_bytes->ResetHighWater();
  const uint64_t sealed0 = m.storage_partitions_created->Value();
  const uint64_t dropped0 = m.storage_partitions_dropped->Value();
  const uint64_t flushes0 = m.log_fsyncs->Value();
  const uint64_t forgotten0 = m.amnesia_rows_forgotten->Value();
  const uint64_t dropped_spans0 = dropped_spans->Value();
  std::vector<double> pf;
  const Clock::time_point loop0 = Clock::now();
  for (uint32_t b = 0; b < w->config.num_batches; ++b) {
    StatusOr<amnesia::BatchMetrics> bm = sim->StepBatch();
    r.Op(bm.status(), "StepBatch (traced)");
    if (!bm.ok()) return r.Print();
    pf.push_back(bm->mean_pf);
  }
  spans.set_batch(0);
  {
    ScopedSpan span(&spans, "durability.final_flush");
    r.Op(sim->FlushCheckpoints(), "FlushCheckpoints (traced)");
  }
  const double traced_s = SecondsSince(loop0);
  // Registry deltas of the traced loop, read before anything else in
  // this process adds to the counters.
  const uint64_t rows_forgotten =
      m.amnesia_rows_forgotten->Value() - forgotten0;
  const uint64_t sealed = m.storage_partitions_created->Value() - sealed0;
  const uint64_t dropped = m.storage_partitions_dropped->Value() - dropped0;
  const uint64_t log_flushes = m.log_fsyncs->Value() - flushes0;
  const int64_t mapped_peak = m.storage_mapped_bytes->HighWater();
  const uint64_t spans_dropped = dropped_spans->Value() - dropped_spans0;

  const amnesia::Table& table = sim->table();
  const Digests live =
      DigestOf(table, sim->cold_store(), sim->summary_store());

  amnesia::CheckpointerStats ckpt;
  if (sim->checkpointer() != nullptr) {
    ckpt = sim->checkpointer()->stats();
  } else {
    ScopedSpan span(&spans, "durability.final_snapshot");
    r.Op(WriteFinalSnapshot(*w, table, sim->cold_store(),
                            sim->summary_store(), &ckpt),
         "final snapshot");
  }
  uint64_t replayed = 0;
  std::vector<double> recover_s;
  {
    ScopedSpan span(&spans, "durability.recover");
    recover_s = TimeRecovery(*w, live, table.lifetime_forgotten(), 3, 0.0,
                             &replayed, &r);
  }
  CheckAudit(*w, table.lifetime_forgotten(), &r);
  const SpanTotals t = Summarize(spans);
  const StageCounts c = sim->counts();
  sim.reset();
  RemoveDir(dir);

  // The untraced run goes second, so a first-run-in-process penalty
  // (cold allocator and page cache) can only inflate trace.overhead.
  const Reference ref = RunUntraced(a, &r);
  r.Check(live == ref.digests,
          "traced run's final table and tiers equal the untraced run's");
  r.Check(pf == ref.pf,
          "traced run's per-batch mean_pf equals the untraced run's");

  auto ms = [&t](const char* name) {
    auto it = t.ms.find(name);
    return it == t.ms.end() ? 0.0 : it->second;
  };
  auto us_q = [&t](const char* name, double q) {
    auto it = t.us.find(name);
    return it == t.us.end() ? 0.0 : Quantile(it->second, q);
  };
  const double coverage = t.batch_ms > 0 ? t.children_ms / t.batch_ms : 0.0;
  r.Check(coverage >= kMinCoverage,
          "trace.coverage " + JsonNumber(coverage) + " >= 0.95");
  const double morsels =
      static_cast<double>(c.query_morsels_scanned + c.query_morsels_skipped);
  const double forgotten_d = static_cast<double>(rows_forgotten);

  r.Metric("workload.ingest_ms", ms("workload.ingest"), "ms");
  r.Metric("workload.query_gen_ms", ms("workload.query_gen"), "ms");
  r.Metric("storage.partitions_sealed", static_cast<double>(sealed), "count");
  r.Metric("storage.partitions_dropped", static_cast<double>(dropped),
           "count");
  r.Metric("storage.mapped_bytes_peak", static_cast<double>(mapped_peak),
           "bytes");
  r.Metric("amnesia.pass_ms", ms("amnesia.pass"), "ms");
  r.Metric("amnesia.vacuum_ms", ms("amnesia.vacuum"), "ms");
  r.Metric("amnesia.rows_forgotten", forgotten_d, "count");
  r.Metric("amnesia.appends_per_forgotten_row",
           forgotten_d > 0 ? static_cast<double>(c.pass_appends +
                                                 c.vacuum_appends) /
                                 forgotten_d
                           : 0.0,
           "ratio");
  r.Metric("amnesia.flushes_per_pass",
           c.passes > 0 ? static_cast<double>(c.pass_flushes) /
                              static_cast<double>(c.passes)
                        : 0.0,
           "ratio");
  r.Metric("durability.journal_ms", ms("durability.journal"), "ms");
  r.Metric("durability.flush_ms", ms("durability.flush"), "ms");
  r.Metric("durability.log_flushes", static_cast<double>(log_flushes),
           "count");
  r.Metric("durability.checkpoint_stall_ms", ms("durability.checkpoint"),
           "ms");
  r.Metric("durability.checkpoint_write_ms", ckpt.write_ms, "ms");
  r.Metric("durability.checkpoint_bytes",
           static_cast<double>(ckpt.bytes_written), "bytes");
  r.Metric("durability.recover_ms", Quantile(recover_s, 0.5) * 1e3, "ms");
  r.Metric("durability.events_replayed", static_cast<double>(replayed),
           "count");
  r.Metric("query.range_us_p50", us_q("query.range", 0.5), "us");
  r.Metric("query.range_us_p99", us_q("query.range", 0.99), "us");
  r.Metric("query.aggregate_us_p50", us_q("query.aggregate", 0.5), "us");
  r.Metric("query.rows_scanned_per_live_row",
           c.query_live_rows > 0
               ? static_cast<double>(c.query_rows_scanned) / c.query_live_rows
               : 0.0,
           "ratio");
  r.Metric("query.morsels_skipped_share",
           morsels > 0 ? static_cast<double>(c.query_morsels_skipped) / morsels
                       : 0.0,
           "ratio");
  r.Metric("query.oracle_ms", ms("query.oracle"), "ms");
  r.Metric("sim.attest_ms", ms("sim.attest"), "ms");
  r.Metric("sim.unattributed_ms", t.batch_ms - t.children_ms, "ms");
  r.Metric("trace.coverage", coverage, "ratio");
  r.Metric("trace.overhead",
           ref.loop_s > 0 ? traced_s / ref.loop_s - 1.0 : 0.0, "ratio");
  r.Metric("obs.dropped_spans", static_cast<double>(spans_dropped), "count");
  HostFacts(a, *w, &r);
  r.Fact("batch_wall_ms", JsonNumber(t.batch_ms));
  r.Fact("traced_loop_s", JsonNumber(traced_s));
  r.Fact("untraced_loop_s", JsonNumber(ref.loop_s));
  if (!a.span_file.empty()) {
    r.Op(spans.WriteChromeTrace(a.span_file), "write span file");
    r.Fact("span_file", a.span_file);
  }
  return r.Print();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s run|recover|trace --workload W --dir D "
                 "[--seed S] [--span-file F] [--tiny]\n"
                 "       recover also takes --table --cold --summary "
                 "digests and --forgotten N\n",
                 argv[0]);
    return 2;
  }
  if (a.mode == "run") return perfbench::RunMode(a);
  if (a.mode == "recover") return perfbench::RecoverMode(a);
  if (a.mode == "trace") return perfbench::TraceMode(a);
  std::fprintf(stderr, "unknown mode '%s'\n", a.mode.c_str());
  return 2;
}
