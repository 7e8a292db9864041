// Copyright 2026 The AmnesiaDB Authors

#include "query/vector_kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "obs/engine_metrics.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#endif

namespace amnesia {

namespace {

// Per-morsel metric notes. One relaxed increment pair per ~64K-row morsel
// — invisible next to the kernel work it brackets. Compiled out entirely
// under AMNESIA_NO_METRICS (not even the registry lookup remains).
inline void NoteMorselScanned(uint64_t rows) {
#if !defined(AMNESIA_NO_METRICS)
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  m.scan_morsels_scanned->Inc();
  m.scan_rows_scanned->Inc(rows);
#else
  (void)rows;
#endif
}

inline void NoteMorselSkipped() {
#if !defined(AMNESIA_NO_METRICS)
  obs::EngineMetrics::Get().scan_morsels_skipped->Inc();
#endif
}

constexpr uint64_t kAllOnes = ~uint64_t{0};

// Lanes packed per selection word; the dense/sparse dispatch unit.
constexpr uint64_t kLanesPerWord = 64;

inline uint64_t PopCount(uint64_t word) {
  return static_cast<uint64_t>(__builtin_popcountll(word));
}

// Evaluates the one-compare range test over 64 lanes and packs the results
// into one selection word. Two stages keep it branch-free AND fast: the
// compare loop stores 0/1 bytes (auto-vectorizable, no cross-lane
// dependency), then each 8-byte chunk collapses to 8 bits with the
// multiply-pack trick ((chunk * 0x0102040810204080) >> 56 places byte g's
// 0/1 at bit g; bytes are 0/1 so the partial products never carry). A
// single `word |= cond << b` loop would instead serialize 64 variable
// shifts through one accumulator — ~4x slower.
inline uint64_t PackSelectWord(const Value* lanes, uint64_t ulo,
                               uint64_t span) {
  uint8_t m[kLanesPerWord];
  for (uint64_t b = 0; b < kLanesPerWord; ++b) {
    m[b] = static_cast<uint8_t>(static_cast<uint64_t>(lanes[b]) - ulo < span);
  }
  uint64_t word = 0;
  for (uint64_t g = 0; g < 8; ++g) {
    uint64_t chunk;
    std::memcpy(&chunk, m + g * 8, sizeof(chunk));
    word |= ((chunk * 0x0102040810204080ull) >> 56) << (g * 8);
  }
  return word;
}

// Dense unmasked accumulation over one full word's 64 lanes: no mask
// reads, so the compiler vectorizes the sum/extrema reductions.
inline void AccumulateDense64(const Value* lanes, VectorAggState* agg) {
  double sum = 0.0;
  double sum_sq = 0.0;
  Value lo = lanes[0];
  Value hi = lanes[0];
  for (uint64_t b = 0; b < kLanesPerWord; ++b) {
    const Value v = lanes[b];
    const double dv = static_cast<double>(v);
    sum += dv;
    sum_sq += dv * dv;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  agg->count += kLanesPerWord;
  agg->sum += sum;
  agg->sum_sq += sum_sq;
  agg->min = std::min(agg->min, lo);
  agg->max = std::max(agg->max, hi);
}

// Sparse accumulation: set-bit iteration touches only selected lanes.
inline void AccumulateSparse(const Value* lanes, uint64_t word,
                             VectorAggState* agg) {
  while (word != 0) {
    const uint64_t b = static_cast<uint64_t>(__builtin_ctzll(word));
    const Value v = lanes[b];
    const double dv = static_cast<double>(v);
    agg->sum += dv;
    agg->sum_sq += dv * dv;
    agg->min = std::min(agg->min, v);
    agg->max = std::max(agg->max, v);
    ++agg->count;
    word &= word - 1;
  }
}

// Fused select+accumulate over [data, data+n): evaluates the range test
// word-at-a-time, ANDs the pre-extracted visibility words (`vis` null for
// kAll, `invert` for kForgottenOnly) and accumulates the surviving lanes
// while they are still hot in registers/L1 — the aggregate never
// materializes a selection bitmap or re-reads the column slice.
#if defined(__AVX512F__) && defined(__AVX512DQ__)
// AVX-512 form: the visibility word doubles as the lane write-mask, so the
// predicate compare (vpcmpuq), the sum/sum-of-squares FMAs and the
// int64-domain extrema (vpminsq/vpmaxsq) are all single masked
// instructions per 8 lanes — no bit unpacking, no per-selected-lane
// scatter/gather. Lane-parallel partial sums reassociate the additions
// (callers tolerate that for sum/avg/variance); count/min/max stay exact.
// GCC's masked-intrinsic wrappers feed _mm512_undefined_* merge sources
// to the builtins, which trips -Wmaybe-uninitialized false positives once
// inlined here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
void FusedAggregateRange(const Value* data, uint64_t n, uint64_t ulo,
                         uint64_t span, const uint64_t* vis, bool invert,
                         VectorAggState* agg) {
  const __m512i vlo = _mm512_set1_epi64(static_cast<long long>(ulo));
  const __m512i vspan = _mm512_set1_epi64(static_cast<long long>(span));
  __m512d vsum = _mm512_setzero_pd();
  __m512d vsq = _mm512_setzero_pd();
  __m512i vmin = _mm512_set1_epi64(std::numeric_limits<Value>::max());
  __m512i vmax = _mm512_set1_epi64(std::numeric_limits<Value>::min());
  uint64_t count = 0;
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    uint64_t visw = kAllOnes;
    if (vis != nullptr) visw = invert ? ~vis[w] : vis[w];
    if (visw == 0) continue;
    const Value* lanes = data + w * kLanesPerWord;
    for (uint64_t g = 0; g < 8; ++g) {
      const __mmask8 kvis = static_cast<__mmask8>(visw >> (g * 8));
      if (kvis == 0) continue;
      const __m512i v = _mm512_loadu_si512(lanes + g * 8);
      const __mmask8 k = _mm512_mask_cmplt_epu64_mask(
          kvis, _mm512_sub_epi64(v, vlo), vspan);
      // No k == 0 early-out: at mid selectivities that branch is
      // unpredictable and the mispredicts cost more than the masked
      // accumulation ops, which are no-ops under an all-zero mask anyway.
      count += PopCount(k);
      const __m512d vd = _mm512_cvtepi64_pd(v);
      vsum = _mm512_mask_add_pd(vsum, k, vsum, vd);
      vsq = _mm512_mask3_fmadd_pd(vd, vd, vsq, k);
      vmin = _mm512_mask_min_epi64(vmin, k, vmin, v);
      vmax = _mm512_mask_max_epi64(vmax, k, vmax, v);
    }
  }
  agg->count += count;
  agg->sum += _mm512_reduce_add_pd(vsum);
  agg->sum_sq += _mm512_reduce_add_pd(vsq);
  agg->min = std::min(agg->min,
                      static_cast<Value>(_mm512_reduce_min_epi64(vmin)));
  agg->max = std::max(agg->max,
                      static_cast<Value>(_mm512_reduce_max_epi64(vmax)));
  const uint64_t rem = n - full * kLanesPerWord;
  if (rem != 0) {
    const Value* lanes = data + full * kLanesPerWord;
    uint64_t word = 0;
    for (uint64_t b = 0; b < rem; ++b) {
      word |= static_cast<uint64_t>(
                  static_cast<uint64_t>(lanes[b]) - ulo < span)
              << b;
    }
    // Only bits below rem are set, so the inverted visibility word's
    // stray tail ones cannot leak in.
    if (vis != nullptr) word &= invert ? ~vis[full] : vis[full];
    AccumulateSparse(lanes, word, agg);
  }
}
#pragma GCC diagnostic pop
#else
void FusedAggregateRange(const Value* data, uint64_t n, uint64_t ulo,
                         uint64_t span, const uint64_t* vis, bool invert,
                         VectorAggState* agg) {
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    const Value* lanes = data + w * kLanesPerWord;
    uint64_t word = PackSelectWord(lanes, ulo, span);
    if (vis != nullptr) word &= invert ? ~vis[w] : vis[w];
    if (word == 0) continue;
    if (word == kAllOnes) {
      AccumulateDense64(lanes, agg);
    } else {
      AccumulateSparse(lanes, word, agg);
    }
  }
  const uint64_t rem = n - full * kLanesPerWord;
  if (rem != 0) {
    const Value* lanes = data + full * kLanesPerWord;
    uint64_t word = 0;
    for (uint64_t b = 0; b < rem; ++b) {
      word |= static_cast<uint64_t>(
                  static_cast<uint64_t>(lanes[b]) - ulo < span)
              << b;
    }
    // Only bits below rem are set, so the inverted visibility word's
    // stray tail ones cannot leak in.
    if (vis != nullptr) word &= invert ? ~vis[full] : vis[full];
    AccumulateSparse(lanes, word, agg);
  }
}
#endif

// Fused select+popcount over [data, data+n): same structure as
// FusedAggregateRange but the only accumulator is the match count, so no
// selection bitmap is ever written back to memory.
uint64_t FusedCountRange(const Value* data, uint64_t n, uint64_t ulo,
                         uint64_t span, const uint64_t* vis, bool invert) {
  uint64_t count = 0;
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    uint64_t visw = kAllOnes;
    if (vis != nullptr) visw = invert ? ~vis[w] : vis[w];
    if (visw == 0) continue;
    const Value* lanes = data + w * kLanesPerWord;
#if defined(__AVX512F__) && defined(__AVX512DQ__)
    const __m512i vlo = _mm512_set1_epi64(static_cast<long long>(ulo));
    const __m512i vspan = _mm512_set1_epi64(static_cast<long long>(span));
    uint64_t word = 0;
    for (uint64_t g = 0; g < 8; ++g) {
      const __mmask8 kvis = static_cast<__mmask8>(visw >> (g * 8));
      const __m512i v = _mm512_loadu_si512(lanes + g * 8);
      const __mmask8 k = _mm512_mask_cmplt_epu64_mask(
          kvis, _mm512_sub_epi64(v, vlo), vspan);
      word |= static_cast<uint64_t>(k) << (g * 8);
    }
    count += PopCount(word);
#else
    count += PopCount(PackSelectWord(lanes, ulo, span) & visw);
#endif
  }
  const uint64_t rem = n - full * kLanesPerWord;
  if (rem != 0) {
    const Value* lanes = data + full * kLanesPerWord;
    uint64_t word = 0;
    for (uint64_t b = 0; b < rem; ++b) {
      word |= static_cast<uint64_t>(
                  static_cast<uint64_t>(lanes[b]) - ulo < span)
              << b;
    }
    if (vis != nullptr) word &= invert ? ~vis[full] : vis[full];
    count += PopCount(word);
  }
  return count;
}

// ANDs the second predicate's bitmap for [data, data+n) into sel's words
// without materializing a second SelectionVector: evaluates 64 lanes into
// a local word, then sel_word &= word.
void AndSelectRange(const Value* data, uint64_t n, Value lo, Value hi,
                    uint64_t* sel_words) {
  if (lo >= hi) {
    const uint64_t words = SelectionWordCount(n);
    for (uint64_t w = 0; w < words; ++w) sel_words[w] = 0;
    return;
  }
  const uint64_t ulo = static_cast<uint64_t>(lo);
  const uint64_t span = static_cast<uint64_t>(hi) - ulo;
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    sel_words[w] &= PackSelectWord(data + w * kLanesPerWord, ulo, span);
  }
  if (full * kLanesPerWord < n) {
    uint64_t tail = 0;
    for (uint64_t i = full * kLanesPerWord; i < n; ++i) {
      tail |= static_cast<uint64_t>(
                  static_cast<uint64_t>(data[i]) - ulo < span)
              << (i & 63);
    }
    sel_words[full] &= tail;
  }
}

}  // namespace

uint64_t SelectionVector::CountSet() const {
  uint64_t count = 0;
  for (uint64_t w : words_) count += PopCount(w);
  return count;
}

void SelectRange(const Value* data, uint64_t n, Value lo, Value hi,
                 SelectionVector* sel) {
  sel->Reset(n);
  if (lo >= hi || n == 0) return;
  uint64_t* words = sel->words();
  // One-compare range test: lo <= v < hi iff uint64(v) - uint64(lo) <
  // uint64(hi) - uint64(lo). The subtractions wrap (well-defined in the
  // unsigned domain) and the equivalence holds across the full signed
  // domain, including lo = Value::min() / hi = Value::max().
  const uint64_t ulo = static_cast<uint64_t>(lo);
  const uint64_t span = static_cast<uint64_t>(hi) - ulo;
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    words[w] = PackSelectWord(data + w * kLanesPerWord, ulo, span);
  }
  for (uint64_t i = full * kLanesPerWord; i < n; ++i) {
    words[i >> 6] |= static_cast<uint64_t>(
                         static_cast<uint64_t>(data[i]) - ulo < span)
                     << (i & 63);
  }
}

void ApplyVisibility(const Bitmap& active, RowId first, Visibility visibility,
                     SelectionVector* sel, std::vector<uint64_t>* scratch) {
  if (visibility == Visibility::kAll || sel->lanes() == 0) return;
  scratch->resize(sel->word_count());
  active.ExtractWords(first, first + sel->lanes(), scratch->data());
  uint64_t* words = sel->words();
  const uint64_t* vis = scratch->data();
  const uint64_t n = sel->word_count();
  if (visibility == Visibility::kActiveOnly) {
    for (uint64_t w = 0; w < n; ++w) words[w] &= vis[w];
  } else {
    // kForgottenOnly: selection tail bits are already zero, so the
    // complement's stray tail ones cannot leak in.
    for (uint64_t w = 0; w < n; ++w) words[w] &= ~vis[w];
  }
}

uint64_t MorselLiveCount(const Table& table, Morsel morsel) {
  return table.active_bitmap().CountSetRange(morsel.begin, morsel.end);
}

void VectorAggState::Merge(const VectorAggState& other) {
  count += other.count;
  sum += other.sum;
  sum_sq += other.sum_sq;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

AggregateResult VectorAggState::Finish() const {
  AggregateResult out;
  out.count = count;
  out.sum = sum;
  if (count == 0) {
    // Match ToAggregateResult over an empty RunningStats bit for bit.
    out.min = std::numeric_limits<double>::infinity();
    out.max = -std::numeric_limits<double>::infinity();
    return out;
  }
  const double n = static_cast<double>(count);
  out.avg = sum / n;
  // int64 -> double rounding is monotonic, so taking extrema in the
  // integer domain first yields exactly the scalar path's double extrema.
  out.min = static_cast<double>(min);
  out.max = static_cast<double>(max);
  if (count >= 2) {
    const double var = sum_sq / n - out.avg * out.avg;
    out.variance = var > 0.0 ? var : 0.0;
  }
  return out;
}

void AccumulateSelected(const Value* data, const SelectionVector& sel,
                        VectorAggState* agg) {
  const uint64_t* words = sel.words();
  const uint64_t word_count = sel.word_count();
  for (uint64_t w = 0; w < word_count; ++w) {
    const uint64_t word = words[w];
    if (word == 0) continue;
    const Value* lanes = data + w * kLanesPerWord;
    if (word == kAllOnes) {
      AccumulateDense64(lanes, agg);
    } else {
      AccumulateSparse(lanes, word, agg);
    }
  }
}

void EmitSelected(const Value* data, const SelectionVector& sel, RowId first,
                  ResultSet* out) {
  const uint64_t* words = sel.words();
  const uint64_t word_count = sel.word_count();
  // One popcount pass sizes the output, so the appends below never regrow.
  // Capacity at least doubles, so a result that collects many morsels
  // still grows geometrically instead of reallocating once per morsel.
  size_t selected = 0;
  for (uint64_t w = 0; w < word_count; ++w) {
    selected += static_cast<size_t>(__builtin_popcountll(words[w]));
  }
  const size_t need = out->rows.size() + selected;
  if (need > out->rows.capacity()) {
    const size_t capacity = std::max(need, 2 * out->rows.capacity());
    out->rows.reserve(capacity);
    out->values.reserve(capacity);
  }
  for (uint64_t w = 0; w < word_count; ++w) {
    uint64_t word = words[w];
    const uint64_t lane_base = w * kLanesPerWord;
    while (word != 0) {
      const uint64_t lane =
          lane_base + static_cast<uint64_t>(__builtin_ctzll(word));
      out->rows.push_back(first + lane);
      out->values.push_back(data[lane]);
      word &= word - 1;
    }
  }
}

VectorAggState AggregateValues(const std::vector<Value>& values) {
  VectorAggState agg;
  const uint64_t n = values.size();
  const Value* data = values.data();
  const uint64_t full = n / kLanesPerWord;
  for (uint64_t w = 0; w < full; ++w) {
    AccumulateDense64(data + w * kLanesPerWord, &agg);
  }
  for (uint64_t i = full * kLanesPerWord; i < n; ++i) {
    const Value v = data[i];
    const double dv = static_cast<double>(v);
    agg.sum += dv;
    agg.sum_sq += dv * dv;
    agg.min = std::min(agg.min, v);
    agg.max = std::max(agg.max, v);
    ++agg.count;
  }
  return agg;
}

namespace {

// Applies the wholesale-skip rule to one morsel before any kernel runs and
// notes the outcome. Returns false when the morsel is skipped.
bool EnterMorsel(const Table& table, Visibility visibility, Morsel morsel) {
  if (visibility != Visibility::kAll &&
      MorselSkippable(visibility, MorselLiveCount(table, morsel),
                      morsel.size())) {
    NoteMorselSkipped();
    return false;
  }
  NoteMorselScanned(morsel.size());
  return true;
}

// Extracts the morsel's visibility words for the fused kernels; nullptr
// under kAll (no visibility filter).
const uint64_t* MorselVisibilityWords(const Table& table,
                                      Visibility visibility, Morsel morsel,
                                      VectorScanContext* ctx) {
  if (visibility == Visibility::kAll) return nullptr;
  ctx->visibility_words.resize(SelectionWordCount(morsel.size()));
  table.active_bitmap().ExtractWords(morsel.begin, morsel.end,
                                     ctx->visibility_words.data());
  return ctx->visibility_words.data();
}

}  // namespace

bool SelectMorsel(const Table& table, const RangePredicate& pred,
                  Visibility visibility, Morsel morsel,
                  VectorScanContext* ctx) {
  if (!EnterMorsel(table, visibility, morsel)) {
    ctx->sel.Reset(0);
    return false;
  }
  const ValueSpan slice =
      table.column(pred.col).span(morsel.begin, morsel.end);
  SelectRange(slice.data, slice.size, pred.lo, pred.hi, &ctx->sel);
  ApplyVisibility(table.active_bitmap(), morsel.begin, visibility, &ctx->sel,
                  &ctx->visibility_words);
  return true;
}

uint64_t CountMorselVectorized(const Table& table, const RangePredicate& pred,
                               Visibility visibility, Morsel morsel,
                               VectorScanContext* ctx) {
  if (pred.Empty() || morsel.size() == 0) return 0;
  if (!EnterMorsel(table, visibility, morsel)) return 0;
  const ValueSpan slice = table.column(pred.col).span(morsel.begin, morsel.end);
  const uint64_t* vis = MorselVisibilityWords(table, visibility, morsel, ctx);
  return FusedCountRange(slice.data, slice.size,
                         static_cast<uint64_t>(pred.lo), pred.UnsignedSpan(),
                         vis, visibility == Visibility::kForgottenOnly);
}

void ScanMorselVectorized(const Table& table, const RangePredicate& pred,
                          Visibility visibility, Morsel morsel,
                          VectorScanContext* ctx, ResultSet* out) {
  if (!SelectMorsel(table, pred, visibility, morsel, ctx)) return;
  EmitSelected(table.column(pred.col).span(morsel.begin, morsel.end).data,
               ctx->sel, morsel.begin, out);
}

VectorAggState AggregateMorselVectorized(const Table& table,
                                         const RangePredicate& pred,
                                         Visibility visibility, Morsel morsel,
                                         VectorScanContext* ctx) {
  VectorAggState agg;
  if (pred.Empty() || morsel.size() == 0) return agg;
  if (!EnterMorsel(table, visibility, morsel)) return agg;
  const ValueSpan slice = table.column(pred.col).span(morsel.begin, morsel.end);
  const uint64_t* vis = MorselVisibilityWords(table, visibility, morsel, ctx);
  FusedAggregateRange(slice.data, slice.size, static_cast<uint64_t>(pred.lo),
                      pred.UnsignedSpan(), vis,
                      visibility == Visibility::kForgottenOnly, &agg);
  return agg;
}

VectorScanContext& ThreadLocalScanContext() {
  thread_local VectorScanContext ctx;
  return ctx;
}

Status ConjunctionPlan::Validate(const Table& table) const {
  for (const RangePredicate& p : preds) {
    if (p.col >= table.num_columns()) {
      return Status::InvalidArgument("conjunction column out of range");
    }
  }
  return Status::OK();
}

bool SelectConjunctionMorsel(const Table& table, const ConjunctionPlan& plan,
                             Visibility visibility, Morsel morsel,
                             VectorScanContext* ctx) {
  if (plan.preds.empty()) {
    // Vacuous conjunction: every row matches; only visibility filters.
    ctx->sel.Reset(morsel.size());
    uint64_t* words = ctx->sel.words();
    for (uint64_t w = 0; w < ctx->sel.word_count(); ++w) words[w] = kAllOnes;
    const uint64_t rem = morsel.size() & 63;
    if (rem != 0) {
      words[ctx->sel.word_count() - 1] = (uint64_t{1} << rem) - 1;
    }
    ApplyVisibility(table.active_bitmap(), morsel.begin, visibility,
                    &ctx->sel, &ctx->visibility_words);
    NoteMorselScanned(morsel.size());
    return true;
  }
  if (!SelectMorsel(table, plan.preds[0], visibility, morsel, ctx)) {
    return false;
  }
  for (size_t p = 1; p < plan.preds.size(); ++p) {
    // Early exit: once the selection drains, further predicates (and the
    // accumulation) cannot add anything back.
    if (ctx->sel.CountSet() == 0) return false;
    const RangePredicate& pred = plan.preds[p];
    const ValueSpan slice =
        table.column(pred.col).span(morsel.begin, morsel.end);
    AndSelectRange(slice.data, slice.size, pred.lo, pred.hi,
                   ctx->sel.words());
  }
  return true;
}

namespace {

// Column whose values a conjunction scan/aggregate materializes.
size_t ConjunctionValueCol(const ConjunctionPlan& plan) {
  return plan.preds.empty() ? 0 : plan.preds[0].col;
}

inline bool VisibleRow(const Table& table, RowId row, Visibility visibility) {
  switch (visibility) {
    case Visibility::kActiveOnly:
      return table.IsActive(row);
    case Visibility::kAll:
      return true;
    case Visibility::kForgottenOnly:
      return !table.IsActive(row);
  }
  return false;
}

// Operator-level engine counter, mirroring NoteOp in query/scan.cc for the
// conjunction entry points. The scalar branch additionally notes its rows
// here (it is a single whole-table pass, not a morsel kernel).
inline void NoteConjunctionOp(Engine engine) {
#if !defined(AMNESIA_NO_METRICS)
  obs::EngineMetrics& m = obs::EngineMetrics::Get();
  (engine == Engine::kVectorized ? m.scan_ops_vectorized : m.scan_ops_scalar)
      ->Inc();
#else
  (void)engine;
#endif
}

}  // namespace

StatusOr<ResultSet> ScanConjunction(const Table& table,
                                    const ConjunctionPlan& plan,
                                    Visibility visibility, Engine engine) {
  AMNESIA_RETURN_NOT_OK(plan.Validate(table));
  NoteConjunctionOp(engine);
  const size_t value_col = ConjunctionValueCol(plan);
  ResultSet out;
  if (engine == Engine::kScalar) {
    NoteMorselScanned(table.num_rows());
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (!plan.Matches(table, r)) continue;
      if (!VisibleRow(table, r, visibility)) continue;
      out.rows.push_back(r);
      out.values.push_back(table.value(value_col, r));
    }
    return out;
  }
  VectorScanContext& ctx = ThreadLocalScanContext();
  for (Morsel m : table.Morsels()) {
    if (!SelectConjunctionMorsel(table, plan, visibility, m, &ctx)) continue;
    EmitSelected(table.column(value_col).span(m.begin, m.end).data, ctx.sel,
                 m.begin, &out);
  }
  return out;
}

StatusOr<uint64_t> CountConjunction(const Table& table,
                                    const ConjunctionPlan& plan,
                                    Visibility visibility, Engine engine) {
  AMNESIA_RETURN_NOT_OK(plan.Validate(table));
  NoteConjunctionOp(engine);
  if (engine == Engine::kScalar) {
    NoteMorselScanned(table.num_rows());
    uint64_t count = 0;
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (plan.Matches(table, r) && VisibleRow(table, r, visibility)) ++count;
    }
    return count;
  }
  VectorScanContext& ctx = ThreadLocalScanContext();
  uint64_t count = 0;
  for (Morsel m : table.Morsels()) {
    if (!SelectConjunctionMorsel(table, plan, visibility, m, &ctx)) continue;
    count += ctx.sel.CountSet();
  }
  return count;
}

StatusOr<AggregateResult> AggregateConjunction(const Table& table,
                                               const ConjunctionPlan& plan,
                                               Visibility visibility,
                                               Engine engine) {
  AMNESIA_RETURN_NOT_OK(plan.Validate(table));
  NoteConjunctionOp(engine);
  const size_t value_col = ConjunctionValueCol(plan);
  if (engine == Engine::kScalar) {
    NoteMorselScanned(table.num_rows());
    RunningStats stats;
    for (RowId r = 0; r < table.num_rows(); ++r) {
      if (plan.Matches(table, r) && VisibleRow(table, r, visibility)) {
        stats.Add(static_cast<double>(table.value(value_col, r)));
      }
    }
    return ToAggregateResult(stats);
  }
  VectorScanContext& ctx = ThreadLocalScanContext();
  VectorAggState agg;
  for (Morsel m : table.Morsels()) {
    if (!SelectConjunctionMorsel(table, plan, visibility, m, &ctx)) continue;
    AccumulateSelected(table.column(value_col).span(m.begin, m.end).data,
                       ctx.sel, &agg);
  }
  return agg.Finish();
}

}  // namespace amnesia
