// Copyright 2026 The AmnesiaDB Authors
//
// Vectorized batch-at-a-time scan kernels. The scalar scan path evaluates
// RangePredicate::Matches per Value cell inside a branchy row loop; these
// kernels instead process one morsel's contiguous column slice at a time:
//
//   1. a branch-free range-predicate kernel fills a per-morsel selection
//      bitmap (one bit per row, auto-vectorizable compares, no per-row
//      branches);
//   2. the selection bitmap is ANDed word-at-a-time against the table's
//      visibility (active) bitmap — all three Visibility modes reduce to
//      AND, no-op, or AND-NOT;
//   3. accumulation kernels fold COUNT (popcount), MIN/MAX/SUM (masked
//      lane arithmetic for dense words, set-bit iteration for sparse
//      words) over the selected lanes, or materialize the selected rows.
//
// A fully-forgotten morsel (live count 0 under kActiveOnly) is skipped
// before any kernel runs — the amnesia-aware fast path: the more a table
// has forgotten, the less of it a scan touches.
//
// Equivalence contract with the scalar kernels (the cross-check oracle):
// ScanRange rows/values, CountRange, and aggregate COUNT/MIN/MAX are
// bit-identical; SUM/AVG/variance agree up to FP reassociation because the
// scalar path folds through Welford accumulation while the kernels sum
// directly.

#ifndef AMNESIA_QUERY_VECTOR_KERNELS_H_
#define AMNESIA_QUERY_VECTOR_KERNELS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/bitmap.h"
#include "common/status.h"
#include "query/predicate.h"
#include "query/result.h"
#include "query/scan.h"
#include "storage/table.h"

namespace amnesia {

/// Returns the number of 64-bit selection words covering `lanes` rows.
inline uint64_t SelectionWordCount(uint64_t lanes) {
  return (lanes + 63) / 64;
}

/// \brief A per-morsel selection bitmap: bit i marks row morsel.begin + i
/// as selected. Backed by a grow-only word buffer so one instance can be
/// reused across every morsel of a scan without reallocating.
class SelectionVector {
 public:
  /// Resizes to `lanes` bits, all clear. Keeps capacity across calls.
  void Reset(uint64_t lanes) {
    lanes_ = lanes;
    words_.assign(SelectionWordCount(lanes), 0);
  }

  /// Returns the number of lanes (rows) covered.
  uint64_t lanes() const { return lanes_; }
  /// Returns the number of backing words.
  uint64_t word_count() const { return words_.size(); }
  /// Mutable word access. Bits past lanes() must stay zero.
  uint64_t* words() { return words_.data(); }
  /// Read-only word access.
  const uint64_t* words() const { return words_.data(); }

  /// Returns true iff lane `i` is selected. Precondition: i < lanes().
  bool Test(uint64_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Returns the number of selected lanes (popcount over the words; tail
  /// bits are zero by construction).
  uint64_t CountSet() const;

 private:
  std::vector<uint64_t> words_;
  uint64_t lanes_ = 0;
};

/// \brief Reusable scratch buffers for one scan thread: the selection
/// bitmap plus the extracted visibility words. The per-morsel kernels take
/// one of these so parallel workers never share state and serial scans
/// never reallocate per morsel.
struct VectorScanContext {
  SelectionVector sel;
  std::vector<uint64_t> visibility_words;
};

// ----------------------------------------------------------- kernels

/// Fills `sel` with the range predicate lo <= v < hi over the `n` values
/// at `data`: branch-free, one unsigned compare per lane (uint64(v) -
/// uint64(lo) < unsigned span), packed 64 lanes per word. An empty range
/// yields an all-clear selection.
void SelectRange(const Value* data, uint64_t n, Value lo, Value hi,
                 SelectionVector* sel);

/// ANDs visibility into `sel` for the rows [first, first + sel->lanes()):
/// kAll is a no-op, kActiveOnly keeps lanes whose `active` bit is set,
/// kForgottenOnly keeps lanes whose bit is clear. `scratch` receives the
/// word-realigned visibility slice.
void ApplyVisibility(const Bitmap& active, RowId first, Visibility visibility,
                     SelectionVector* sel, std::vector<uint64_t>* scratch);

/// Returns the number of live (active) rows in [morsel.begin, morsel.end)
/// — the skip check run before any kernel: 0 under kActiveOnly (or
/// morsel.size() under kForgottenOnly) means no kernel needs to run.
uint64_t MorselLiveCount(const Table& table, Morsel morsel);

/// The wholesale-skip rule, the one copy every skip decision calls: a
/// morsel of `size` rows holding `live` active rows contributes nothing
/// when live == 0 under kActiveOnly or live == size under kForgottenOnly
/// (never under kAll). The vectorized kernels skip such a morsel before
/// any kernel runs; the scalar engine never skips.
inline bool MorselSkippable(Visibility visibility, uint64_t live,
                            uint64_t size) {
  return (visibility == Visibility::kActiveOnly && live == 0) ||
         (visibility == Visibility::kForgottenOnly && live == size);
}

/// \brief Aggregate accumulator of the vectorized kernels: direct
/// count/sum/sum-of-squares plus integer-domain extrema. Associative, so
/// per-morsel partials merge in morsel order exactly like RunningStats.
/// MIN/MAX finish bit-identical to the scalar path (int64 -> double is
/// monotonic); SUM/AVG/variance differ from Welford only by FP
/// reassociation.
struct VectorAggState {
  uint64_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  Value min = std::numeric_limits<Value>::max();
  Value max = std::numeric_limits<Value>::min();

  /// Folds another partial into this one (morsel-order merge).
  void Merge(const VectorAggState& other);

  /// Converts to the public aggregate shape; empty input yields the same
  /// +inf/-inf extrema as an empty RunningStats.
  AggregateResult Finish() const;
};

/// Accumulates COUNT/SUM/MIN/MAX/sum-of-squares over the selected lanes of
/// `data` into `agg`: all-ones words take a dense unmasked lane loop
/// (auto-vectorizable), sparse words iterate set bits, all-zero words are
/// skipped.
void AccumulateSelected(const Value* data, const SelectionVector& sel,
                        VectorAggState* agg);

/// Appends the selected rows to `out`: RowId first + lane for the row ids,
/// data[lane] for the values, in ascending lane order.
void EmitSelected(const Value* data, const SelectionVector& sel, RowId first,
                  ResultSet* out);

/// Computes a whole unmasked value vector's aggregates with the dense
/// lane kernel — the executor's vectorized fold for index-plan results.
VectorAggState AggregateValues(const std::vector<Value>& values);

// ------------------------------------------------- per-morsel operators

/// Runs the full selection pipeline (skip check, predicate kernel,
/// visibility AND) for one morsel into ctx->sel. Returns false when the
/// morsel was skipped wholesale (ctx->sel is left empty: zero lanes).
bool SelectMorsel(const Table& table, const RangePredicate& pred,
                  Visibility visibility, Morsel morsel,
                  VectorScanContext* ctx);

/// Vectorized per-morsel COUNT: selection pipeline + popcount.
uint64_t CountMorselVectorized(const Table& table, const RangePredicate& pred,
                               Visibility visibility, Morsel morsel,
                               VectorScanContext* ctx);

/// Vectorized per-morsel scan: appends matching rows to `out` in
/// ascending RowId order (bit-identical to the scalar morsel kernel).
void ScanMorselVectorized(const Table& table, const RangePredicate& pred,
                          Visibility visibility, Morsel morsel,
                          VectorScanContext* ctx, ResultSet* out);

/// Vectorized per-morsel aggregation over the selected lanes.
VectorAggState AggregateMorselVectorized(const Table& table,
                                         const RangePredicate& pred,
                                         Visibility visibility, Morsel morsel,
                                         VectorScanContext* ctx);

/// Returns this thread's reusable scan context (thread-local, so the
/// morsel-parallel workers each get their own buffers).
VectorScanContext& ThreadLocalScanContext();

// ------------------------------------------------- conjunction plans

/// \brief A conjunction of range predicates, each over its own column —
/// the multi-predicate plan shape: per-predicate selection bitmaps ANDed
/// per morsel, with an early exit as soon as a morsel's selection drains
/// to empty.
struct ConjunctionPlan {
  std::vector<RangePredicate> preds;

  /// Returns InvalidArgument when any predicate names a column the table
  /// does not have.
  Status Validate(const Table& table) const;

  /// Scalar reference semantics: true when `row` satisfies every
  /// predicate (vacuously true for an empty plan).
  bool Matches(const Table& table, RowId row) const {
    for (const RangePredicate& p : preds) {
      if (!p.Matches(table.value(p.col, row))) return false;
    }
    return true;
  }
};

/// Selection pipeline for a conjunction over one morsel: evaluates the
/// first predicate into ctx->sel, ANDs each further predicate's bitmap,
/// then ANDs visibility. Returns false when the morsel was skipped or the
/// selection drained to empty before visibility.
bool SelectConjunctionMorsel(const Table& table, const ConjunctionPlan& plan,
                             Visibility visibility, Morsel morsel,
                             VectorScanContext* ctx);

/// Scans the table for rows satisfying every predicate of `plan` under
/// `visibility`. Engine::kScalar runs the row-at-a-time reference loop
/// (the cross-check oracle); Engine::kVectorized runs the batched
/// bitmap-AND pipeline. Both return ascending RowIds with the values of
/// the FIRST predicate's column (an empty plan selects every visible row
/// of column 0).
StatusOr<ResultSet> ScanConjunction(const Table& table,
                                    const ConjunctionPlan& plan,
                                    Visibility visibility,
                                    Engine engine = Engine::kVectorized);

/// Counts rows satisfying every predicate of `plan` under `visibility`.
StatusOr<uint64_t> CountConjunction(const Table& table,
                                    const ConjunctionPlan& plan,
                                    Visibility visibility,
                                    Engine engine = Engine::kVectorized);

/// Aggregates the first predicate's column over rows satisfying every
/// predicate of `plan` under `visibility` (column 0 for an empty plan).
StatusOr<AggregateResult> AggregateConjunction(
    const Table& table, const ConjunctionPlan& plan, Visibility visibility,
    Engine engine = Engine::kVectorized);

}  // namespace amnesia

#endif  // AMNESIA_QUERY_VECTOR_KERNELS_H_
