#ifndef CROSSMINE_CORE_LITERAL_SEARCH_H_
#define CROSSMINE_CORE_LITERAL_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "core/idset_store.h"
#include "core/literal.h"
#include "core/options.h"
#include "relational/database.h"

namespace crossmine {

/// A scored constraint candidate produced by the literal search.
struct CandidateLiteral {
  Constraint constraint;
  double gain = -1.0;
  /// P(c+l) / N(c+l): distinct alive positive / negative targets covered.
  uint32_t pos_cov = 0;
  uint32_t neg_cov = 0;

  bool valid() const { return gain >= 0.0; }
};

/// Finds the best constraint within one relation given propagated tuple IDs
/// (§5.1). Scans each attribute once:
///  * categorical attributes: one distinct-target count per category value;
///  * numerical attributes: ascending sweep for `<= v` literals, descending
///    sweep for `>= v` literals, over the cached sorted index;
///  * aggregation literals: per-target count/sum/avg statistics, then the
///    same two-direction sweep over the aggregated values.
///
/// Counting is *distinct-target* counting (the §4.3 pitfall): a target tuple
/// joinable with many satisfying tuples is counted once. Two interchangeable
/// engines produce the counts:
///
///  * the scalar engine: epoch-stamped marker arrays, no per-candidate
///    allocation (always used when `opts.use_bitmap_index` is off);
///  * the bitmap engine: the relation's cached `AttrIndex` posting lists and
///    the `bitmap_ops` AND+popcount kernel — a candidate's covered-target
///    set is built as a dense bitmap union and its pos/neg counts are
///    `popcount(union ∧ alive_pos)` / `popcount(union ∧ alive_neg)`.
///    Values with sparse postings (no bitmap-kind idset and summed
///    cardinality below break-even) keep the scalar engine per value.
///
/// Both engines count the same distinct targets and offer candidates in the
/// same order, so the chosen literal — and the trained model — is
/// byte-identical either way.
///
/// The searcher owns scratch buffers sized to the number of target tuples;
/// reuse one instance across calls. Instances are cache-line aligned: the
/// clause search keeps one per pool lane side by side, and `Offer` writes
/// `offered_` for every candidate.
class alignas(64) LiteralSearcher {
 public:
  /// `positive` flags each target tuple of the positive class; it must
  /// outlive the searcher.
  LiteralSearcher(const Database* db, const std::vector<uint8_t>* positive);

  /// Sets the clause context: `alive` masks targets satisfying the current
  /// clause (and surviving sampling); `pos`/`neg` are P(c), N(c).
  void SetContext(const std::vector<uint8_t>* alive, uint32_t pos,
                  uint32_t neg);

  /// Attaches a metrics registry (borrowed; null detaches). `ScanUnit`
  /// then accumulates scan wall time into `train.phase.literal_search_seconds`,
  /// one `train.literals_scored` tick per candidate offered to the gain
  /// comparison, and one `train.index.hits` tick per counting served by
  /// the bitmap engine (per categorical value, per numerical attribute
  /// sweep pair). Counting never alters which literal wins.
  void set_metrics(MetricsRegistry* metrics);

  /// The unit `ScanUnit` scans for all aggregation literals of a relation.
  static constexpr AttrId kAggregationUnit = kInvalidAttr;

  /// Appends to `units` the scan units of `rel` under `opts`, in the order
  /// `FindBest` offers their candidates: every categorical attribute, every
  /// numerical attribute (with numerical literals on), then
  /// `kAggregationUnit` (with aggregation literals on). Key attributes
  /// yield no unit. No unit reads another's result, so units of one
  /// relation may run on different searchers in any order.
  static void ScanUnits(const Relation& rel, const CrossMineOptions& opts,
                        std::vector<AttrId>* units);

  /// Best constraint of one scan unit (an attribute, or `kAggregationUnit`)
  /// of `rel` given `idsets`. Reducing the units' results in `ScanUnits`
  /// order, keeping a later one only when its gain is strictly greater,
  /// yields exactly `FindBest`'s result.
  CandidateLiteral ScanUnit(RelId rel, AttrId unit, const IdSetStore& idsets,
                            const CrossMineOptions& opts,
                            bool identity_idsets = false);

  /// Best constraint on `rel` given `idsets` (parallel to rel's tuples):
  /// every scan unit in order, reduced as above.
  /// `identity_idsets` asserts the caller-known invariant
  /// `idset(t) = {t} iff alive[t]` (the clause's node-0 store): the bitmap
  /// engine then counts straight off the AttrIndex postings without
  /// touching the store. Purely an optimization hint — counts are the same
  /// with it off.
  CandidateLiteral FindBest(RelId rel, const IdSetStore& idsets,
                            const CrossMineOptions& opts,
                            bool identity_idsets = false);

 private:
  void SearchCategorical(const Relation& rel, AttrId attr,
                         const IdSetStore& idsets, CandidateLiteral* best);
  void SearchCategoricalIndexed(const Relation& rel, AttrId attr,
                                const IdSetStore& idsets,
                                CandidateLiteral* best);
  void SearchNumerical(const Relation& rel, AttrId attr,
                       const IdSetStore& idsets, CandidateLiteral* best);
  void SearchAggregations(const Relation& rel, const IdSetStore& idsets,
                          CandidateLiteral* best);

  /// Sweeps entries (sorted ascending by value) in both directions, offering
  /// `<=`/`>=` candidates at distinct-value boundaries.
  void SweepSortedTargets(const std::vector<std::pair<double, TupleId>>& entries,
                          AggOp agg, AttrId attr, CandidateLiteral* best);

  void Offer(CandidateLiteral* best, const Constraint& c, uint32_t pos_cov,
             uint32_t neg_cov) const;

  uint32_t NewEpoch();

  const Database* db_;
  const std::vector<uint8_t>* positive_;
  const std::vector<uint8_t>* alive_ = nullptr;
  uint32_t pos_ = 0, neg_ = 0;

  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> agg_count_;
  std::vector<double> agg_sum_;

  /// Bitmap-engine state, rebuilt by `SetContext`: the alive targets of each
  /// class as kernel operands, plus the union accumulator. `bitmap_on_` /
  /// `identity_` are per-`ScanUnit` mode flags.
  std::vector<uint64_t> alive_pos_words_;
  std::vector<uint64_t> alive_neg_words_;
  std::vector<uint64_t> union_words_;
  std::vector<TupleId> nonempty_;
  bool bitmap_on_ = false;
  bool identity_ = false;

  /// Cached metric handles (null when detached). `offered_` / `hits_` batch
  /// the per-candidate counts locally during one `ScanUnit` so the hot
  /// `Offer` path never touches an atomic; they are flushed once per call.
  Counter* literals_scored_ = nullptr;
  Counter* index_hits_ = nullptr;
  Timer* search_time_ = nullptr;
  mutable uint64_t offered_ = 0;
  mutable uint64_t hits_ = 0;
};

}  // namespace crossmine

#endif  // CROSSMINE_CORE_LITERAL_SEARCH_H_
