// Similarity policies: the ≈ operators of Sec. 3.2, plus the iteration-based
// methods, behind one interface consumed by the reducer.
//
// A policy decides, for each incoming segment, whether it "matches" a stored
// representative (and which one). Distance policies implement a pairwise
// `similar` test evaluated against representatives with an identical
// signature; the iteration-based methods replace the test entirely (iter_k
// matches once k representatives exist; iter_avg always matches and folds
// the new measurements into a running average).
//
// The matching hot path has three acceleration tiers (see the README's
// "Accelerated matching" section for the bound derivations, and
// core/match_index.hpp for the index structures):
//
//   kOff     — the literal uncached Sec. 3.1 loop, recomputing any derived
//              data per pair. Kept for benchmarking and identity tests.
//   kCached  — per-segment features (measurement/coefficient vector, pruning
//              norm, largest measurement) derived ONCE per candidate and
//              cached per stored representative in a FeatureCache populated
//              via onStored, with a conservative norm pre-filter (reverse
//              triangle inequality against the Eq. 1 acceptance bound)
//              rejecting provably-dissimilar pairs before any full vector
//              walk. The element-wise methods (relDiff/absDiff), whose
//              policies use neither a feature vector nor a pruning norm,
//              skip the feature machinery entirely — their scan IS the base
//              loop, so acceleration is never a net loss on short-vector
//              workloads.
//   kIndexed — the default: a per-bucket metric pivot index (norm-sorted
//              entries + triangle-inequality pivot bounds) for the metric
//              methods, an exact end-measurement interval index for
//              relDiff/absDiff, and a compatibility-class count index for
//              iter_k, each queried instead of scanning every stored
//              representative.
//
// Every tier visits the surviving candidates in store order and decides each
// with the exact comparison, so first-match semantics — and therefore the
// entire reduction output — are bit-identical across tiers by construction
// (tested on every method × every registered workload).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/match_index.hpp"
#include "core/segment_store.hpp"
#include "trace/segment.hpp"

namespace tracered::core {

/// Matching fast-path selection; see the tier descriptions above. Results
/// are bit-identical for every tier; only the wall clock differs.
enum class AccelerationTier { kOff, kCached, kIndexed };

/// Interface the reducer drives. Policies are stateful per reduction run and
/// are reset per rank (reduction is intra-process; Sec. 3).
class SimilarityPolicy {
 public:
  virtual ~SimilarityPolicy() = default;

  /// Human-readable method name ("relDiff", "avgWave", ...).
  virtual std::string name() const = 0;

  /// Called when the reducer starts a new rank with a fresh store.
  virtual void beginRank() {}

  /// Attempts to match `candidate` against `store`. Returns the id of the
  /// matched representative, or nullopt if the candidate must be stored as a
  /// new representative. May mutate stored segments (iter_avg).
  virtual std::optional<SegmentId> tryMatch(const Segment& candidate,
                                            SegmentStore& store) = 0;

  /// Called after the reducer stored `id` for an unmatched candidate (lets
  /// policies cache derived data, e.g. feature vectors).
  virtual void onStored(const Segment& segment, SegmentId id) {
    (void)segment;
    (void)id;
  }

  /// Called after a rank's reduction completes, before the store's segments
  /// are finalized into the reduced trace (iter_avg writes back averages).
  virtual void finishRank(SegmentStore& store) { (void)store; }

  /// Selects the matching fast path (kIndexed by default). Results are
  /// bit-identical for every tier (tested), so this exists for benchmarking
  /// the tiers against each other and for identity tests. Flip before
  /// feeding candidates.
  void setAccelerationTier(AccelerationTier tier) { tier_ = tier; }
  AccelerationTier accelerationTier() const { return tier_; }

  /// Compatibility switch: on = the default indexed tier, off = the literal
  /// uncached Sec. 3.1 loop.
  void setAcceleration(bool on) {
    tier_ = on ? AccelerationTier::kIndexed : AccelerationTier::kOff;
  }
  bool accelerationEnabled() const { return tier_ != AccelerationTier::kOff; }

  /// Cumulative instrumentation over this policy's lifetime (never reset by
  /// beginRank; consumers diff snapshots, see RankReductionEngine).
  const MatchCounters& matchCounters() const { return counters_; }

 protected:
  AccelerationTier tier_ = AccelerationTier::kIndexed;
  MatchCounters counters_;
};

/// Base for the feature-vector similarity methods (the Sec. 3.2.1 distances
/// and the wavelet methods): finds the first representative in store order
/// for which the ≈ test holds — exactly the paper's compareSegments loop
/// (context/length/id compatibility is checked via the signature bucket plus
/// an explicit `compatible` guard).
///
/// tryMatch is two steps, and every tier runs through both:
///
///   * `prepare` (mutating) binds the store, fills the FeatureCache for the
///     bucket's representatives (populated in onStored, filled here for
///     representatives added behind the policy's back), and syncs the
///     bucket's MetricBucketIndex (metric methods) or EndIntervalIndex
///     (element-wise methods) in the indexed tier.
///   * `match` (const) runs the tier's scan or index query over the
///     prepared bucket and counts into a caller-supplied MatchCounters. The
///     cached tier computes the candidate's features once and runs
///     `prefilterRejects` — which may only reject pairs the full test would
///     provably reject — before `similarPrepared`; the indexed tier visits
///     only the candidates the index admits. The first accepted id is
///     identical in every tier.
///
/// Because `match` reads only prepared state, one prepared policy can serve
/// any number of concurrent `match` calls against a store that does not
/// change meanwhile (the cross-rank merge's parallel probe).
class DistancePolicy : public SimilarityPolicy {
 public:
  /// One store bucket made ready for `match`: the bucket's ids in store order
  /// and the synced index serving it (both null when the tier or the
  /// bucket's population calls for a plain scan). Valid until the store,
  /// the bucket or this policy's derived state next changes.
  struct PreparedBucket {
    const std::vector<SegmentId>* ids = nullptr;
    const MetricBucketIndex* metric = nullptr;
    const EndIntervalIndex* end = nullptr;
  };

  /// prepare + match, counting into matchCounters().
  std::optional<SegmentId> tryMatch(const Segment& candidate,
                                    SegmentStore& store) override;
  void beginRank() override { resetDerivedState(); }
  void onStored(const Segment& segment, SegmentId id) override;

  /// Readies `store`'s bucket for `signature`. Index maintenance (pivot
  /// distances) counts into matchCounters().
  PreparedBucket prepare(const SegmentStore& store, std::uint64_t signature);

  /// The first representative of `bucket` (store order) that `candidate`
  /// ≈-matches, or nullopt. `bucket` must come from `prepare` on the same
  /// store with the candidate's signature; per-query work counts into
  /// `counters`.
  std::optional<SegmentId> match(const Segment& candidate, const SegmentStore& store,
                                 const PreparedBucket& bucket,
                                 MatchCounters& counters) const;

 protected:
  /// Which indexed-tier structure serves this method.
  enum class IndexKind {
    kMetricPivot,  ///< Eq. 1 acceptance over a true metric: norm window +
                   ///< pivot bounds (Minkowski and wavelet methods).
    kEndInterval,  ///< Element-wise conjunction including the end pair:
                   ///< admissible end window (relDiff/absDiff).
  };
  virtual IndexKind indexKind() const = 0;

  /// The ≈ test between two compatible segments — the uncached slow path,
  /// recomputing any derived data per pair.
  virtual bool similar(const Segment& a, const Segment& b) const = 0;

  /// kMetricPivot only: derived features of one segment (vector + norms) for
  /// the cached and indexed fast paths. The element-wise methods never
  /// prepare features — their only derivable datum is the O(1) segment end,
  /// read directly by their tiers.
  virtual SegmentFeatures features(const Segment& s) const;

  /// Conservative pre-filter: may return true ONLY when (fa, fb) provably
  /// fails `similar` (implementations keep a floating-point safety margin so
  /// rounding can never reject a pair the full test would accept).
  virtual bool prefilterRejects(const SegmentFeatures& fa,
                                const SegmentFeatures& fb) const {
    (void)fa;
    (void)fb;
    return false;
  }

  /// The ≈ test with both sides' features already prepared. Must be
  /// arithmetically identical to `similar`. Defaults to ignoring the
  /// features (the element-wise methods walk the segments directly).
  virtual bool similarPrepared(const Segment& a, const SegmentFeatures& fa,
                               const Segment& b, const SegmentFeatures& fb) const {
    (void)fa;
    (void)fb;
    return similar(a, b);
  }

  /// kMetricPivot only: the exact pairwise distance on prepared features —
  /// the same arithmetic `similarPrepared` thresholds, reused by the index
  /// for pivot distances.
  virtual double pairDistance(const SegmentFeatures& fa,
                              const SegmentFeatures& fb) const;

  /// kMetricPivot only: the Eq. 1 threshold (bound = threshold *
  /// max(maxAbs of the pair)).
  virtual double indexThreshold() const { return 0.0; }

  /// kEndInterval only: the admissible stored-end window for a candidate
  /// ending at `candEnd` — conservative per the method's threshold algebra.
  virtual KeyWindow admissibleEndWindow(double candEnd) const;

 private:
  /// pairDistance as the metric index sees it: NaN across vector lengths.
  double indexDistance(const SegmentFeatures& fa, const SegmentFeatures& fb) const;

  /// Discards every piece of state derived from a store's id space.
  void resetDerivedState();

  /// Invalidates the derived state when `store` is not the one it was built
  /// against (different store, or the same store after clear()).
  void bindStore(const SegmentStore& store);

  FeatureCache cache_;  ///< Stored-side features, indexed by SegmentId.
  std::unordered_map<std::uint64_t, MetricBucketIndex> metricIndex_;
  std::unordered_map<std::uint64_t, EndIntervalIndex> endIndex_;
  const SegmentStore* boundStore_ = nullptr;
  std::uint64_t boundGeneration_ = 0;
};

/// relDiff (Sec. 3.2.1): every paired measurement must satisfy
/// |a-b| / max(a,b) <= threshold.
class RelDiffPolicy final : public DistancePolicy {
 public:
  explicit RelDiffPolicy(double threshold) : threshold_(threshold) {}
  std::string name() const override { return "relDiff"; }

  /// Relative difference of one measurement pair: |a-b| / max(|a|,|b|),
  /// 0 when both are 0. (Validated against the paper's 17-vs-40 -> 0.575 and
  /// 17-vs-20 -> 0.15 worked examples.)
  static double relDiff(double a, double b);

 protected:
  IndexKind indexKind() const override { return IndexKind::kEndInterval; }
  bool similar(const Segment& a, const Segment& b) const override;
  KeyWindow admissibleEndWindow(double candEnd) const override;

 private:
  double threshold_;
};

/// absDiff: every paired measurement must satisfy |a-b| <= threshold (µs).
class AbsDiffPolicy final : public DistancePolicy {
 public:
  explicit AbsDiffPolicy(double threshold) : threshold_(threshold) {}
  std::string name() const override { return "absDiff"; }

 protected:
  IndexKind indexKind() const override { return IndexKind::kEndInterval; }
  bool similar(const Segment& a, const Segment& b) const override;
  KeyWindow admissibleEndWindow(double candEnd) const override;

 private:
  double threshold_;
};

/// Minkowski distances (Manhattan m=1, Euclidean m=2, Chebyshev m=inf):
/// match iff dist(measurements) <= threshold * max(measurement in the pair
/// of vectors) — the Eq. 1 test, validated against the paper's Fig. 2
/// example (distances 50 / 32.65 / 23 against 0.2 * 51).
class MinkowskiPolicy final : public DistancePolicy {
 public:
  enum class Order { kManhattan, kEuclidean, kChebyshev };

  MinkowskiPolicy(Order order, double threshold) : order_(order), threshold_(threshold) {}
  std::string name() const override;

  /// Throws std::invalid_argument when the vectors' lengths differ (callers
  /// comparing raw vectors get a diagnostic instead of an out-of-bounds
  /// read; the reducer's `compatible` guard makes mismatches impossible).
  static double distance(Order order, const std::vector<double>& a,
                         const std::vector<double>& b);

 protected:
  IndexKind indexKind() const override { return IndexKind::kMetricPivot; }
  bool similar(const Segment& a, const Segment& b) const override;
  SegmentFeatures features(const Segment& s) const override;
  bool prefilterRejects(const SegmentFeatures& fa,
                        const SegmentFeatures& fb) const override;
  bool similarPrepared(const Segment& a, const SegmentFeatures& fa,
                       const Segment& b, const SegmentFeatures& fb) const override;
  double pairDistance(const SegmentFeatures& fa,
                      const SegmentFeatures& fb) const override;
  double indexThreshold() const override { return threshold_; }

 private:
  Order order_;
  double threshold_;
};

/// Wavelet methods (avgWave / haarWave): build the time-stamp vector
/// [0, e0.start, e0.end, ..., segEnd], zero-pad to a power of two, fully
/// decompose, then match iff the Euclidean distance between coefficient
/// vectors is <= threshold * max(|coefficient| in the pair). Coefficient
/// vectors ride the shared DistancePolicy FeatureCache.
class WaveletPolicy final : public DistancePolicy {
 public:
  enum class Kind { kAverage, kHaar };

  WaveletPolicy(Kind kind, double threshold) : kind_(kind), threshold_(threshold) {}
  std::string name() const override { return kind_ == Kind::kAverage ? "avgWave" : "haarWave"; }

  /// The padded, transformed coefficient vector for a segment.
  std::vector<double> transform(const Segment& s) const;

 protected:
  IndexKind indexKind() const override { return IndexKind::kMetricPivot; }
  bool similar(const Segment& a, const Segment& b) const override;
  SegmentFeatures features(const Segment& s) const override;
  bool prefilterRejects(const SegmentFeatures& fa,
                        const SegmentFeatures& fb) const override;
  bool similarPrepared(const Segment& a, const SegmentFeatures& fa,
                       const Segment& b, const SegmentFeatures& fb) const override;
  double pairDistance(const SegmentFeatures& fa,
                      const SegmentFeatures& fb) const override;
  double indexThreshold() const override { return threshold_; }

 private:
  Kind kind_;
  double threshold_;
};

/// iter_k (Sec. 3.2.2): keep the first k executions of each signature; every
/// later execution "matches" and — per the paper's footnote 1 — is recorded
/// against the *last* stored representative so reconstruction fills gaps
/// with the most recent collected segment.
///
/// Accelerated tryMatch answers from a per-bucket CompatClassIndex (count +
/// last member per compatibility class) instead of re-scanning the bucket;
/// the uncached tier keeps the literal counting loop.
class IterKPolicy final : public SimilarityPolicy {
 public:
  /// Throws std::invalid_argument when k < 1 (k <= 0 would "match" against
  /// a representative that was never stored, corrupting reconstruction).
  explicit IterKPolicy(int k);
  std::string name() const override { return "iter_k"; }
  void beginRank() override;
  std::optional<SegmentId> tryMatch(const Segment& candidate, SegmentStore& store) override;

  int k() const { return k_; }

 private:
  int k_;
  std::unordered_map<std::uint64_t, CompatClassIndex> classIndex_;
  const SegmentStore* boundStore_ = nullptr;
  std::uint64_t boundGeneration_ = 0;
};

/// iter_avg (Sec. 3.2.2): one representative per signature holding the
/// running average of every measurement across all executions. Averages are
/// accumulated in double precision and written back (rounded) in
/// finishRank().
class IterAvgPolicy final : public SimilarityPolicy {
 public:
  std::string name() const override { return "iter_avg"; }
  void beginRank() override { acc_.clear(); }
  std::optional<SegmentId> tryMatch(const Segment& candidate, SegmentStore& store) override;
  void onStored(const Segment& segment, SegmentId id) override;
  void finishRank(SegmentStore& store) override;

 private:
  struct Acc {
    std::vector<double> sums;  ///< [e0.start, e0.end, ..., end]
    std::size_t count = 0;
  };
  std::vector<Acc> acc_;  ///< Indexed by SegmentId.
};

}  // namespace tracered::core
