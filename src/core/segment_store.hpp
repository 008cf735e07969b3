// Store of representative segments for one rank (the paper's
// `storedSegments` list), bucketed by segment signature so that candidate
// lookup is linear in the (small) number of representatives that could
// possibly match rather than all representatives.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/segment.hpp"

namespace tracered::core {

/// Derived matching features of one segment, computed once and reused for
/// every comparison the segment participates in (candidate side: once per
/// consume(); stored side: once per representative via FeatureCache).
struct SegmentFeatures {
  std::vector<double> vec;  ///< Method-specific feature vector (empty for the
                            ///< element-wise methods, which walk the segments
                            ///< directly in the full test).
  double norm = 0.0;        ///< Method-specific pruning norm (L1/L2/L-inf of
                            ///< `vec`, or the element-wise pre-filter bound).
  double maxAbs = 0.0;      ///< Vector methods: largest |measurement| — the
                            ///< Eq. 1 denominator. Element-wise methods: the
                            ///< |segment end| (their O(1) pre-filter input).
};

/// Stored-side cache of SegmentFeatures, indexed by SegmentId (dense, store
/// order — same ids as the owning SegmentStore). Policies populate it from
/// their onStored hook; getOrCompute() fills lazily for representatives
/// added behind the policy's back, so manual SegmentStore::add calls keep
/// working. Like the policies that own it, the cache is per reduction run
/// and cleared on beginRank().
class FeatureCache {
 public:
  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

  bool has(SegmentId id) const {
    return id < entries_.size() && entries_[id].has_value();
  }

  void put(SegmentId id, SegmentFeatures features) {
    if (entries_.size() <= id) entries_.resize(id + 1);
    entries_[id] = std::move(features);
  }

  /// Cached features for `id`; throws when they were never computed.
  const SegmentFeatures& at(SegmentId id) const { return entries_.at(id).value(); }

  /// Features for `id`, computing and caching them via `compute` on a miss.
  template <typename Fn>
  const SegmentFeatures& getOrCompute(SegmentId id, Fn&& compute) {
    if (entries_.size() <= id) entries_.resize(id + 1);
    if (!entries_[id].has_value()) entries_[id] = compute();
    return *entries_[id];
  }

 private:
  std::vector<std::optional<SegmentFeatures>> entries_;
};

/// Per-rank representative store. Ids are dense indices in store order.
///
/// Every store carries a process-unique `generation()` token, renewed by
/// `clear()`: derived state keyed by SegmentId (a policy's FeatureCache and
/// match indexes) records the (store, generation) pair it was built against
/// and discards itself when either changes, so clearing a store can never
/// leak stale features onto the reused ids.
class SegmentStore {
 public:
  SegmentStore();

  /// Adds a new representative. The stored copy keeps its relative event
  /// times and gets absStart reset to 0 (the representative stands for all
  /// executions, not a particular one). Returns the assigned id.
  SegmentId add(const Segment& segment);

  /// Same, with the segment's signature already computed (hashing the event
  /// list is part of the per-segment hot path; callers that already hold the
  /// hash should not pay for it twice).
  SegmentId add(const Segment& segment, std::uint64_t signature);

  /// Representatives whose signature matches `sig` (candidates still need a
  /// `compatible` check to guard against hash collisions). Returns ids in
  /// store order — the paper's algorithm scans stored segments in order and
  /// takes the first match.
  const std::vector<SegmentId>& bucket(std::uint64_t sig) const;

  const Segment& segment(SegmentId id) const { return segments_.at(id); }
  Segment& segment(SegmentId id) { return segments_.at(id); }

  std::size_t size() const { return segments_.size(); }
  const std::vector<Segment>& all() const { return segments_; }
  std::vector<Segment> takeAll() && { return std::move(segments_); }

  /// Removes every representative and bucket, and renews generation() so
  /// any policy-side derived state (FeatureCache, match indexes) built
  /// against this store invalidates itself instead of serving stale
  /// features for the reused ids (regression-tested).
  void clear();

  /// Process-unique token identifying this store's current id space (new
  /// value per construction and per clear()).
  std::uint64_t generation() const { return generation_; }

 private:
  std::vector<Segment> segments_;
  std::unordered_map<std::uint64_t, std::vector<SegmentId>> buckets_;
  std::uint64_t generation_;
  static const std::vector<SegmentId> kEmpty;
};

}  // namespace tracered::core
