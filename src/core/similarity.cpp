#include "core/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/stack_buffer.hpp"
#include "wavelet/wavelet.hpp"

namespace tracered::core {

namespace {

/// A per-call feature buffer: on the stack unless the segment is long.
using FeatureBuffer = util::StackBuffer<double, kFeatureInlineDoubles>;

double maxAbsOf(std::span<const double> v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

double l2Norm(std::span<const double> v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

double endKey(const Segment& s) { return std::fabs(static_cast<double>(s.end)); }

}  // namespace

// ---------------------------------------------------------------------------
// DistancePolicy

std::optional<SegmentId> DistancePolicy::tryMatch(const Segment& candidate,
                                                  std::uint64_t signature,
                                                  SegmentStore& store) {
  return match(candidate, store, prepare(store, signature), counters_);
}

DistancePolicy::PreparedBucket DistancePolicy::prepare(const SegmentStore& store,
                                                       std::uint64_t signature) {
  PreparedBucket out;
  out.ids = &store.bucket(signature);
  if (tier_ == AccelerationTier::kOff) return out;
  // Bind before the empty-bucket return: onStored fires for this store even
  // when the candidate found nothing to compare against, and the cache it
  // writes must not mix id spaces.
  bindStore(store);
  if (out.ids->empty()) return out;

  if (indexKind() == IndexKind::kEndInterval) {
    // Below the activation population the index cannot recoup its own
    // bookkeeping — match runs the plain scan instead. Buckets only grow, so
    // the switchover happens once per bucket.
    if (out.ids->size() >= EndIntervalIndex::kActivation) {
      EndIntervalIndex& index = endIndex_[signature];
      index.sync(*out.ids, [&](SegmentId id) { return endKey(store.segment(id)); });
      out.end = &index;
    }
    return out;
  }

  // onStored banks features for everything stored through the policy; this
  // computes them for representatives added behind its back. The index
  // reads features only when an entry joins it, so it fills as it syncs.
  const auto featuresOf = [&](SegmentId id) -> const SegmentFeatures& {
    return cache_.getOrCompute(id, [&] { return ownedFeatures(store.segment(id)); });
  };
  MetricBucketIndex& index = metricIndex_[signature];
  index.sync(
      *out.ids, featuresOf,
      [&](const FeatureView& fa, const FeatureView& fb) { return indexDistance(fa, fb); },
      counters_);
  out.metric = &index;
  return out;
}

std::optional<SegmentId> DistancePolicy::match(const Segment& candidate,
                                               const SegmentStore& store,
                                               const PreparedBucket& bucket,
                                               MatchCounters& counters) const {
  const std::vector<SegmentId>& ids = *bucket.ids;
  if (ids.empty()) return std::nullopt;

  if (bucket.metric != nullptr) {
    const auto featuresOf = [&](SegmentId id) -> const SegmentFeatures& {
      return cache_.at(id);
    };
    // The candidate's features live in this call's own buffer, so
    // concurrent matches against one prepared policy share nothing mutable.
    FeatureBuffer buf(featureBufferSize(candidate));
    const FeatureView fc = features(candidate, buf.span());
    return bucket.metric->query(
        fc, indexThreshold(), featuresOf,
        [&](const FeatureView& fa, const FeatureView& fb) { return indexDistance(fa, fb); },
        [&](SegmentId id) { return candidate.compatible(store.segment(id)); },
        [&](SegmentId id) {
          return similarPrepared(candidate, fc, store.segment(id), featuresOf(id));
        },
        counters);
  }

  if (bucket.end != nullptr) {
    const EndIntervalIndex& index = *bucket.end;
    const KeyWindow window = admissibleEndWindow(endKey(candidate));
    if (!index.anyInWindow(window)) {
      counters.indexPruned += index.entries();
      return std::nullopt;
    }
    // A window admitting every stored end makes the per-entry checks pass
    // trivially; the walk below stays store-order with the O(1) window
    // check — the Sec. 3.1 loop's first-match short-circuit, minus the
    // entries the window excludes.
    const bool all = index.coversAll(window);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!all && !window.contains(index.keyAt(i))) {
        ++counters.indexPruned;
        continue;
      }
      ++counters.comparisons;
      const Segment& stored = store.segment(ids[i]);
      if (!candidate.compatible(stored)) continue;
      ++counters.indexVisited;
      if (similar(candidate, stored)) return ids[i];
    }
    return std::nullopt;
  }

  // The literal Sec. 3.1 loop, recomputing any derived data per pair: the
  // off tier, and the element-wise methods' buckets below the interval
  // index's activation population.
  for (SegmentId id : ids) {
    ++counters.comparisons;
    const Segment& stored = store.segment(id);
    if (!candidate.compatible(stored)) continue;  // signature collision guard
    if (similar(candidate, stored)) return id;
  }
  return std::nullopt;
}

double DistancePolicy::indexDistance(const FeatureView& fa, const FeatureView& fb) const {
  // Signature collisions can put different-length vectors in one bucket; a
  // cross-length "distance" is meaningless for the triangle bounds, so feed
  // the index NaN — every NaN comparison is false, so the affected pivot
  // bounds simply never prune (the compatible guard keeps exactness).
  return fa.vec.size() == fb.vec.size() ? pairDistance(fa, fb)
                                        : std::numeric_limits<double>::quiet_NaN();
}

void DistancePolicy::onStored(const Segment& segment, SegmentId id) {
  // Element-wise methods derive everything O(1) from the segment itself; only
  // the metric methods bank features (vector + norms) for the stored side.
  if (tier_ == AccelerationTier::kOff) return;
  if (indexKind() == IndexKind::kMetricPivot) cache_.put(id, ownedFeatures(segment));
}

void DistancePolicy::resetDerivedState() {
  cache_.clear();
  metricIndex_.clear();
  endIndex_.clear();
  boundStore_ = nullptr;
  boundGeneration_ = 0;
}

void DistancePolicy::bindStore(const SegmentStore& store) {
  if (boundStore_ == &store && boundGeneration_ == store.generation()) return;
  resetDerivedState();
  boundStore_ = &store;
  boundGeneration_ = store.generation();
}

bool DistancePolicy::similar(const Segment& a, const Segment& b) const {
  FeatureBuffer bufA(featureBufferSize(a));
  FeatureBuffer bufB(featureBufferSize(b));
  return similarPrepared(a, features(a, bufA.span()), b, features(b, bufB.span()));
}

std::size_t DistancePolicy::featureBufferSize(const Segment&) const {
  throw std::logic_error(name() + ": featureBufferSize requires a kMetricPivot policy");
}

FeatureView DistancePolicy::features(const Segment&, std::span<double>) const {
  throw std::logic_error(name() + ": features requires a kMetricPivot policy");
}

SegmentFeatures DistancePolicy::ownedFeatures(const Segment& s) const {
  FeatureBuffer buf(featureBufferSize(s));
  const FeatureView f = features(s, buf.span());
  return SegmentFeatures{std::vector<double>(f.vec.begin(), f.vec.end()), f.norm, f.maxAbs};
}

double DistancePolicy::pairDistance(const FeatureView&, const FeatureView&) const {
  throw std::logic_error(name() + ": pairDistance requires a kMetricPivot policy");
}

KeyWindow DistancePolicy::admissibleEndWindow(double) const {
  throw std::logic_error(name() + ": admissibleEndWindow requires a kEndInterval policy");
}

// ---------------------------------------------------------------------------
// relDiff

double RelDiffPolicy::relDiff(double a, double b) {
  const double denom = std::max(std::fabs(a), std::fabs(b));
  if (denom == 0.0) return 0.0;
  return std::fabs(a - b) / denom;
}

bool RelDiffPolicy::similar(const Segment& a, const Segment& b) const {
  return forEachMeasurementPair(
      a, b, [this](double x, double y) { return relDiff(x, y) <= threshold_; });
}

KeyWindow RelDiffPolicy::admissibleEndWindow(double candEnd) const {
  return admissibleEndWindowRel(candEnd, threshold_);
}

// ---------------------------------------------------------------------------
// absDiff

bool AbsDiffPolicy::similar(const Segment& a, const Segment& b) const {
  return forEachMeasurementPair(
      a, b, [this](double x, double y) { return std::fabs(x - y) <= threshold_; });
}

KeyWindow AbsDiffPolicy::admissibleEndWindow(double candEnd) const {
  return admissibleEndWindowAbs(candEnd, threshold_);
}

// ---------------------------------------------------------------------------
// Minkowski distances

std::string MinkowskiPolicy::name() const {
  switch (order_) {
    case Order::kManhattan: return "Manhattan";
    case Order::kEuclidean: return "Euclidean";
    case Order::kChebyshev: return "Chebyshev";
  }
  return "Minkowski";
}

double MinkowskiPolicy::distance(Order order, std::span<const double> a,
                                 std::span<const double> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("minkowski distance: vector lengths differ (" +
                                std::to_string(a.size()) + " vs " +
                                std::to_string(b.size()) + ")");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]);
    switch (order) {
      case Order::kManhattan: acc += d; break;
      case Order::kEuclidean: acc += d * d; break;
      case Order::kChebyshev: acc = std::max(acc, d); break;
    }
  }
  return order == Order::kEuclidean ? std::sqrt(acc) : acc;
}

std::size_t MinkowskiPolicy::featureBufferSize(const Segment& s) const {
  return 1 + 2 * s.events.size();
}

FeatureView MinkowskiPolicy::features(const Segment& s, std::span<double> buf) const {
  const std::span<double> vec = buf.first(featureBufferSize(s));
  writeDistanceVector(s, vec);
  FeatureView f(vec, 0.0, maxAbsOf(vec));
  switch (order_) {
    case Order::kManhattan: {
      double acc = 0.0;
      for (double x : vec) acc += std::fabs(x);
      f.norm = acc;
      break;
    }
    case Order::kEuclidean: f.norm = l2Norm(vec); break;
    case Order::kChebyshev: f.norm = f.maxAbs; break;
  }
  return f;
}

bool MinkowskiPolicy::similarPrepared(const Segment&, const FeatureView& fa,
                                      const Segment&, const FeatureView& fb) const {
  const double dist = distance(order_, fa.vec, fb.vec);
  // Eq. 1's acceptance test: distance <= threshold * largest measurement in
  // the pair of vectors (Fig. 2 example: 0.2 * 51 = 10.2).
  return dist <= threshold_ * std::max(fa.maxAbs, fb.maxAbs);
}

double MinkowskiPolicy::pairDistance(const FeatureView& fa, const FeatureView& fb) const {
  return distance(order_, fa.vec, fb.vec);
}

// ---------------------------------------------------------------------------
// Wavelet methods

namespace {

/// Padded wavelet vector length: the next power of two of 2 + 2n stamps.
std::size_t paddedWaveletLength(const Segment& s) {
  return wavelet::nextPow2(2 + 2 * s.events.size());
}

}  // namespace

std::size_t WaveletPolicy::featureBufferSize(const Segment& s) const {
  const std::size_t len = paddedWaveletLength(s);
  return len + len / 2;
}

FeatureView WaveletPolicy::features(const Segment& s, std::span<double> buf) const {
  const std::size_t len = paddedWaveletLength(s);
  const std::span<double> vec = buf.first(len);
  const std::span<double> scratch = buf.subspan(len, len / 2);
  const std::size_t stamps = 2 + 2 * s.events.size();
  writeWaveletVector(s, vec);
  std::fill(vec.begin() + static_cast<std::ptrdiff_t>(stamps), vec.end(), 0.0);
  if (kind_ == Kind::kAverage)
    wavelet::avgTransform(vec, scratch);
  else
    wavelet::haarTransform(vec, scratch);
  return FeatureView(vec, l2Norm(vec), maxAbsOf(vec));
}

bool WaveletPolicy::similarPrepared(const Segment&, const FeatureView& fa,
                                    const Segment&, const FeatureView& fb) const {
  const double dist = wavelet::euclideanDistance(fa.vec, fb.vec);
  return dist <= threshold_ * std::max(fa.maxAbs, fb.maxAbs);
}

double WaveletPolicy::pairDistance(const FeatureView& fa, const FeatureView& fb) const {
  return wavelet::euclideanDistance(fa.vec, fb.vec);
}

// ---------------------------------------------------------------------------
// iter_k

IterKPolicy::IterKPolicy(int k) : k_(k) {
  if (k < 1)
    throw std::invalid_argument("iter_k: k must be an integer >= 1, got " +
                                std::to_string(k));
}

void IterKPolicy::beginRank() {
  classIndex_.clear();
  boundStore_ = nullptr;
  boundGeneration_ = 0;
}

std::optional<SegmentId> IterKPolicy::tryMatch(const Segment& candidate,
                                               std::uint64_t signature,
                                               SegmentStore& store) {
  const auto& bucket = store.bucket(signature);

  if (tier_ != AccelerationTier::kIndexed) {
    // The literal counting loop: iter_k needs the number of compatible
    // representatives.
    int compatibleCount = 0;
    SegmentId last = 0;
    for (SegmentId id : bucket) {
      ++counters_.comparisons;
      if (candidate.compatible(store.segment(id))) {
        ++compatibleCount;
        last = id;
      }
    }
    if (compatibleCount < k_) return std::nullopt;  // still collecting
    return last;  // footnote 1: fill with the last collected segment
  }

  if (boundStore_ != &store || boundGeneration_ != store.generation()) {
    classIndex_.clear();
    boundStore_ = &store;
    boundGeneration_ = store.generation();
  }
  // Compatibility is an equivalence relation, so one comparison per class
  // exemplar answers both "how many compatible representatives exist" and
  // "which was stored last" — identical to the counting loop's result.
  CompatClassIndex& index = classIndex_[signature];
  index.sync(
      bucket,
      [&](SegmentId a, SegmentId b) {
        return store.segment(a).compatible(store.segment(b));
      },
      counters_);
  const CompatClassIndex::ClassCount* cls = index.find(
      [&](SegmentId exemplar) {
        return candidate.compatible(store.segment(exemplar));
      },
      counters_);
  if (cls == nullptr || cls->count < static_cast<std::size_t>(k_))
    return std::nullopt;
  return cls->last;
}

// ---------------------------------------------------------------------------
// iter_avg

namespace {

/// Adds `s`'s measurements, in iter_avg's order [e0.start, e0.end, ...,
/// end], onto sums (which holds exactly that many).
void addMeasurements(const Segment& s, std::vector<double>& sums) {
  std::size_t i = 0;
  for (const auto& e : s.events) {
    sums[i++] += static_cast<double>(e.start);
    sums[i++] += static_cast<double>(e.end);
  }
  sums[i] += static_cast<double>(s.end);
}

}  // namespace

std::optional<SegmentId> IterAvgPolicy::tryMatch(const Segment& candidate,
                                                 std::uint64_t signature,
                                                 SegmentStore& store) {
  for (SegmentId id : store.bucket(signature)) {
    ++counters_.comparisons;
    if (!candidate.compatible(store.segment(id))) continue;
    Acc& a = acc_.at(id);
    addMeasurements(candidate, a.sums);
    ++a.count;
    return id;
  }
  return std::nullopt;
}

void IterAvgPolicy::onStored(const Segment& segment, SegmentId id) {
  if (acc_.size() <= id) acc_.resize(id + 1);
  acc_[id].sums.assign(2 * segment.events.size() + 1, 0.0);
  addMeasurements(segment, acc_[id].sums);
  acc_[id].count = 1;
}

void IterAvgPolicy::finishRank(SegmentStore& store) {
  for (SegmentId id = 0; id < store.size(); ++id) {
    const Acc& a = acc_.at(id);
    if (a.count == 0) continue;
    Segment& s = store.segment(id);
    const double inv = 1.0 / static_cast<double>(a.count);
    std::size_t idx = 0;
    for (auto& e : s.events) {
      e.start = static_cast<TimeUs>(std::llround(a.sums[idx++] * inv));
      e.end = static_cast<TimeUs>(std::llround(a.sums[idx++] * inv));
    }
    s.end = static_cast<TimeUs>(std::llround(a.sums[idx] * inv));
  }
}

}  // namespace tracered::core
