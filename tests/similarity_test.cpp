// Behavioural tests for each similarity policy beyond the paper's worked
// examples: threshold monotonicity, bucket handling, caching, averaging.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/methods.hpp"
#include "core/segment_store.hpp"
#include "core/similarity.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/stack_buffer.hpp"
#include "wavelet/wavelet.hpp"

namespace tracered::core {

/// Reaches DistancePolicy's protected feature kernels (a friend of it).
struct DistancePolicyTestAccess {
  static bool similar(const DistancePolicy& p, const Segment& a, const Segment& b) {
    return p.similar(a, b);
  }
  static bool similarPrepared(const DistancePolicy& p, const Segment& a, const FeatureView& fa,
                              const Segment& b, const FeatureView& fb) {
    return p.similarPrepared(a, fa, b, fb);
  }
  static std::size_t featureBufferSize(const DistancePolicy& p, const Segment& s) {
    return p.featureBufferSize(s);
  }
  static FeatureView features(const DistancePolicy& p, const Segment& s, std::span<double> buf) {
    return p.features(s, buf);
  }
  static SegmentFeatures ownedFeatures(const DistancePolicy& p, const Segment& s) {
    return p.ownedFeatures(s);
  }
};

namespace {

using Kernels = DistancePolicyTestAccess;
using testing::makeSegment;
using testing::tryMatch;

Segment jittered(StringTable& names, TimeUs delta) {
  return makeSegment(names, "main.1", 0, 1000 + delta,
                     {{"do_work", OpKind::kCompute, 1, 900 + delta, {}},
                      {"MPI_Barrier", OpKind::kBarrier, 901 + delta, 999 + delta, {}}});
}

TEST(SegmentStoreTest, AddAssignsDenseIdsAndBuckets) {
  StringTable names;
  SegmentStore store;
  const Segment a = jittered(names, 0);
  const Segment b = jittered(names, 5);
  const Segment other = makeSegment(names, "main.2", 0, 10,
                                    {{"do_work", OpKind::kCompute, 1, 9, {}}});
  EXPECT_EQ(store.add(a), 0u);
  EXPECT_EQ(store.add(b), 1u);
  EXPECT_EQ(store.add(other), 2u);
  EXPECT_EQ(store.bucket(a.signature()).size(), 2u);
  EXPECT_EQ(store.bucket(other.signature()).size(), 1u);
  EXPECT_TRUE(store.bucket(0xdeadbeef).empty());
  // Stored copies have absStart zeroed.
  EXPECT_EQ(store.segment(0).absStart, 0);
}

TEST(Policies, NoMatchAcrossIncompatibleSegments) {
  StringTable names;
  const Segment a = jittered(names, 0);
  const Segment other = makeSegment(names, "main.2", 0, 1000,
                                    {{"do_work", OpKind::kCompute, 1, 999, {}}});
  for (Method m : allMethods()) {
    auto policy = makePolicy(m, 1e9);  // absurdly permissive threshold
    policy->beginRank();
    SegmentStore store;
    const SegmentId id = store.add(a);
    policy->onStored(store.segment(id), id);
    EXPECT_FALSE(tryMatch(*policy, other, store).has_value())
        << methodName(m) << " matched across contexts";
  }
}

TEST(Policies, ThresholdZeroMatchesOnlyIdenticalSegments) {
  StringTable names;
  const Segment a = jittered(names, 0);
  const Segment same = jittered(names, 0);
  const Segment off = jittered(names, 3);
  for (Method m : {Method::kRelDiff, Method::kAbsDiff, Method::kManhattan,
                   Method::kEuclidean, Method::kChebyshev, Method::kAvgWave,
                   Method::kHaarWave}) {
    auto policy = makePolicy(m, 0.0);
    policy->beginRank();
    SegmentStore store;
    const SegmentId id = store.add(a);
    policy->onStored(store.segment(id), id);
    EXPECT_TRUE(tryMatch(*policy, same, store).has_value()) << methodName(m);
    EXPECT_FALSE(tryMatch(*policy, off, store).has_value()) << methodName(m);
  }
}

TEST(Policies, MatchingIsMonotonicInThreshold) {
  StringTable names;
  const Segment a = jittered(names, 0);
  const Segment off = jittered(names, 40);
  for (Method m : {Method::kRelDiff, Method::kAbsDiff, Method::kManhattan,
                   Method::kEuclidean, Method::kChebyshev, Method::kAvgWave,
                   Method::kHaarWave}) {
    bool matchedBefore = false;
    for (double t : studyThresholds(m)) {
      auto policy = makePolicy(m, t);
      policy->beginRank();
      SegmentStore store;
      const SegmentId id = store.add(a);
      policy->onStored(store.segment(id), id);
      const bool matched = tryMatch(*policy, off, store).has_value();
      EXPECT_TRUE(matched || !matchedBefore)
          << methodName(m) << ": match disappeared as threshold grew (t=" << t << ")";
      matchedBefore = matched || matchedBefore;
    }
  }
}

TEST(Policies, FirstMatchingStoredSegmentWins) {
  StringTable names;
  AbsDiffPolicy policy(100);
  SegmentStore store;
  const Segment s0 = jittered(names, 0);
  const Segment s1 = jittered(names, 10);
  store.add(s0);
  store.add(s1);
  // Both are within 100 of the candidate; the paper's algorithm scans stored
  // segments in order and returns the first hit.
  const auto match = tryMatch(policy, jittered(names, 5), store);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match, 0u);
}

TEST(RelDiff, EarlySmallTimestampsAreHarsh) {
  // The paper's critique: start times 1 vs 2 fail a 0.25 threshold even
  // though they differ by one tick, while 100 vs 125 pass.
  StringTable names;
  RelDiffPolicy policy(0.25);
  SegmentStore store;
  const Segment a = makeSegment(names, "m", 0, 200,
                                {{"f", OpKind::kCompute, 1, 150, {}}});
  const Segment b = makeSegment(names, "m", 0, 200,
                                {{"f", OpKind::kCompute, 2, 150, {}}});
  store.add(a);
  EXPECT_FALSE(tryMatch(policy, b, store).has_value());

  SegmentStore store2;
  const Segment c = makeSegment(names, "m", 0, 200,
                                {{"f", OpKind::kCompute, 100, 150, {}}});
  const Segment d = makeSegment(names, "m", 0, 200,
                                {{"f", OpKind::kCompute, 125, 150, {}}});
  store2.add(c);
  EXPECT_TRUE(tryMatch(policy, d, store2).has_value());
}

TEST(Chebyshev, OnlyLargestDifferenceCounts) {
  StringTable names;
  // Many small differences: Chebyshev sees only the max, Manhattan sums.
  const Segment a = makeSegment(names, "m", 0, 1000,
                                {{"f", OpKind::kCompute, 10, 200, {}},
                                 {"g", OpKind::kCompute, 210, 400, {}},
                                 {"h", OpKind::kCompute, 410, 600, {}},
                                 {"i", OpKind::kCompute, 610, 990, {}}});
  Segment b = a;
  for (auto& e : b.events) {
    e.start += 30;
    e.end += 30;
  }
  // Chebyshev distance = 30; Manhattan = 30 * 8 = 240. max value = 1000.
  MinkowskiPolicy cheb(MinkowskiPolicy::Order::kChebyshev, 0.05);  // allows 50
  MinkowskiPolicy manh(MinkowskiPolicy::Order::kManhattan, 0.05);
  SegmentStore s1, s2;
  s1.add(a);
  s2.add(a);
  EXPECT_TRUE(tryMatch(cheb, b, s1).has_value());
  EXPECT_FALSE(tryMatch(manh, b, s2).has_value());
}

TEST(Wavelet, HaarIsStricterThanAvgOnSameThreshold) {
  // haarWave coefficients are avgWave's scaled by sqrt(2)^level, with the
  // Euclidean distance preserved (not shrunk), so at an equal threshold the
  // Haar test admits no more matches than a test whose distance shrank.
  StringTable names;
  const Segment a = jittered(names, 0);
  const Segment b = jittered(names, 25);
  for (double t : {0.01, 0.02, 0.05, 0.1, 0.2}) {
    WaveletPolicy avg(WaveletPolicy::Kind::kAverage, t);
    WaveletPolicy haar(WaveletPolicy::Kind::kHaar, t);
    avg.beginRank();
    haar.beginRank();
    SegmentStore s1, s2;
    const SegmentId i1 = s1.add(a);
    avg.onStored(s1.segment(i1), i1);
    const SegmentId i2 = s2.add(a);
    haar.onStored(s2.segment(i2), i2);
    const bool am = tryMatch(avg, b, s1).has_value();
    const bool hm = tryMatch(haar, b, s2).has_value();
    // If Haar matches, the average transform must match too.
    EXPECT_TRUE(am || !hm) << "t=" << t;
  }
}

TEST(Minkowski, DistanceRejectsMismatchedVectorLengths) {
  // Public-static entry point: mismatched lengths used to read b out of
  // bounds; now they are a diagnostic.
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.0};
  for (auto order : {MinkowskiPolicy::Order::kManhattan,
                     MinkowskiPolicy::Order::kEuclidean,
                     MinkowskiPolicy::Order::kChebyshev}) {
    EXPECT_THROW(MinkowskiPolicy::distance(order, a, b), std::invalid_argument);
    EXPECT_THROW(MinkowskiPolicy::distance(order, b, a), std::invalid_argument);
  }
  EXPECT_DOUBLE_EQ(
      MinkowskiPolicy::distance(MinkowskiPolicy::Order::kManhattan, a, a), 0.0);
}

// --- feature kernels -------------------------------------------------------
// The metric methods build features in caller-owned buffers (inline up to
// kFeatureInlineDoubles, on the heap beyond). Every form must agree bit for
// bit: the per-pair slow path `similar`, the prepared path over owned
// features, the buffer path, and the vector definitions they replace.

/// A random segment with `events` compute events and ordered timestamps.
Segment randomSegment(StringTable& names, SplitMix64& rng, std::size_t events) {
  Segment s;
  s.context = names.intern("main.1");
  TimeUs t = 0;
  for (std::size_t i = 0; i < events; ++i) {
    EventInterval e;
    e.name = names.intern(i % 2 == 0 ? "do_work" : "MPI_Barrier");
    e.op = i % 2 == 0 ? OpKind::kCompute : OpKind::kBarrier;
    e.start = t += static_cast<TimeUs>(rng.nextInt(0, 50));
    e.end = t += static_cast<TimeUs>(rng.nextInt(1, 400));
    s.events.push_back(e);
  }
  s.end = t + static_cast<TimeUs>(rng.nextInt(0, 50));
  return s;
}

/// `a` with every timestamp shifted by up to +-`jitter` (order kept).
Segment perturbed(const Segment& a, SplitMix64& rng, int jitter) {
  Segment b = a;
  TimeUs floor = 0;
  const auto shift = [&](TimeUs x) {
    floor = std::max(floor, x + static_cast<TimeUs>(rng.nextInt(-jitter, jitter)));
    return floor;
  };
  for (EventInterval& e : b.events) {
    e.start = shift(e.start);
    e.end = shift(e.end);
  }
  b.end = shift(b.end);
  return b;
}

bool sameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The feature vector as the vector-returning definitions build it.
std::vector<double> referenceVector(Method m, const Segment& s) {
  if (m == Method::kAvgWave) return wavelet::avgTransform(wavelet::padToPow2(waveletVector(s)));
  if (m == Method::kHaarWave) return wavelet::haarTransform(wavelet::padToPow2(waveletVector(s)));
  return distanceVector(s);
}

TEST(FeatureKernels, SimilarEqualsPreparedOnOwnedAndBufferedFeatures) {
  StringTable names;
  SplitMix64 rng(0x5eed0016);
  // Event counts straddle both inline bounds (63 events for the wavelet
  // methods, 127 for Minkowski), so the heap fallback is exercised too.
  const std::size_t eventCounts[] = {0, 1, 2, 7, 40, 63, 64, 127, 128, 300};
  for (Method m : {Method::kManhattan, Method::kEuclidean, Method::kChebyshev,
                   Method::kAvgWave, Method::kHaarWave}) {
    SCOPED_TRACE(methodName(m));
    bool sawMatch = false;
    bool sawMiss = false;
    bool sawHeap = false;
    for (std::size_t events : eventCounts) {
      for (int rep = 0; rep < 6; ++rep) {
        const double threshold = 0.02 * rep;
        const auto policy = makePolicy(m, threshold);
        const auto& p = dynamic_cast<const DistancePolicy&>(*policy);
        const Segment a = randomSegment(names, rng, events);
        const Segment b = perturbed(a, rng, 10 * rep);
        ASSERT_TRUE(a.compatible(b));

        const SegmentFeatures fa = Kernels::ownedFeatures(p, a);
        const SegmentFeatures fb = Kernels::ownedFeatures(p, b);
        const bool slow = Kernels::similar(p, a, b);
        EXPECT_EQ(slow, Kernels::similarPrepared(p, a, fa, b, fb)) << events << " events";
        (slow ? sawMatch : sawMiss) = true;

        for (const auto& [seg, owned] : {std::pair{&a, &fa}, std::pair{&b, &fb}}) {
          EXPECT_TRUE(sameBits(owned->vec, referenceVector(m, *seg))) << events;
          util::StackBuffer<double, kFeatureInlineDoubles> buf(
              Kernels::featureBufferSize(p, *seg));
          sawHeap = sawHeap || buf.onHeap();
          const FeatureView view = Kernels::features(p, *seg, buf.span());
          EXPECT_TRUE(sameBits(view.vec, owned->vec)) << events;
          EXPECT_TRUE(sameBits(view.norm, owned->norm)) << events;
          EXPECT_TRUE(sameBits(view.maxAbs, owned->maxAbs)) << events;
        }
      }
    }
    EXPECT_TRUE(sawMatch);
    EXPECT_TRUE(sawMiss);
    EXPECT_TRUE(sawHeap);
  }
}

// The cross-rank merge's probe workers call the const matching code of one
// shared policy concurrently; the feature kernels' scratch is per call, so
// concurrent callers must see exactly the serial answers (and race-free
// under ThreadSanitizer).
TEST(FeatureKernels, ConstKernelsAreSafeToCallConcurrently) {
  StringTable names;
  SplitMix64 rng(0x5eed0017);
  std::vector<std::pair<Segment, Segment>> pairs;
  for (std::size_t events : {3, 20, 90}) {
    for (int rep = 0; rep < 8; ++rep) {
      Segment a = randomSegment(names, rng, events);
      Segment b = perturbed(a, rng, 5 * rep);
      pairs.emplace_back(std::move(a), std::move(b));
    }
  }
  for (Method m : {Method::kEuclidean, Method::kAvgWave, Method::kHaarWave}) {
    SCOPED_TRACE(methodName(m));
    const auto policy = makePolicy(m, 0.05);
    const auto& p = dynamic_cast<const DistancePolicy&>(*policy);
    std::vector<char> serial;
    for (const auto& [a, b] : pairs) serial.push_back(Kernels::similar(p, a, b) ? 1 : 0);

    constexpr int kThreads = 4;
    std::vector<std::vector<char>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < 20; ++round) {
          got[static_cast<std::size_t>(t)].clear();
          for (const auto& [a, b] : pairs)
            got[static_cast<std::size_t>(t)].push_back(Kernels::similar(p, a, b) ? 1 : 0);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const auto& g : got) EXPECT_EQ(g, serial);
  }
}

TEST(IterK, ConstructorRejectsNonPositiveK) {
  // k <= 0 would "match" against a representative that was never stored
  // (the dangling-representative bug): tryMatch's compatibleCount >= k_
  // holds on an empty bucket, returning SegmentId 0 of an empty store.
  EXPECT_THROW(IterKPolicy(0), std::invalid_argument);
  EXPECT_THROW(IterKPolicy(-3), std::invalid_argument);
  EXPECT_EQ(IterKPolicy(1).k(), 1);
}

TEST(Methods, MakePolicyValidatesIterKThreshold) {
  EXPECT_THROW(makePolicy(Method::kIterK, 0.0), std::invalid_argument);
  EXPECT_THROW(makePolicy(Method::kIterK, -3.0), std::invalid_argument);
  EXPECT_THROW(makePolicy(Method::kIterK, 2.5), std::invalid_argument);
  EXPECT_THROW(makePolicy(Method::kIterK, 1e18), std::invalid_argument);  // > INT_MAX
  EXPECT_NE(makePolicy(Method::kIterK, 1.0), nullptr);
  EXPECT_NE(makePolicy(Method::kIterK, 1000.0), nullptr);
  // Every study k is valid by construction.
  for (double k : studyThresholds(Method::kIterK))
    EXPECT_NO_THROW(validateThreshold(Method::kIterK, k));
  // The other thresholded methods require a finite, non-negative threshold.
  EXPECT_NO_THROW(validateThreshold(Method::kAvgWave, 0.25));
  EXPECT_THROW(makePolicy(Method::kAbsDiff, -5.0), std::invalid_argument);
  EXPECT_THROW(makePolicy(Method::kRelDiff, std::nan("")), std::invalid_argument);
  EXPECT_THROW(makePolicy(Method::kEuclidean, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // iter_avg ignores its threshold entirely.
  EXPECT_NO_THROW(makePolicy(Method::kIterAvg, -1.0));
}

TEST(IterK, KeepsExactlyKThenMatchesLast) {
  StringTable names;
  IterKPolicy policy(3);
  SegmentStore store;
  for (int i = 0; i < 3; ++i) {
    const Segment s = jittered(names, i);
    EXPECT_FALSE(tryMatch(policy, s, store).has_value());
    store.add(s);
  }
  for (int i = 3; i < 10; ++i) {
    const auto match = tryMatch(policy, jittered(names, i), store);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(*match, 2u);  // last stored copy
  }
  EXPECT_EQ(store.size(), 3u);
}

TEST(IterAvg, RunningAverageConvergesToMean) {
  StringTable names;
  IterAvgPolicy policy;
  policy.beginRank();
  SegmentStore store;
  const Segment first = jittered(names, 0);
  const SegmentId id = store.add(first);
  policy.onStored(store.segment(id), id);
  // deltas 0, 10, 20 -> mean end = 1000 + 10.
  EXPECT_TRUE(tryMatch(policy, jittered(names, 10), store).has_value());
  EXPECT_TRUE(tryMatch(policy, jittered(names, 20), store).has_value());
  policy.finishRank(store);
  EXPECT_EQ(store.segment(id).end, 1010);
  EXPECT_EQ(store.segment(id).events[0].end, 910);
}

TEST(Methods, RegistryNamesRoundTrip) {
  for (Method m : allMethods()) {
    EXPECT_EQ(methodByName(methodName(m)), m);
  }
  EXPECT_THROW(methodByName("bogus"), std::invalid_argument);
  EXPECT_EQ(allMethods().size(), 9u);
  EXPECT_EQ(thresholdedMethods().size(), 8u);
}

TEST(Methods, ByNameIsCaseInsensitive) {
  // User-typed CLI input passes straight through.
  EXPECT_EQ(methodByName("manhattan"), Method::kManhattan);
  EXPECT_EQ(methodByName("RELDIFF"), Method::kRelDiff);
  EXPECT_EQ(methodByName("AvgWave"), Method::kAvgWave);
  EXPECT_EQ(methodByName("ITER_K"), Method::kIterK);
  // Prefixes or extensions of a valid name are still unknown.
  EXPECT_THROW(methodByName("manhatta"), std::invalid_argument);
  EXPECT_THROW(methodByName("manhattann"), std::invalid_argument);
}

TEST(Methods, UnknownNameErrorListsAllNineMethods) {
  try {
    methodByName("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
    for (Method m : allMethods())
      EXPECT_NE(what.find(methodName(m)), std::string::npos) << what;
  }
}

TEST(Methods, PaperDefaultThresholds) {
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kRelDiff), 0.8);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kAbsDiff), 1000.0);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kManhattan), 0.4);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kEuclidean), 0.2);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kChebyshev), 0.2);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kIterK), 10.0);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kAvgWave), 0.2);
  EXPECT_DOUBLE_EQ(defaultThreshold(Method::kHaarWave), 0.2);
}

TEST(Methods, StudyThresholdsMatchPaper) {
  EXPECT_EQ(studyThresholds(Method::kRelDiff),
            (std::vector<double>{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}));
  EXPECT_EQ(studyThresholds(Method::kAbsDiff),
            (std::vector<double>{1e1, 1e2, 1e3, 1e4, 1e5, 1e6}));
  EXPECT_EQ(studyThresholds(Method::kIterK),
            (std::vector<double>{1, 10, 50, 100, 500, 1000}));
  EXPECT_TRUE(studyThresholds(Method::kIterAvg).empty());
}

TEST(Methods, PolicyNamesMatchRegistry) {
  for (Method m : allMethods()) {
    EXPECT_EQ(makeDefaultPolicy(m)->name(), methodName(m));
  }
}

}  // namespace
}  // namespace tracered::core
