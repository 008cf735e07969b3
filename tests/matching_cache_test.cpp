// The indexed matching path against the literal Sec. 3.1 loop: bit-identical
// results for both acceleration tiers (off / indexed) on every method on
// every registered workload (iterated from eval::allWorkloads(), so the
// paper's 18 programs AND every scenario), the exec-id range property that
// catches dangling-representative bugs (iter_k with k <= 0 used to emit
// execs against SegmentId 0 of an empty store), counter determinism across
// the serial reference and the session's parallel / pooled / streaming
// paths, stale-state invalidation after SegmentStore::clear(), and
// FeatureCache behavior.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/methods.hpp"
#include "core/reducer.hpp"
#include "core/reduction_session.hpp"
#include "core/segment_store.hpp"
#include "eval/workloads.hpp"
#include "test_helpers.hpp"
#include "trace/segmenter.hpp"
#include "util/executor.hpp"

namespace tracered::core {
namespace {

using testing::makeSegment;

struct Prepared {
  Trace trace;
  SegmentedTrace segmented;
};

const Prepared& workload(const std::string& name) {
  static std::map<std::string, Prepared> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    eval::WorkloadOptions opts;
    opts.scale = 0.08;
    Prepared p;
    p.trace = eval::runWorkload(name, opts);
    p.segmented = segmentTrace(p.trace);
    it = cache.emplace(name, std::move(p)).first;
  }
  return it->second;
}

/// The nine methods at their paper defaults, plus iter_k@1 — the k edge the
/// dangling-representative bug hid behind (k=1 matches as soon as one
/// representative exists; k=0 used to "match" against an empty store).
std::vector<ReductionConfig> sweepConfigs() {
  std::vector<ReductionConfig> cfgs;
  for (Method m : allMethods()) cfgs.push_back(ReductionConfig::defaults(m));
  cfgs.push_back(ReductionConfig{Method::kIterK, 1.0});
  return cfgs;
}

void expectBitIdentical(const ReductionResult& a, const ReductionResult& b) {
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.reduced.names.all(), b.reduced.names.all());
  ASSERT_EQ(a.reduced.ranks.size(), b.reduced.ranks.size());
  for (std::size_t r = 0; r < a.reduced.ranks.size(); ++r)
    EXPECT_EQ(a.reduced.ranks[r], b.reduced.ranks[r]) << "rank index " << r;
}

ReductionResult reduceWith(const Prepared& p, const ReductionConfig& cfg) {
  return ReductionSession(p.trace.names(), cfg).reduce(p.segmented);
}

/// Every exec must point at a representative that was actually stored —
/// the property the iter_k@0 bug violated.
void expectExecIdsInRange(const ReductionResult& res) {
  for (const RankReduced& rr : res.reduced.ranks)
    for (const SegmentExec& e : rr.execs)
      ASSERT_LT(e.id, rr.stored.size()) << "rank " << rr.rank;
}

TEST(MatchingCache, AllTiersBitIdenticalOnEveryWorkloadAndMethod) {
  for (const std::string& w : eval::allWorkloads()) {
    const Prepared& p = workload(w);
    for (ReductionConfig cfg : sweepConfigs()) {
      SCOPED_TRACE(w + " " + cfg.toString());
      cfg.acceleration = AccelerationTier::kOff;
      const ReductionResult off = reduceWith(p, cfg);
      cfg.acceleration = AccelerationTier::kIndexed;
      const ReductionResult indexed = reduceWith(p, cfg);

      expectBitIdentical(off, indexed);
      expectExecIdsInRange(indexed);

      // The literal loop never indexes anything.
      EXPECT_EQ(off.counters.indexPruned, 0u);
      EXPECT_EQ(off.counters.indexVisited, 0u);
      EXPECT_EQ(off.counters.pivotDistEvals, 0u);
      // The indexed tier examines at most what the full scan examined, and
      // every examined entry is either bound-rejected or exactly compared.
      EXPECT_LE(indexed.counters.comparisons, off.counters.comparisons);
      EXPECT_LE(indexed.counters.indexVisited, indexed.counters.comparisons);
    }
  }
}

TEST(MatchingCache, IndexedPathMatchesEveryDriver) {
  // The serial policy-level reduceTrace is the reference; the session's
  // parallel, pooled and streaming paths must reproduce both the result and
  // the counters bit-exactly.
  for (const std::string& w : {std::string("late_sender"), std::string("sweep3d_8p"),
                               std::string("scenario:sparse_ranks")}) {
    const Prepared& p = workload(w);
    for (Method m : allMethods()) {
      SCOPED_TRACE(w + " " + methodName(m));
      const ReductionConfig cfg = ReductionConfig::defaults(m);
      const ReductionResult serial =
          reduceTrace(p.segmented, p.trace.names(), *cfg.makePolicy());

      util::PooledExecutor fourThreads(4);
      const ReductionResult parallel = reduceWith(p, cfg.withExecutor(fourThreads));
      expectBitIdentical(serial, parallel);
      EXPECT_EQ(serial.counters, parallel.counters);

      util::PooledExecutor pool(3);
      const ReductionResult pooled = reduceWith(p, cfg.withExecutor(pool));
      expectBitIdentical(serial, pooled);
      EXPECT_EQ(serial.counters, pooled.counters);

      ReductionSession registered(p.trace.names(), cfg.withExecutor(pool));
      for (Rank r = 0; r < p.trace.numRanks(); ++r) {
        registered.ensureRank(r);
        for (const RawRecord& rec : p.trace.rank(r).records) registered.feed(r, rec);
      }
      const ReductionResult online = registered.finish();
      expectBitIdentical(serial, online);
      EXPECT_EQ(serial.counters, online.counters);

      ReductionSession session(p.trace.names(), cfg);
      for (Rank r = 0; r < p.trace.numRanks(); ++r)
        for (const RawRecord& rec : p.trace.rank(r).records) session.feed(r, rec);
      const ReductionResult streamed = session.finish();
      expectBitIdentical(serial, streamed);
      EXPECT_EQ(serial.counters, streamed.counters);
    }
  }
}

TEST(MatchingCache, IndexExcludesDissimilarEntriesBeforeAnyExactComparison) {
  // Same signature, wildly different durations: the stored norm falls
  // outside the candidate's admissible window at a tight Euclidean
  // threshold, so the entry is never even visited.
  StringTable names;
  const Segment shortSeg = makeSegment(names, "m", 0, 100,
                                       {{"f", OpKind::kCompute, 1, 99, {}}});
  const Segment longSeg = makeSegment(names, "m", 0, 1000000,
                                      {{"f", OpKind::kCompute, 1, 999999, {}}});
  MinkowskiPolicy policy(MinkowskiPolicy::Order::kEuclidean, 0.01);
  policy.beginRank();
  SegmentStore store;
  const SegmentId id = store.add(shortSeg);
  policy.onStored(store.segment(id), id);
  EXPECT_FALSE(policy.tryMatch(longSeg, store).has_value());
  EXPECT_EQ(policy.matchCounters().indexPruned, 1u);
  EXPECT_EQ(policy.matchCounters().indexVisited, 0u);
  EXPECT_EQ(policy.matchCounters().comparisons, 0u);  // never entered the window
}

TEST(MatchingCache, LazyFeatureFillServesStoresPopulatedBehindThePolicy) {
  // Representatives added without the onStored hook (manual SegmentStore
  // use) still match: the cache and index fill lazily during the scan.
  StringTable names;
  const Segment a = makeSegment(names, "m", 0, 100,
                                {{"f", OpKind::kCompute, 1, 99, {}}});
  Segment b = a;
  b.end += 1;
  for (AccelerationTier tier : {AccelerationTier::kOff, AccelerationTier::kIndexed}) {
    MinkowskiPolicy policy(MinkowskiPolicy::Order::kEuclidean, 0.5);
    policy.setAccelerationTier(tier);
    policy.beginRank();
    SegmentStore store;
    store.add(a);  // no onStored
    const auto match = policy.tryMatch(b, store);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(*match, 0u);
  }
}

TEST(MatchingCache, StoreClearInvalidatesCachedFeaturesAndIndexes) {
  // Regression: a store cleared and repopulated reuses SegmentIds. The
  // policy's derived state (FeatureCache, per-bucket indexes) must notice
  // the new generation instead of serving the old id-0 features — which
  // would "match" the old segment against a completely different new one.
  StringTable names;
  const Segment original = makeSegment(names, "m", 0, 100,
                                       {{"f", OpKind::kCompute, 1, 99, {}}});
  const Segment replacement = makeSegment(names, "m", 0, 1000000,
                                          {{"f", OpKind::kCompute, 1, 999999, {}}});
  for (AccelerationTier tier : {AccelerationTier::kOff, AccelerationTier::kIndexed}) {
    MinkowskiPolicy policy(MinkowskiPolicy::Order::kEuclidean, 0.1);
    policy.setAccelerationTier(tier);
    policy.beginRank();
    SegmentStore store;
    SegmentId id = store.add(original);
    policy.onStored(store.segment(id), id);
    EXPECT_TRUE(policy.tryMatch(original, store).has_value());

    store.clear();
    id = store.add(replacement);  // reuses id 0
    policy.onStored(store.segment(id), id);
    // Stale features for the old id 0 would accept this match.
    EXPECT_FALSE(policy.tryMatch(original, store).has_value())
        << "tier " << static_cast<int>(tier);
    EXPECT_TRUE(policy.tryMatch(replacement, store).has_value());
  }

  // iter_k keeps its own class index keyed by id; the same invalidation
  // applies (a stale class count would claim k executions already exist).
  IterKPolicy iterK(1);
  iterK.beginRank();
  SegmentStore store;
  SegmentId id = store.add(original);
  iterK.onStored(store.segment(id), id);
  EXPECT_TRUE(iterK.tryMatch(original, store).has_value());
  store.clear();
  EXPECT_FALSE(iterK.tryMatch(original, store).has_value());
}

TEST(MatchingCache, AccelerationOffNeverPopulatesTheCacheButStillMatches) {
  StringTable names;
  const Segment a = makeSegment(names, "m", 0, 100,
                                {{"f", OpKind::kCompute, 1, 99, {}}});
  for (Method m : {Method::kRelDiff, Method::kAbsDiff, Method::kEuclidean,
                   Method::kAvgWave, Method::kHaarWave}) {
    auto policy = makePolicy(m, 1e9);
    policy->setAccelerationTier(AccelerationTier::kOff);
    EXPECT_EQ(policy->accelerationTier(), AccelerationTier::kOff);
    policy->beginRank();
    SegmentStore store;
    const SegmentId id = store.add(a);
    policy->onStored(store.segment(id), id);
    EXPECT_TRUE(policy->tryMatch(a, store).has_value()) << methodName(m);
    EXPECT_EQ(policy->matchCounters().indexVisited, 0u);
    EXPECT_EQ(policy->matchCounters().indexPruned, 0u);
  }
}

TEST(FeatureCache, PutGetOrComputeAndClear) {
  FeatureCache cache;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.has(0));

  SegmentFeatures f;
  f.vec = {1.0, 2.0};
  f.norm = 3.0;
  f.maxAbs = 2.0;
  cache.put(1, f);
  EXPECT_TRUE(cache.has(1));
  EXPECT_FALSE(cache.has(0));  // resized slot exists but is empty
  EXPECT_EQ(cache.size(), 2u);

  int computations = 0;
  const SegmentFeatures& lazy = cache.getOrCompute(0, [&] {
    ++computations;
    SegmentFeatures g;
    g.norm = 7.0;
    return g;
  });
  EXPECT_EQ(lazy.norm, 7.0);
  EXPECT_EQ(computations, 1);
  // Second lookup hits the cache.
  (void)cache.getOrCompute(0, [&] {
    ++computations;
    return SegmentFeatures{};
  });
  EXPECT_EQ(computations, 1);
  EXPECT_EQ(cache.getOrCompute(1, [] { return SegmentFeatures{}; }).norm, 3.0);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.has(1));
}

TEST(MatchCountersTest, MergeAndDiff) {
  MatchCounters a{10, 4};
  const MatchCounters b{5, 1};
  a.merge(b);
  EXPECT_EQ(a.comparisons, 15u);
  EXPECT_EQ(a.indexVisited, 5u);
  const MatchCounters d = a - b;
  EXPECT_EQ(d.comparisons, 10u);
  EXPECT_EQ(d.indexVisited, 4u);
}

}  // namespace
}  // namespace tracered::core
