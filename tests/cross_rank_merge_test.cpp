// The hierarchical cross-rank merge's contract: for EVERY registered
// workload × every method × every shard size × thread count, the tree merge
// is bit-identical (serialized TRM1 bytes) to the serial reference pass —
// including the hand-built non-transitivity case that breaks naive subtree
// merging — plus counter determinism, round-trips, incremental feeding, and
// first-match-winner ordering invariants.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/cross_rank.hpp"
#include "core/methods.hpp"
#include "core/reducer.hpp"
#include "eval/scenarios.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"
#include "util/executor.hpp"

namespace tracered::core {
namespace {

ReducedTrace reduceWith(const Trace& trace, Method m) {
  auto policy = makeDefaultPolicy(m);
  return reduceTrace(segmentTrace(trace), trace.names(), *policy).reduced;
}

/// Serial reference merge under `m`'s default config.
MergedReducedTrace serialReference(const ReducedTrace& reduced, Method m,
                                   MergeStats* stats = nullptr) {
  auto policy = makeDefaultPolicy(m);
  return mergeAcrossRanks(reduced, *policy, stats);
}

// The tentpole guarantee, swept over the whole registry (iterated from
// eval::allWorkloads(), never hand-listed): for all nine methods, the
// hierarchical merge produces byte-identical TRM1 output to the serial pass
// for every shard size (1 = one rank per tree leaf, 3 = shards that straddle
// rank boundaries unevenly, 8, and 1000 = one single shard) and for serial
// vs parallel probing.
TEST(CrossRankMerge, RegistryWideTreeMergeMatchesSerial) {
  eval::WorkloadOptions opts;
  opts.scale = 0.06;
  for (const std::string& workload : eval::allWorkloads()) {
    const Trace trace = eval::runWorkload(workload, opts);
    for (Method m : allMethods()) {
      SCOPED_TRACE(workload + " " + methodName(m));
      const ReducedTrace reduced = reduceWith(trace, m);
      const std::vector<std::uint8_t> want =
          serializeMergedTrace(serialReference(reduced, m));
      for (std::size_t shard : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                std::size_t{1000}}) {
        for (int threads : {1, 4}) {
          MergeOptions mo;
          mo.config = ReductionConfig::defaults(m);
          mo.config.numThreads = threads;
          mo.shardRanks = shard;
          const MergeResult got = mergeAcrossRanks(reduced, mo);
          EXPECT_EQ(serializeMergedTrace(got.merged), want)
              << "shard=" << shard << " threads=" << threads;
          EXPECT_EQ(got.stats.inputRepresentatives, reduced.totalStored());
          EXPECT_EQ(got.stats.mergedRepresentatives, got.merged.sharedStore.size());
        }
      }
    }
  }
}

// Similarity is not transitive: with absDiff@10 and representative ends
// x=100 (rank 0), y=115 (rank 1), z=108 (rank 2), y does not match x
// (|15| > 10) but z matches BOTH x (8) and y (7). A naive subtree merge of
// {rank1, rank2} would collapse z into y; the serial rule maps z to x (the
// earliest match). The frozen-prefix tree must agree with serial for every
// shard geometry — including shard size 2, which puts y and z in the same
// subtree.
TEST(CrossRankMerge, NonTransitiveSimilarityStillMatchesSerial) {
  ReducedTrace rt;
  const NameId ctx = rt.names.intern("main.1");
  const NameId fn = rt.names.intern("do_work");
  const TimeUs ends[] = {100, 115, 108};
  for (int r = 0; r < 3; ++r) {
    RankReduced rr;
    rr.rank = r;
    Segment s;
    s.context = ctx;
    s.rank = r;
    s.end = ends[r];
    EventInterval e;
    e.name = fn;
    e.start = 0;
    e.end = ends[r];
    s.events.push_back(e);
    rr.stored.push_back(s);
    rr.execs.push_back({0, 1000});
    rt.ranks.push_back(std::move(rr));
  }

  AbsDiffPolicy ref(10);
  const MergedReducedTrace serial = mergeAcrossRanks(rt, ref, nullptr);
  ASSERT_EQ(serial.sharedStore.size(), 2u);       // x and y stored
  EXPECT_EQ(serial.sharedStore[0].end, 100);      // x
  EXPECT_EQ(serial.sharedStore[1].end, 115);      // y
  EXPECT_EQ(serial.execs[2][0].id, 0u);           // z -> x, the EARLIEST match

  const std::vector<std::uint8_t> want = serializeMergedTrace(serial);
  for (std::size_t shard : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (int threads : {1, 2}) {
      MergeOptions mo;
      mo.config = ReductionConfig{Method::kAbsDiff, 10};
      mo.config.numThreads = threads;
      mo.shardRanks = shard;
      const MergeResult got = mergeAcrossRanks(rt, mo);
      EXPECT_EQ(serializeMergedTrace(got.merged), want)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(got.merged.execs[2][0].id, 0u)
          << "z must map to x, never to the in-shard winner y";
    }
  }
}

// First-match-winner ordering invariant: representatives enter the shared
// store in (rank order, store order), so the store's per-entry rank labels
// are non-decreasing — under every shard geometry, not just serial.
TEST(CrossRankMerge, SharedStoreKeepsRankOrder) {
  eval::WorkloadOptions opts;
  opts.scale = 0.08;
  const Trace trace = eval::runWorkload("imbalance_at_mpi_barrier", opts);
  const ReducedTrace reduced = reduceWith(trace, Method::kAvgWave);
  for (std::size_t shard : {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    MergeOptions mo;
    mo.config = ReductionConfig::defaults(Method::kAvgWave);
    mo.config.numThreads = 4;
    mo.shardRanks = shard;
    const MergeResult got = mergeAcrossRanks(reduced, mo);
    for (std::size_t i = 1; i < got.merged.sharedStore.size(); ++i)
      EXPECT_LE(got.merged.sharedStore[i - 1].rank, got.merged.sharedStore[i].rank)
          << "shard=" << shard << " store entry " << i;
  }
}

// reconstructMerged ∘ merge round-trip: the merged trace expands back to one
// compatible segment per original execution with the original start times,
// for the hierarchical driver exactly as for the serial pass.
TEST(CrossRankMerge, ReconstructionRoundTripStaysStructurallyExact) {
  eval::WorkloadOptions opts;
  opts.scale = 0.08;
  const Trace trace = eval::runWorkload("1to1r_32", opts);
  const SegmentedTrace original = segmentTrace(trace);
  const ReducedTrace reduced = reduceWith(trace, Method::kManhattan);
  MergeOptions mo;
  mo.config = ReductionConfig{Method::kAbsDiff, 500};
  mo.config.numThreads = 2;
  mo.shardRanks = 3;
  const MergeResult merged = mergeAcrossRanks(reduced, mo);
  const SegmentedTrace rec = reconstructMerged(merged.merged);
  ASSERT_EQ(rec.ranks.size(), original.ranks.size());
  for (std::size_t r = 0; r < rec.ranks.size(); ++r) {
    ASSERT_EQ(rec.ranks[r].segments.size(), original.ranks[r].segments.size());
    for (std::size_t s = 0; s < rec.ranks[r].segments.size(); ++s) {
      EXPECT_TRUE(rec.ranks[r].segments[s].compatible(original.ranks[r].segments[s]));
      EXPECT_EQ(rec.ranks[r].segments[s].absStart,
                original.ranks[r].segments[s].absStart);
    }
  }
}

// TRM1 serialization round-trip: deserialize(serialize(m)) re-serializes to
// the same bytes, and reconstructs to the same per-rank segments (store-side
// rank labels are not encoded; reconstruction re-labels from the exec rows,
// so the expansion is unaffected).
TEST(CrossRankMerge, MergedTraceSerializationRoundTrips) {
  eval::WorkloadOptions opts;
  opts.scale = 0.08;
  const Trace trace = eval::runWorkload("scenario:multi_region", opts);
  const ReducedTrace reduced = reduceWith(trace, Method::kAvgWave);
  MergeOptions mo;
  mo.config = ReductionConfig::defaults(Method::kAvgWave);
  const MergeResult merged = mergeAcrossRanks(reduced, mo);

  const std::vector<std::uint8_t> bytes = serializeMergedTrace(merged.merged);
  EXPECT_EQ(bytes.size(), mergedTraceSize(merged.merged));
  const MergedReducedTrace back = deserializeMergedTrace(bytes);
  EXPECT_EQ(serializeMergedTrace(back), bytes);
  EXPECT_EQ(back.names.all(), merged.merged.names.all());
  EXPECT_EQ(back.rankIds, merged.merged.rankIds);

  const SegmentedTrace a = reconstructMerged(merged.merged);
  const SegmentedTrace b = reconstructMerged(back);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    ASSERT_EQ(a.ranks[r].segments.size(), b.ranks[r].segments.size());
    EXPECT_EQ(a.ranks[r].rank, b.ranks[r].rank);
    for (std::size_t s = 0; s < a.ranks[r].segments.size(); ++s) {
      EXPECT_TRUE(a.ranks[r].segments[s].compatible(b.ranks[r].segments[s]));
      EXPECT_EQ(a.ranks[r].segments[s].absStart, b.ranks[r].segments[s].absStart);
      EXPECT_EQ(a.ranks[r].segments[s].rank, b.ranks[r].segments[s].rank);
    }
  }
}

TEST(CrossRankMerge, RejectsMalformedMergedBytes) {
  EXPECT_THROW(deserializeMergedTrace({}), std::exception);
  std::vector<std::uint8_t> junk{0x54, 0x52, 0x4d, 0x31, 0xff};  // wrong order + version
  EXPECT_THROW(deserializeMergedTrace(junk), std::runtime_error);
}

// The MergeStats.counters contract (the latent gap this PR closes): the
// per-shard probe counters are snapshot-diffed per rank unit and summed in
// rank order at the join, so for a FIXED MergeOptions the full MergeStats —
// counters included — is identical across thread counts and executors
// (mirroring matching_cache_test's counter-determinism guarantee for the
// intra-rank pass).
TEST(CrossRankMerge, CountersAreDeterministicAcrossThreadsAndExecutors) {
  eval::WorkloadOptions opts;
  opts.scale = 0.1;
  const Trace trace = eval::runWorkload("imbalance_at_mpi_barrier", opts);
  for (Method m : {Method::kAvgWave, Method::kRelDiff, Method::kEuclidean}) {
    SCOPED_TRACE(methodName(m));
    const ReducedTrace reduced = reduceWith(trace, m);
    MergeOptions mo;
    mo.config = ReductionConfig::defaults(m);
    mo.shardRanks = 4;
    mo.config.numThreads = 1;
    const MergeResult base = mergeAcrossRanks(reduced, mo);
    EXPECT_GT(base.stats.counters.comparisons, 0u);
    for (int threads : {2, 8}) {
      MergeOptions mt = mo;
      mt.config.numThreads = threads;
      const MergeResult got = mergeAcrossRanks(reduced, mt);
      EXPECT_EQ(got.stats.counters, base.stats.counters) << "threads=" << threads;
      EXPECT_EQ(got.stats.inputRepresentatives, base.stats.inputRepresentatives);
      EXPECT_EQ(got.stats.mergedRepresentatives, base.stats.mergedRepresentatives);
    }
    util::PooledExecutor pool(4);
    MergeOptions mp = mo;
    mp.config.executor = &pool;
    const MergeResult pooled = mergeAcrossRanks(reduced, mp);
    EXPECT_EQ(pooled.stats.counters, base.stats.counters) << "pooled executor";
  }
}

/// 256 short random-walk ranks: distinct enough across ranks that the
/// merged store's buckets grow past the index activation populations.
Trace randomWalkFixture() {
  return eval::runScenario("random_walk_cost", {}, {{"ranks", 256}, {"iters", 40}});
}

// The shared store's features and per-bucket indexes are prepared once and
// extended as the store grows — never rebuilt per rank — so the merge's
// pivot-distance work tracks its inputs, not ranks × store size (a per-rank
// rebuild costs over 100 evaluations per input on this fixture).
TEST(CrossRankMerge, PivotEvalsTrackInputsNotRanksTimesStore) {
  const Trace trace = randomWalkFixture();
  auto reducePolicy = ReductionConfig{Method::kAvgWave, 0.2}.makePolicy();
  const ReducedTrace reduced =
      reduceTrace(segmentTrace(trace), trace.names(), *reducePolicy).reduced;
  MergeOptions mo;
  mo.config = ReductionConfig{Method::kAvgWave, 0.02};
  mo.shardRanks = 8;
  const MergeResult got = mergeAcrossRanks(reduced, mo);
  ASSERT_GT(got.stats.inputRepresentatives, 0u);
  EXPECT_GT(got.stats.counters.pivotDistEvals, 0u) << "pivots never activated";
  EXPECT_LE(got.stats.counters.pivotDistEvals, 4 * got.stats.inputRepresentatives);
}

// The probe's workers share ONE prepared commit policy and call its const
// match concurrently, and every tier runs through that match. So for the
// seven distance methods the merged bytes agree across tiers, thread counts
// and shard geometries, and within a tier the counters do not depend on the
// thread count. Under TSan this runs every tier's const path concurrently.
TEST(CrossRankMerge, TiersAgreeThroughTheSharedMatch) {
  const Trace trace = randomWalkFixture();
  for (Method m : allMethods()) {
    if (m == Method::kIterK || m == Method::kIterAvg) continue;
    SCOPED_TRACE(methodName(m));
    const ReducedTrace reduced = reduceWith(trace, m);
    std::vector<std::uint8_t> want;
    for (AccelerationTier tier : {AccelerationTier::kOff, AccelerationTier::kCached,
                                  AccelerationTier::kIndexed}) {
      for (std::size_t shard : {std::size_t{1}, std::size_t{5}}) {
        std::optional<MatchCounters> serialCounters;
        for (int threads : {1, 4}) {
          SCOPED_TRACE("tier=" + std::to_string(static_cast<int>(tier)) +
                       " shard=" + std::to_string(shard) +
                       " threads=" + std::to_string(threads));
          MergeOptions mo;
          mo.config = ReductionConfig::defaults(m);
          mo.config.threshold *= 0.1;  // tight: the merged store stays large
          mo.config.acceleration = tier;
          mo.config.numThreads = threads;
          mo.shardRanks = shard;
          const MergeResult got = mergeAcrossRanks(reduced, mo);
          const std::vector<std::uint8_t> bytes = serializeMergedTrace(got.merged);
          if (want.empty()) want = bytes;
          EXPECT_EQ(bytes, want);
          if (tier == AccelerationTier::kIndexed) {
            EXPECT_GT(got.stats.counters.indexPruned, 0u) << "index never consulted";
          }
          if (!serialCounters) serialCounters = got.stats.counters;
          EXPECT_EQ(got.stats.counters, *serialCounters);
        }
      }
    }
  }
}

// Incremental feeding (the bounded-memory API the scale tier builds on):
// addNames + addRank, one rank at a time, produces the same bytes as the
// whole-trace overload.
TEST(CrossRankMerge, IncrementalFeedMatchesWholeTrace) {
  eval::WorkloadOptions opts;
  opts.scale = 0.08;
  const Trace trace = eval::runWorkload("NtoN_32", opts);
  const ReducedTrace reduced = reduceWith(trace, Method::kEuclidean);
  MergeOptions mo;
  mo.config = ReductionConfig::defaults(Method::kEuclidean);
  mo.config.numThreads = 2;
  mo.shardRanks = 3;
  const MergeResult whole = mergeAcrossRanks(reduced, mo);

  CrossRankMerger merger(mo);
  merger.addNames(reduced.names);
  for (const RankReduced& rr : reduced.ranks) merger.addRank(reduced.names, rr);
  EXPECT_EQ(merger.ranksAdded(), reduced.ranks.size());
  const MergeResult incremental = merger.finish();
  EXPECT_EQ(serializeMergedTrace(incremental.merged),
            serializeMergedTrace(whole.merged));
  EXPECT_EQ(incremental.stats.counters, whole.stats.counters);
  EXPECT_THROW(merger.finish(), std::logic_error);
  EXPECT_THROW(merger.addRank(reduced.names, reduced.ranks[0]), std::logic_error);
}

// Ranks fed from DIFFERENT string tables (independent per-rank reductions,
// the multi-file ingest shape): name ids are remapped into the merger's
// table, so equal-named contexts still merge across ranks.
TEST(CrossRankMerge, RemapsNamesAcrossIndependentTables) {
  auto makeRank = [](Rank rank, std::vector<std::string> nameOrder) {
    auto out = std::make_pair(StringTable{}, RankReduced{});
    for (const auto& n : nameOrder) out.first.intern(n);
    out.second.rank = rank;
    Segment s;
    s.context = out.first.find("main.1");
    s.rank = rank;
    s.end = 50;
    EventInterval e;
    e.name = out.first.find("do_work");
    e.start = 0;
    e.end = 50;
    s.events.push_back(e);
    out.second.stored.push_back(s);
    out.second.execs.push_back({0, 10});
    return out;
  };
  // Same names, interned in opposite orders: the ids differ per table.
  const auto a = makeRank(0, {"main.1", "do_work"});
  const auto b = makeRank(1, {"do_work", "main.1"});

  MergeOptions mo;
  mo.config = ReductionConfig{Method::kAbsDiff, 10};
  CrossRankMerger merger(mo);
  merger.addRank(a.first, a.second);
  merger.addRank(b.first, b.second);
  const MergeResult merged = merger.finish();
  ASSERT_EQ(merged.merged.sharedStore.size(), 1u)
      << "equal-named representatives must merge despite differing name ids";
  EXPECT_EQ(merged.merged.names.name(merged.merged.sharedStore[0].context), "main.1");
  EXPECT_EQ(merged.merged.execs[1][0].id, 0u);
}

}  // namespace
}  // namespace tracered::core
