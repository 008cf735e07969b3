// Tests for the streaming reducer: bit-equivalence with the offline
// pipeline, stream validation, and memory accounting.
#include <gtest/gtest.h>

#include "core/online_reducer.hpp"
#include "core/reconstruct.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"

namespace tracered::core {
namespace {

eval::WorkloadOptions tiny() {
  eval::WorkloadOptions o;
  o.scale = 0.1;
  return o;
}

ReductionResult offline(const Trace& trace, Method m, double thr) {
  auto policy = makePolicy(m, thr);
  return reduceTrace(segmentTrace(trace), trace.names(), *policy);
}

ReductionResult online(const Trace& trace, Method m, double thr) {
  OnlineReducer red(trace.names(), ReductionConfig{m, thr});
  for (Rank r = 0; r < trace.numRanks(); ++r)
    for (const RawRecord& rec : trace.rank(r).records) red.feed(r, rec);
  return red.finish();
}

void expectEqual(const ReductionResult& a, const ReductionResult& b) {
  EXPECT_EQ(a.stats.totalSegments, b.stats.totalSegments);
  EXPECT_EQ(a.stats.matches, b.stats.matches);
  EXPECT_EQ(a.stats.possibleMatches, b.stats.possibleMatches);
  EXPECT_EQ(a.stats.storedSegments, b.stats.storedSegments);
  ASSERT_EQ(a.reduced.ranks.size(), b.reduced.ranks.size());
  for (std::size_t r = 0; r < a.reduced.ranks.size(); ++r) {
    EXPECT_EQ(a.reduced.ranks[r].execs, b.reduced.ranks[r].execs);
    ASSERT_EQ(a.reduced.ranks[r].stored.size(), b.reduced.ranks[r].stored.size());
    for (std::size_t s = 0; s < a.reduced.ranks[r].stored.size(); ++s) {
      EXPECT_EQ(a.reduced.ranks[r].stored[s].events, b.reduced.ranks[r].stored[s].events);
      EXPECT_EQ(a.reduced.ranks[r].stored[s].end, b.reduced.ranks[r].stored[s].end);
    }
  }
}

TEST(OnlineReducer, MatchesOfflineForEveryMethod) {
  const Trace trace = eval::runWorkload("late_sender", tiny());
  for (Method m : allMethods()) {
    SCOPED_TRACE(methodName(m));
    expectEqual(online(trace, m, defaultThreshold(m)),
                offline(trace, m, defaultThreshold(m)));
  }
}

TEST(OnlineReducer, MatchesOfflineOnNoisyWorkload) {
  const Trace trace = eval::runWorkload("1to1r_1024", tiny());
  expectEqual(online(trace, Method::kAvgWave, 0.2),
              offline(trace, Method::kAvgWave, 0.2));
}

TEST(OnlineReducer, MatchesOfflineOnSweep3D) {
  sweep3d::Sweep3DConfig cfg = sweep3d::config8p();
  cfg.iterations = 2;
  const Trace trace = sweep3d::runSweep3D(cfg);
  expectEqual(online(trace, Method::kEuclidean, 0.2),
              offline(trace, Method::kEuclidean, 0.2));
}

TEST(OnlineReducer, RejectsMalformedStreams) {
  StringTable names;
  const NameId fn = names.intern("f");
  const NameId ctx = names.intern("c");
  SimilarityPolicy* unused = nullptr;
  (void)unused;

  auto policy = makePolicy(Method::kAbsDiff, 1e9);
  {
    OnlineRankReducer red(0, names, *policy);
    RawRecord rec;
    rec.kind = RecordKind::kEnter;
    rec.name = fn;
    EXPECT_THROW(red.feed(rec), std::runtime_error);  // event outside segment
  }
  {
    OnlineRankReducer red(0, names, *policy);
    RawRecord b;
    b.kind = RecordKind::kSegBegin;
    b.name = ctx;
    red.feed(b);
    RawRecord e;
    e.kind = RecordKind::kSegEnd;
    e.name = fn;  // wrong context
    EXPECT_THROW(red.feed(e), std::runtime_error);
  }
  {
    OnlineRankReducer red(0, names, *policy);
    RawRecord b;
    b.kind = RecordKind::kSegBegin;
    b.name = ctx;
    red.feed(b);
    EXPECT_THROW(red.finish(), std::runtime_error);  // open segment at end
  }
}

TEST(OnlineReducer, RejectsNonMonotonicTimestamps) {
  // Negative durations must never flow into reduction: a segment end or
  // event exit before its begin (or an enter before its segment began) is a
  // malformed stream, rejected with rank + record context.
  StringTable names;
  const NameId fn = names.intern("f");
  const NameId ctx = names.intern("c");
  auto policy = makePolicy(Method::kAbsDiff, 1e9);

  auto rec = [](RecordKind kind, NameId name, TimeUs time) {
    RawRecord r;
    r.kind = kind;
    r.name = name;
    r.time = time;
    return r;
  };

  {
    OnlineRankReducer red(3, names, *policy);
    red.feed(rec(RecordKind::kSegBegin, ctx, 100));
    try {
      red.feed(rec(RecordKind::kSegEnd, ctx, 50));  // ends before it began
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
      EXPECT_NE(what.find("before its begin"), std::string::npos) << what;
    }
  }
  {
    OnlineRankReducer red(0, names, *policy);
    red.feed(rec(RecordKind::kSegBegin, ctx, 100));
    red.feed(rec(RecordKind::kEnter, fn, 150));
    try {
      red.feed(rec(RecordKind::kExit, fn, 140));  // exits before it entered
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
      EXPECT_NE(what.find("before its enter"), std::string::npos) << what;
    }
  }
  {
    OnlineRankReducer red(0, names, *policy);
    red.feed(rec(RecordKind::kSegBegin, ctx, 100));
    EXPECT_THROW(red.feed(rec(RecordKind::kEnter, fn, 90)),  // before segment
                 std::runtime_error);
  }
  {
    // Equal timestamps (zero-length segment / event) remain valid.
    OnlineRankReducer red(0, names, *policy);
    red.feed(rec(RecordKind::kSegBegin, ctx, 100));
    red.feed(rec(RecordKind::kEnter, fn, 100));
    red.feed(rec(RecordKind::kExit, fn, 100));
    red.feed(rec(RecordKind::kSegEnd, ctx, 100));
    EXPECT_EQ(red.stats().totalSegments, 1u);
  }
}

TEST(OnlineReducer, FinishIsTerminal) {
  StringTable names;
  names.intern("c");
  auto policy = makePolicy(Method::kAbsDiff, 1e9);
  OnlineRankReducer red(0, names, *policy);
  RawRecord b;
  b.kind = RecordKind::kSegBegin;
  b.name = 0;
  b.time = 0;
  RawRecord e;
  e.kind = RecordKind::kSegEnd;
  e.name = 0;
  e.time = 5;
  red.feed(b);
  red.feed(e);
  (void)red.finish();
  EXPECT_THROW(red.feed(b), std::runtime_error);
}

TEST(OnlineReducer, RetainedBytesGrowWithStoredSegments) {
  const Trace trace = eval::runWorkload("late_sender", tiny());
  auto strict = makePolicy(Method::kAbsDiff, 0.0);
  auto loose = makePolicy(Method::kAbsDiff, 1e9);
  OnlineRankReducer a(0, trace.names(), *strict);
  OnlineRankReducer b(0, trace.names(), *loose);
  for (const RawRecord& rec : trace.rank(0).records) {
    a.feed(rec);
    b.feed(rec);
  }
  EXPECT_GT(a.retainedBytes(), b.retainedBytes());
}

TEST(OnlineReducer, ReconstructionFromStreamedReductionWorks) {
  const Trace trace = eval::runWorkload("early_gather", tiny());
  const ReductionResult res = online(trace, Method::kManhattan, 0.4);
  const SegmentedTrace rec = reconstruct(res.reduced);
  EXPECT_EQ(rec.totalSegments(), segmentTrace(trace).totalSegments());
}

// A rank registered with ensureRank but never fed builds no policy or
// reducer; its result must still be exactly an empty rank's offline
// reduction — records, stats and match counters — for every method and tier.
TEST(OnlineReducer, IdleRanksReduceLikeEmptyRanks) {
  const Trace trace = eval::runWorkload("late_sender", tiny());
  SegmentedTrace segmented;
  segmented.ranks.resize(3);
  segmented.ranks[0].rank = 0;
  RankTrace fed = trace.rank(0);
  fed.rank = 2;
  segmented.ranks[1] = segmentRank(fed, trace.names());
  segmented.ranks[2].rank = 7;
  for (const Method m : allMethods()) {
    for (const AccelerationTier tier :
         {AccelerationTier::kOff, AccelerationTier::kCached, AccelerationTier::kIndexed}) {
      SCOPED_TRACE(std::string(methodName(m)) + " tier " + std::to_string(static_cast<int>(tier)));
      ReductionConfig config = ReductionConfig::defaults(m);
      config.acceleration = tier;
      OnlineReducer red(trace.names(), config);
      red.ensureRank(7);
      red.ensureRank(0);
      for (const RawRecord& rec : trace.rank(0).records) red.feed(2, rec);
      const ReductionResult streamed = red.finish();
      const ReductionResult expected = reduceTrace(segmented, trace.names(), config);
      EXPECT_EQ(streamed.reduced.ranks, expected.reduced.ranks);
      EXPECT_EQ(streamed.stats, expected.stats);
      EXPECT_EQ(streamed.counters, expected.counters);
    }
  }
}

TEST(OnlineReducer, NegativeRankRejected) {
  StringTable names;
  OnlineReducer red(names, ReductionConfig{Method::kAbsDiff, 1.0});
  RawRecord rec;
  rec.kind = RecordKind::kSegBegin;
  rec.name = 0;
  EXPECT_THROW(red.feed(-1, rec), std::invalid_argument);
}

}  // namespace
}  // namespace tracered::core
