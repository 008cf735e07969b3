// Tests for ReductionSession's streaming path (feed/ensureRank/finish):
// bit-equivalence with the serial offline reduction, reconstruction from a
// streamed reduction, stream validation with its pinned messages, negative
// and idle ranks, and retained-bytes accounting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "tracered.hpp"

#include "eval/workloads.hpp"
#include "sweep3d/sweep3d.hpp"

namespace tracered::core {
namespace {

// --- streaming == offline ----------------------------------------------------

eval::WorkloadOptions tiny() {
  eval::WorkloadOptions o;
  o.scale = 0.1;
  return o;
}

ReductionResult offlineSerial(const Trace& trace, Method m, double thr) {
  auto policy = makePolicy(m, thr);
  return reduceTrace(segmentTrace(trace), trace.names(), *policy);
}

ReductionResult streamed(const Trace& trace, Method m, double thr) {
  ReductionSession session(trace.names(), ReductionConfig{m, thr});
  for (Rank r = 0; r < trace.numRanks(); ++r)
    for (const RawRecord& rec : trace.rank(r).records) session.feed(r, rec);
  return session.finish();
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

TEST(ReductionSessionStreaming, MatchesOfflineForEveryMethod) {
  const Trace trace = eval::runWorkload("late_sender", tiny());
  for (Method m : allMethods()) {
    SCOPED_TRACE(methodName(m));
    expectEqual(streamed(trace, m, defaultThreshold(m)),
                offlineSerial(trace, m, defaultThreshold(m)));
  }
}

TEST(ReductionSessionStreaming, MatchesOfflineOnNoisyWorkload) {
  const Trace trace = eval::runWorkload("1to1r_1024", tiny());
  expectEqual(streamed(trace, Method::kAvgWave, 0.2),
              offlineSerial(trace, Method::kAvgWave, 0.2));
}

TEST(ReductionSessionStreaming, MatchesOfflineOnSweep3D) {
  sweep3d::Sweep3DConfig cfg = sweep3d::config8p();
  cfg.iterations = 2;
  const Trace trace = sweep3d::runSweep3D(cfg);
  expectEqual(streamed(trace, Method::kEuclidean, 0.2),
              offlineSerial(trace, Method::kEuclidean, 0.2));
}

TEST(ReductionSessionStreaming, ReconstructionFromStreamedReductionWorks) {
  const Trace trace = eval::runWorkload("early_gather", tiny());
  const ReductionResult res = streamed(trace, Method::kManhattan, 0.4);
  const SegmentedTrace rec = reconstruct(res.reduced);
  EXPECT_EQ(rec.totalSegments(), segmentTrace(trace).totalSegments());
}

// --- stream validation ----------------------------------------------------------

RawRecord record(RecordKind kind, NameId name, TimeUs time) {
  RawRecord r;
  r.kind = kind;
  r.name = name;
  r.time = time;
  return r;
}

TEST(ReductionSessionStreaming, RejectsMalformedStreams) {
  StringTable names;
  const NameId fn = names.intern("f");
  const NameId ctx = names.intern("c");
  const ReductionConfig config{Method::kAbsDiff, 1e9};
  {
    ReductionSession session(names, config);
    EXPECT_THROW(session.feed(0, record(RecordKind::kEnter, fn, 0)),
                 std::runtime_error);  // event outside segment
  }
  {
    ReductionSession session(names, config);
    session.feed(0, record(RecordKind::kSegBegin, ctx, 0));
    EXPECT_THROW(session.feed(0, record(RecordKind::kSegEnd, fn, 0)),  // wrong context
                 std::runtime_error);
  }
  {
    ReductionSession session(names, config);
    session.feed(0, record(RecordKind::kSegBegin, ctx, 0));
    EXPECT_THROW(session.finish(), std::runtime_error);  // open segment at end
  }
}

TEST(ReductionSessionStreaming, RejectsNonMonotonicTimestamps) {
  // Negative durations must never flow into reduction: a segment end or
  // event exit before its begin (or an enter before its segment began) is a
  // malformed stream, rejected with rank + record context.
  StringTable names;
  const NameId fn = names.intern("f");
  const NameId ctx = names.intern("c");
  const ReductionConfig config{Method::kAbsDiff, 1e9};

  {
    ReductionSession session(names, config);
    session.feed(3, record(RecordKind::kSegBegin, ctx, 100));
    try {
      session.feed(3, record(RecordKind::kSegEnd, ctx, 50));  // ends before it began
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 3"), std::string::npos) << what;
      EXPECT_NE(what.find("before its begin"), std::string::npos) << what;
    }
  }
  {
    ReductionSession session(names, config);
    session.feed(0, record(RecordKind::kSegBegin, ctx, 100));
    session.feed(0, record(RecordKind::kEnter, fn, 150));
    try {
      session.feed(0, record(RecordKind::kExit, fn, 140));  // exits before it entered
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
      EXPECT_NE(what.find("before its enter"), std::string::npos) << what;
    }
  }
  {
    ReductionSession session(names, config);
    session.feed(0, record(RecordKind::kSegBegin, ctx, 100));
    EXPECT_THROW(session.feed(0, record(RecordKind::kEnter, fn, 90)),  // before segment
                 std::runtime_error);
  }
  {
    // Equal timestamps (zero-length segment / event) remain valid.
    ReductionSession session(names, config);
    session.feed(0, record(RecordKind::kSegBegin, ctx, 100));
    session.feed(0, record(RecordKind::kEnter, fn, 100));
    session.feed(0, record(RecordKind::kExit, fn, 100));
    session.feed(0, record(RecordKind::kSegEnd, ctx, 100));
    EXPECT_EQ(session.finish().stats.totalSegments, 1u);
  }
}

TEST(ReductionSessionStreaming, FinishIsTerminal) {
  StringTable names;
  const NameId ctx = names.intern("c");
  ReductionSession session(names, ReductionConfig{Method::kAbsDiff, 1e9});
  session.feed(0, record(RecordKind::kSegBegin, ctx, 0));
  session.feed(0, record(RecordKind::kSegEnd, ctx, 5));
  (void)session.finish();
  EXPECT_THROW(session.feed(0, record(RecordKind::kSegBegin, ctx, 10)), std::logic_error);
}

TEST(ReductionSessionStreaming, NegativeRankRejected) {
  StringTable names;
  ReductionSession session(names, ReductionConfig{Method::kAbsDiff, 1.0});
  EXPECT_THROW(session.feed(-1, record(RecordKind::kSegBegin, 0, 0)),
               std::invalid_argument);
  EXPECT_THROW(session.ensureRank(-1), std::invalid_argument);
}

// --- retained bytes and idle ranks ---------------------------------------------

TEST(ReductionSessionStreaming, RetainedBytesGrowWithStoredSegments) {
  const Trace trace = eval::runWorkload("late_sender", tiny());
  ReductionSession strict(trace.names(), ReductionConfig{Method::kAbsDiff, 0.0});
  ReductionSession loose(trace.names(), ReductionConfig{Method::kAbsDiff, 1e9});
  EXPECT_EQ(strict.retainedBytes(), 0u);
  std::size_t previous = 0;
  for (const RawRecord& rec : trace.rank(0).records) {
    strict.feed(0, rec);
    loose.feed(0, rec);
    EXPECT_GE(strict.retainedBytes(), previous);  // never shrinks while streaming
    previous = strict.retainedBytes();
  }
  EXPECT_GT(strict.retainedBytes(), loose.retainedBytes());

  // The session sums its ranks' engines.
  for (const RawRecord& rec : trace.rank(1).records) strict.feed(1, rec);
  EXPECT_GT(strict.retainedBytes(), previous);

  (void)strict.finish();
  EXPECT_EQ(strict.retainedBytes(), 0u);  // moved into the result
}

// A rank registered with ensureRank but never fed builds no policy or
// engine; its result must still be exactly an empty rank's offline
// reduction — records, stats and match counters — for every method and tier.
TEST(ReductionSessionStreaming, IdleRanksReduceLikeEmptyRanks) {
  const Trace trace = eval::runWorkload("late_sender", tiny());
  SegmentedTrace segmented;
  segmented.ranks.resize(3);
  segmented.ranks[0].rank = 0;
  RankTrace fed = trace.rank(0);
  fed.rank = 2;
  segmented.ranks[1] = segmentRank(fed, trace.names());
  segmented.ranks[2].rank = 7;
  for (const Method m : allMethods()) {
    for (const AccelerationTier tier : {AccelerationTier::kOff, AccelerationTier::kIndexed}) {
      SCOPED_TRACE(std::string(methodName(m)) + " tier " +
                   std::to_string(static_cast<int>(tier)));
      ReductionConfig config = ReductionConfig::defaults(m);
      config.acceleration = tier;
      ReductionSession session(trace.names(), config);
      session.ensureRank(7);
      session.ensureRank(0);
      for (const RawRecord& rec : trace.rank(0).records) session.feed(2, rec);
      const ReductionResult streamedResult = session.finish();
      const ReductionResult expected =
          ReductionSession(trace.names(), config).reduce(segmented);
      EXPECT_EQ(streamedResult.reduced.ranks, expected.reduced.ranks);
      EXPECT_EQ(streamedResult.stats, expected.stats);
      EXPECT_EQ(streamedResult.counters, expected.counters);
    }
  }
}

}  // namespace
}  // namespace tracered::core
