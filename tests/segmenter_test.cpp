// Tests for the segmenter: marker pairing, rebase semantics (Fig. 1/2),
// and malformed-input diagnostics.
#include <gtest/gtest.h>

#include "trace/segmenter.hpp"
#include "trace/trace.hpp"

namespace tracered {
namespace {

Trace figureOneTrace() {
  // A miniature of Fig. 1: init segment, two "main.1" iterations, final.
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("init", 0);
  w.enter("MPI_Init", OpKind::kInit, 2);
  w.exit("MPI_Init", 40);
  w.segEnd("init", 41);

  for (int i = 0; i < 2; ++i) {
    const TimeUs base = 100 + 100 * i;
    w.segBegin("main.1", base);
    w.enter("do_work", OpKind::kCompute, base + 1, {});
    w.exit("do_work", base + 20);
    MsgInfo m;
    m.comm = 0;
    m.bytes = 8;
    w.enter("MPI_Allgather", OpKind::kAllgather, base + 21, m);
    w.exit("MPI_Allgather", base + 49);
    w.segEnd("main.1", base + 50);
  }

  w.segBegin("final", 400);
  w.enter("MPI_Finalize", OpKind::kFinalize, 401);
  w.exit("MPI_Finalize", 420);
  w.segEnd("final", 421);
  return trace;
}

TEST(Segmenter, SplitsIntoSegmentsAndRebases) {
  const Trace trace = figureOneTrace();
  const SegmentedTrace st = segmentTrace(trace);
  ASSERT_EQ(st.ranks.size(), 1u);
  const auto& segs = st.ranks[0].segments;
  ASSERT_EQ(segs.size(), 4u);

  EXPECT_EQ(trace.names().name(segs[0].context), "init");
  EXPECT_EQ(trace.names().name(segs[1].context), "main.1");
  EXPECT_EQ(trace.names().name(segs[2].context), "main.1");
  EXPECT_EQ(trace.names().name(segs[3].context), "final");

  // Rebased: both iterations look identical apart from absStart.
  const Segment& a = segs[1];
  const Segment& b = segs[2];
  EXPECT_EQ(a.absStart, 100);
  EXPECT_EQ(b.absStart, 200);
  ASSERT_EQ(a.events.size(), 2u);
  EXPECT_EQ(a.events[0].start, 1);
  EXPECT_EQ(a.events[0].end, 20);
  EXPECT_EQ(a.events[1].start, 21);
  EXPECT_EQ(a.events[1].end, 49);
  EXPECT_EQ(a.end, 50);
  EXPECT_TRUE(a.compatible(b));
  EXPECT_EQ(a.events[0].start, b.events[0].start);
}

TEST(Segmenter, PreservesMessageInfo) {
  const Trace trace = figureOneTrace();
  const SegmentedTrace st = segmentTrace(trace);
  const auto& ev = st.ranks[0].segments[1].events[1];
  EXPECT_EQ(ev.op, OpKind::kAllgather);
  EXPECT_EQ(ev.msg.bytes, 8u);
  EXPECT_EQ(ev.msg.comm, 0);
}

TEST(Segmenter, RejectsEventOutsideSegment) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.enter("f", OpKind::kCompute, 0);
  w.exit("f", 5);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsUnmatchedSegmentEnd) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("a", 0);
  w.segEnd("b", 5);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsNestedSegments) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("a", 0);
  w.segBegin("b", 1);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsUnpairedExit) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("a", 0);
  w.exit("f", 3);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsOpenSegmentAtEnd) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("a", 0);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsOpenEventAtSegmentEnd) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("a", 0);
  w.enter("f", OpKind::kCompute, 1);
  EXPECT_THROW(segmentTrace(trace), std::runtime_error);
}

TEST(Segmenter, RejectsNonMonotonicTimestamps) {
  // Same rejection as the streaming OnlineRankReducer, so the offline and
  // streaming paths accept exactly the same traces: no negative duration
  // may flow into reduction. RankTraceWriter already refuses to WRITE such
  // records, so inject them directly — the way a corrupted or foreign trace
  // file would deliver them.
  auto makeTrace = [](const std::vector<std::pair<RecordKind, TimeUs>>& recs) {
    Trace trace(1);
    const NameId ctx = trace.names().intern("a");
    const NameId fn = trace.names().intern("f");
    for (const auto& [kind, time] : recs) {
      RawRecord r;
      r.kind = kind;
      r.name = (kind == RecordKind::kSegBegin || kind == RecordKind::kSegEnd) ? ctx : fn;
      r.time = time;
      trace.rank(0).records.push_back(r);
    }
    return trace;
  };

  // Segment ends before it began.
  EXPECT_THROW(segmentTrace(makeTrace({{RecordKind::kSegBegin, 100},
                                       {RecordKind::kSegEnd, 50}})),
               std::runtime_error);
  // Event exits before it entered.
  EXPECT_THROW(segmentTrace(makeTrace({{RecordKind::kSegBegin, 100},
                                       {RecordKind::kEnter, 150},
                                       {RecordKind::kExit, 140}})),
               std::runtime_error);
  // Event enters before its segment began.
  EXPECT_THROW(segmentTrace(makeTrace({{RecordKind::kSegBegin, 100},
                                       {RecordKind::kEnter, 90}})),
               std::runtime_error);
  // Zero-length segment and event stay valid.
  EXPECT_EQ(segmentTrace(makeTrace({{RecordKind::kSegBegin, 100},
                                    {RecordKind::kEnter, 100},
                                    {RecordKind::kExit, 100},
                                    {RecordKind::kSegEnd, 100}}))
                .totalSegments(),
            1u);
}

TEST(Segmenter, EmptySegmentsAreKept) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  w.segBegin("empty", 5);
  w.segEnd("empty", 9);
  const SegmentedTrace st = segmentTrace(trace);
  ASSERT_EQ(st.ranks[0].segments.size(), 1u);
  EXPECT_EQ(st.ranks[0].segments[0].events.size(), 0u);
  EXPECT_EQ(st.ranks[0].segments[0].end, 4);
}

}  // namespace
}  // namespace tracered
