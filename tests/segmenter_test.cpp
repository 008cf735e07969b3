// Tests for the segmenter: marker pairing, rebase semantics (Fig. 1/2),
// and malformed-input diagnostics.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

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
  // Same rejection as the streaming ReductionSession, so the offline and
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

// push() returns a view of the segmenter's reused buffer. Each view must be
// exactly its own segment — nothing left over from a longer predecessor,
// nothing missing after a shorter one — and equal what segmentRank copies.
TEST(Segmenter, ViewIsExactAcrossSegmentsOfDifferentLengths) {
  Trace trace(1);
  RankTraceWriter w(trace, 0);
  const std::size_t lengths[] = {3, 0, 5, 1, 5, 2};
  TimeUs t = 10;
  for (std::size_t len : lengths) {
    w.segBegin("main.1", t);
    for (std::size_t i = 0; i < len; ++i) {
      MsgInfo m;
      m.peer = static_cast<std::int32_t>(i);
      m.tag = static_cast<std::int32_t>(len);
      w.enter("MPI_Send", OpKind::kSend, t + 1, m);
      w.exit("MPI_Send", t + 2 + static_cast<TimeUs>(i));
      t += 3 + static_cast<TimeUs>(i);
    }
    w.segEnd("main.1", t + 1);
    t += 7;
  }
  const RankSegments copied = segmentRank(trace.rank(0), trace.names());
  ASSERT_EQ(copied.segments.size(), std::size(lengths));

  Segmenter segmenter(0, trace.names());
  std::size_t k = 0;
  const Segment* previous = nullptr;
  for (const RawRecord& rec : trace.rank(0).records) {
    const Segment* seg = segmenter.push(rec);
    if (seg == nullptr) continue;
    ASSERT_LT(k, copied.segments.size());
    EXPECT_EQ(seg->events.size(), lengths[k]);
    EXPECT_EQ(*seg, copied.segments[k]) << "segment " << k;
    for (std::size_t i = 0; i < seg->events.size(); ++i) {
      EXPECT_EQ(seg->events[i].msg.tag, static_cast<std::int32_t>(lengths[k]));
      EXPECT_EQ(seg->events[i].start, seg->events[i].end - 1 - static_cast<TimeUs>(i));
    }
    if (previous != nullptr) {
      EXPECT_EQ(seg, previous) << "one reused buffer";
    }
    previous = seg;
    ++k;
  }
  segmenter.finish();
  EXPECT_EQ(k, std::size(lengths));
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
