// Tests for the EXPERT-like analyzer and the severity cube on hand-crafted
// traces with known waiting structure.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/render.hpp"
#include "analysis/report.hpp"
#include "analysis/severity.hpp"
#include "core/cross_rank.hpp"
#include "core/reconstruct.hpp"
#include "core/reduction_session.hpp"
#include "eval/workloads.hpp"
#include "test_helpers.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_file.hpp"

#ifndef TRACERED_CORPUS_DIR
#error "TRACERED_CORPUS_DIR must point at fuzz/corpus/regressions"
#endif

namespace tracered::analysis {
namespace {

using tracered::testing::Ev;
using tracered::testing::makeSegment;

struct TwoRankTrace {
  StringTable names;
  SegmentedTrace st;
};

/// Rank 0 sends at t=1000 (enter), rank 1 posts its recv at t=100 and exits
/// at t=1020: a 900 µs Late Sender wait.
TwoRankTrace lateSenderTrace(bool sync) {
  TwoRankTrace t;
  t.st.ranks.resize(2);
  t.st.ranks[0].rank = 0;
  t.st.ranks[1].rank = 1;
  MsgInfo toOne;
  toOne.peer = 1;
  toOne.tag = 5;
  toOne.bytes = 64;
  toOne.comm = 0;
  MsgInfo fromZero = toOne;
  fromZero.peer = 0;
  t.st.ranks[0].segments.push_back(makeSegment(
      t.names, "main.1", 0, 1100,
      {{"do_work", OpKind::kCompute, 0, 1000, {}},
       {sync ? "MPI_Ssend" : "MPI_Send", sync ? OpKind::kSsend : OpKind::kSend, 1000,
        1010, toOne}},
      0));
  t.st.ranks[1].segments.push_back(makeSegment(
      t.names, "main.1", 0, 1100,
      {{"do_work", OpKind::kCompute, 0, 100, {}},
       {"MPI_Recv", OpKind::kRecv, 100, 1020, fromZero}},
      1));
  return t;
}

TEST(Analyzer, DetectsLateSender) {
  const TwoRankTrace t = lateSenderTrace(false);
  const SeverityCube cube = analyze(t.st);
  const NameId recv = t.names.find("MPI_Recv");
  EXPECT_DOUBLE_EQ(cube.total(Metric::kLateSender, recv), 900.0);
  EXPECT_DOUBLE_EQ(cube.profile(Metric::kLateSender, recv)[1], 900.0);
  EXPECT_DOUBLE_EQ(cube.profile(Metric::kLateSender, recv)[0], 0.0);
  EXPECT_DOUBLE_EQ(cube.metricTotal(Metric::kLateReceiver), 0.0);
}

TEST(Analyzer, DetectsLateReceiverForSsendOnly) {
  // Flip the roles: receiver enters at 1000, sync sender at 100.
  TwoRankTrace t;
  t.st.ranks.resize(2);
  t.st.ranks[0].rank = 0;
  t.st.ranks[1].rank = 1;
  MsgInfo toOne;
  toOne.peer = 1;
  toOne.tag = 5;
  toOne.bytes = 64;
  toOne.comm = 0;
  MsgInfo fromZero = toOne;
  fromZero.peer = 0;
  t.st.ranks[0].segments.push_back(makeSegment(
      t.names, "main.1", 0, 1100,
      {{"do_work", OpKind::kCompute, 0, 100, {}},
       {"MPI_Ssend", OpKind::kSsend, 100, 1020, toOne}},
      0));
  t.st.ranks[1].segments.push_back(makeSegment(
      t.names, "main.1", 0, 1100,
      {{"do_work", OpKind::kCompute, 0, 1000, {}},
       {"MPI_Recv", OpKind::kRecv, 1000, 1030, fromZero}},
      1));
  const SeverityCube cube = analyze(t.st);
  const NameId ssend = t.names.find("MPI_Ssend");
  EXPECT_DOUBLE_EQ(cube.total(Metric::kLateReceiver, ssend), 900.0);
  EXPECT_DOUBLE_EQ(cube.profile(Metric::kLateReceiver, ssend)[0], 900.0);
  EXPECT_DOUBLE_EQ(cube.metricTotal(Metric::kLateSender), 0.0);
}

TEST(Analyzer, LateSenderWaitClampedToRecvDuration) {
  TwoRankTrace t = lateSenderTrace(false);
  // Shrink the receive so the raw wait (900) exceeds its duration (20).
  t.st.ranks[1].segments[0].events[1].start = 990;
  t.st.ranks[1].segments[0].events[1].end = 1010;
  const SeverityCube cube = analyze(t.st);
  const NameId recv = t.names.find("MPI_Recv");
  EXPECT_DOUBLE_EQ(cube.total(Metric::kLateSender, recv), 10.0);
}

/// Four ranks entering a collective at staggered times.
TwoRankTrace staggeredCollective(OpKind op, const char* fn, Rank root) {
  TwoRankTrace t;
  t.st.ranks.resize(4);
  for (int r = 0; r < 4; ++r) {
    t.st.ranks[static_cast<std::size_t>(r)].rank = r;
    MsgInfo m;
    m.root = root;
    m.comm = 0;
    m.bytes = 32;
    const TimeUs enter = 100 + 200 * r;  // rank 3 enters last at 700
    t.st.ranks[static_cast<std::size_t>(r)].segments.push_back(makeSegment(
        t.names, "main.1", 0, 1000,
        {{"do_work", OpKind::kCompute, 0, enter, {}},
         {fn, op, enter, 750, m}},
        r));
  }
  return t;
}

TEST(Analyzer, WaitAtBarrierMeasuresEnterSkew) {
  const TwoRankTrace t = staggeredCollective(OpKind::kBarrier, "MPI_Barrier", -1);
  const SeverityCube cube = analyze(t.st);
  const NameId fn = t.names.find("MPI_Barrier");
  const auto profile = cube.profile(Metric::kWaitAtBarrier, fn);
  EXPECT_DOUBLE_EQ(profile[0], 600.0);  // entered at 100, last at 700
  EXPECT_DOUBLE_EQ(profile[1], 400.0);
  EXPECT_DOUBLE_EQ(profile[2], 200.0);
  EXPECT_DOUBLE_EQ(profile[3], 0.0);
  EXPECT_DOUBLE_EQ(cube.metricTotal(Metric::kWaitAtNxN), 0.0);
}

TEST(Analyzer, AlltoallGoesToWaitAtNxN) {
  const TwoRankTrace t = staggeredCollective(OpKind::kAlltoall, "MPI_Alltoall", -1);
  const SeverityCube cube = analyze(t.st);
  EXPECT_GT(cube.metricTotal(Metric::kWaitAtNxN), 0.0);
  EXPECT_DOUBLE_EQ(cube.metricTotal(Metric::kWaitAtBarrier), 0.0);
}

TEST(Analyzer, EarlyReduceChargedToEarlyRoot) {
  // Root (rank 0) enters at 100; the last sender arrives at 700, so the
  // root's blocking time is 600 µs.
  const TwoRankTrace t = staggeredCollective(OpKind::kGather, "MPI_Gather", 0);
  const SeverityCube cube = analyze(t.st);
  const NameId fn = t.names.find("MPI_Gather");
  const auto profile = cube.profile(Metric::kEarlyReduce, fn);
  EXPECT_DOUBLE_EQ(profile[0], 600.0);
  EXPECT_DOUBLE_EQ(profile[1], 0.0);
}

TEST(Analyzer, NoEarlyReduceWhenRootIsLate) {
  // Root = rank 3 (enters last): no early-reduce wait.
  const TwoRankTrace t = staggeredCollective(OpKind::kGather, "MPI_Gather", 3);
  const SeverityCube cube = analyze(t.st);
  EXPECT_DOUBLE_EQ(cube.metricTotal(Metric::kEarlyReduce), 0.0);
}

TEST(Analyzer, LateBroadcastChargedToWaitingNonRoots) {
  // Root = rank 3 enters at 700; ranks 0..2 waited since 100/300/500.
  const TwoRankTrace t = staggeredCollective(OpKind::kBcast, "MPI_Bcast", 3);
  const SeverityCube cube = analyze(t.st);
  const NameId fn = t.names.find("MPI_Bcast");
  const auto profile = cube.profile(Metric::kLateBroadcast, fn);
  EXPECT_DOUBLE_EQ(profile[0], 600.0);
  EXPECT_DOUBLE_EQ(profile[1], 400.0);
  EXPECT_DOUBLE_EQ(profile[2], 200.0);
  EXPECT_DOUBLE_EQ(profile[3], 0.0);
}

/// Renames rank ids (position i gets ids[i]), rewriting p2p peers and
/// collective roots to match.
void relabelRanks(SegmentedTrace& st, const std::vector<Rank>& ids) {
  const auto map = [&](Rank id) { return id >= 0 ? ids.at(static_cast<std::size_t>(id)) : id; };
  for (std::size_t i = 0; i < st.ranks.size(); ++i) {
    st.ranks[i].rank = ids[i];
    for (Segment& seg : st.ranks[i].segments) {
      seg.rank = ids[i];
      for (EventInterval& e : seg.events) {
        e.msg.peer = map(e.msg.peer);
        e.msg.root = map(e.msg.root);
      }
    }
  }
}

void expectSameCube(const SeverityCube& got, const SeverityCube& want) {
  ASSERT_EQ(got.numRanks(), want.numRanks());
  const auto gotCells = got.cells();
  const auto wantCells = want.cells();
  ASSERT_EQ(gotCells.size(), wantCells.size());
  for (std::size_t i = 0; i < gotCells.size(); ++i) {
    EXPECT_EQ(gotCells[i].metric, wantCells[i].metric);
    EXPECT_EQ(gotCells[i].callsite, wantCells[i].callsite);
    EXPECT_EQ(gotCells[i].perRank, wantCells[i].perRank);
  }
}

// Rank ids need not be dense: the cube has one row per rank of the trace,
// in trace order, and peers/roots are resolved by id. A sparse relabeling
// must give the dense trace's cube.
TEST(Analyzer, SparseRankIdsGiveTheDenseCube) {
  TwoRankTrace p2p = lateSenderTrace(true);
  const SeverityCube denseP2p = analyze(p2p.st);
  relabelRanks(p2p.st, {3, 7});
  expectSameCube(analyze(p2p.st), denseP2p);
  // The exec-table walks resolve peers through the reduced ranks' ids and
  // the merged trace's rankIds.
  const core::ReductionConfig config = core::ReductionConfig::defaults(core::Method::kRelDiff);
  core::ReductionSession session(p2p.names, config);
  session.setMergeOptions({config, 1});
  expectSameCube(analyze(session.reduce(p2p.st).reduced), denseP2p);
  expectSameCube(analyze(session.mergeResult()->merged), denseP2p);
  EXPECT_DOUBLE_EQ(analyze(p2p.st).profile(Metric::kLateSender,
                                           p2p.names.find("MPI_Recv"))[1], 900.0);

  for (const auto& [op, fn, root] :
       {std::tuple{OpKind::kBcast, "MPI_Bcast", 3}, std::tuple{OpKind::kGather, "MPI_Gather", 0},
        std::tuple{OpKind::kBarrier, "MPI_Barrier", -1}}) {
    SCOPED_TRACE(fn);
    TwoRankTrace t = staggeredCollective(op, fn, root);
    const SeverityCube dense = analyze(t.st);
    relabelRanks(t.st, {2, 5, 9, 40});
    expectSameCube(analyze(t.st), dense);
  }
}

TEST(Analyzer, PeerOrRootOutsideTheTraceIsAPointedError) {
  TwoRankTrace p2p = lateSenderTrace(false);
  p2p.st.ranks[0].segments[0].events[1].msg.peer = 5;
  try {
    (void)analyze(p2p.st);
    FAIL() << "a send to rank 5 of a 2-rank trace must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("message peer rank 5"), std::string::npos) << e.what();
  }

  TwoRankTrace gather = staggeredCollective(OpKind::kGather, "MPI_Gather", 0);
  relabelRanks(gather.st, {2, 5, 9, 40});
  for (RankSegments& r : gather.st.ranks) r.segments[0].events[1].msg.root = 8;
  try {
    (void)analyze(gather.st);
    FAIL() << "a gather rooted at absent rank 8 must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("collective root rank 8"), std::string::npos)
        << e.what();
  }
}

TEST(Analyzer, ExecutionTimeAccumulatesInclusive) {
  const TwoRankTrace t = lateSenderTrace(false);
  const SeverityCube cube = analyze(t.st);
  const NameId work = t.names.find("do_work");
  EXPECT_DOUBLE_EQ(cube.profile(Metric::kExecutionTime, work)[0], 1000.0);
  EXPECT_DOUBLE_EQ(cube.profile(Metric::kExecutionTime, work)[1], 100.0);
}

TEST(Cube, DominantWaitPicksLargestCell) {
  SeverityCube cube(2);
  cube.add(Metric::kLateSender, 1, 0, 50.0);
  cube.add(Metric::kWaitAtNxN, 2, 1, 500.0);
  const CubeCell dom = cube.dominantWait();
  EXPECT_EQ(dom.metric, Metric::kWaitAtNxN);
  EXPECT_EQ(dom.callsite, 2u);
  EXPECT_DOUBLE_EQ(dom.total(), 500.0);
}

TEST(Cube, DominantWaitIgnoresExecutionTime) {
  SeverityCube cube(2);
  cube.add(Metric::kExecutionTime, 1, 0, 5000.0);
  cube.add(Metric::kLateSender, 2, 1, 10.0);
  EXPECT_EQ(cube.dominantWait().metric, Metric::kLateSender);
}

TEST(Cube, EmptyCubeHasNoDominant) {
  SeverityCube cube(4);
  EXPECT_EQ(cube.dominantWait().callsite, kInvalidName);
}

TEST(Cube, DiffIsSignedAndAligned) {
  SeverityCube a(2), b(2);
  a.add(Metric::kLateSender, 1, 0, 100.0);
  b.add(Metric::kLateSender, 1, 0, 140.0);
  b.add(Metric::kWaitAtNxN, 2, 1, 30.0);
  const SeverityCube d = a.diff(b);
  EXPECT_DOUBLE_EQ(d.total(Metric::kLateSender, 1), -40.0);
  EXPECT_DOUBLE_EQ(d.total(Metric::kWaitAtNxN, 2), -30.0);
}

TEST(Cube, DiffRejectsRankMismatch) {
  SeverityCube a(2), b(3);
  EXPECT_THROW(a.diff(b), std::invalid_argument);
}

TEST(Render, ProfileDigitsScale) {
  const std::string s = renderProfile({0.0, 450.0, 900.0}, 900.0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], '.');
  EXPECT_EQ(s[1], '5');
  EXPECT_EQ(s[2], '9');
}

TEST(Render, CubeRenderingMentionsTopCells) {
  const TwoRankTrace t = lateSenderTrace(false);
  const SeverityCube cube = analyze(t.st);
  const std::string s = renderCube(cube, t.names, 5);
  EXPECT_NE(s.find("LS"), std::string::npos);
  EXPECT_NE(s.find("MPI_Recv"), std::string::npos);
}

// ---- adversarial inputs: the renderers and report builders must be total
// on anything analyze() can produce, including the degenerate cubes.

TEST(Render, EmptyCubeRendersHeaderOnly) {
  const SeverityCube empty(0);
  StringTable names;
  const std::string s = renderCube(empty, names, 12);
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_EQ(s.find("LS"), std::string::npos);
  EXPECT_TRUE(renderProfile({}, 0.0).empty());
}

TEST(Render, ZeroRankCubeAndUnknownCallsiteChartRowsAreSafe) {
  const SeverityCube empty(0);
  StringTable names;
  const std::string chart =
      renderChart(empty, empty, names, {{Metric::kLateSender, "no_such_fn"}}, "x");
  EXPECT_NE(chart.find("no_such_fn"), std::string::npos);
}

TEST(Render, AllInsignificantCellsRenderCollapsedDigits) {
  // A zero per-rank maximum means scale <= 0: positive values render '?'
  // (off-scale), zeros render '.'; no division happens.
  EXPECT_EQ(renderProfile({0.0, 1.0, 0.0}, 0.0), ".?.");
  SeverityCube cube(2);
  cube.add(Metric::kLateSender, 0, 0, 0.0);
  cube.add(Metric::kLateSender, 0, 1, 0.0);
  StringTable names;
  names.intern("f");
  const std::string s = renderCube(cube, names, 4);
  EXPECT_NE(s.find("[..]"), std::string::npos) << s;
}

TEST(Analyzer, EmptyTraceYieldsEmptyCube) {
  const SeverityCube cube = analyze(SegmentedTrace{});
  EXPECT_EQ(cube.numRanks(), 0);
  EXPECT_TRUE(cube.cells().empty());
  EXPECT_EQ(cube.dominantWait().callsite, kInvalidName);
}

TEST(Report, CubeRowsAreOrderedAndCapped) {
  const TwoRankTrace t = lateSenderTrace(false);
  const SeverityCube cube = analyze(t.st);
  const auto all = cubeReportRows(cube, t.names, 0);
  ASSERT_FALSE(all.empty());
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_GE(all[i - 1].totalUs, all[i].totalUs);
  const auto top1 = cubeReportRows(cube, t.names, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].totalUs, all[0].totalUs);
  EXPECT_TRUE(cubeReportRows(SeverityCube(0), t.names, 12).empty());
}

TEST(Report, DeltaRowsAlignByNameAndFlagWaitRegressions) {
  // Two runs interning names in opposite orders: the delta must align
  // MPI_Recv with MPI_Recv by name, not by NameId.
  StringTable namesA, namesB;
  const NameId recvA = namesA.intern("MPI_Recv");
  const NameId workA = namesA.intern("do_work");
  const NameId workB = namesB.intern("do_work");
  const NameId recvB = namesB.intern("MPI_Recv");
  SeverityCube a(2), b(2);
  a.add(Metric::kLateSender, recvA, 0, 10000.0);
  a.add(Metric::kExecutionTime, workA, 0, 50000.0);
  b.add(Metric::kLateSender, recvB, 0, 40000.0);  // 4x worse: regression
  b.add(Metric::kExecutionTime, workB, 0, 90000.0);  // grows, but never flagged
  const auto rows = deltaReportRows(a, namesA, b, namesB, {0.25, 1000.0});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].callsite, "do_work");  // biggest |delta| first
  EXPECT_FALSE(rows[0].regression);
  EXPECT_EQ(rows[1].callsite, "MPI_Recv");
  EXPECT_EQ(rows[1].metric, Metric::kLateSender);
  EXPECT_DOUBLE_EQ(rows[1].baselineUs, 10000.0);
  EXPECT_DOUBLE_EQ(rows[1].candidateUs, 40000.0);
  EXPECT_TRUE(rows[1].regression);
}

TEST(Report, DeltaRowsDropInsignificantCellsAndRejectRankMismatch) {
  StringTable names;
  const NameId f = names.intern("f");
  SeverityCube a(2), b(2);
  a.add(Metric::kLateSender, f, 0, 10.0);
  b.add(Metric::kLateSender, f, 0, 900.0);  // both below the 1000 µs floor
  EXPECT_TRUE(deltaReportRows(a, names, b, names).empty());
  const SeverityCube c(3);
  EXPECT_THROW(deltaReportRows(a, names, c, names), std::invalid_argument);
}

TEST(Report, RemapCallsitesRekeysByName) {
  StringTable from, to;
  const NameId fFrom = from.intern("f");
  to.intern("other");
  SeverityCube cube(2);
  cube.add(Metric::kLateSender, fFrom, 1, 123.0);
  const SeverityCube mapped = remapCallsites(cube, from, to);
  const NameId fTo = to.find("f");
  ASSERT_NE(fTo, kInvalidName);
  EXPECT_NE(fTo, fFrom);
  EXPECT_DOUBLE_EQ(mapped.total(Metric::kLateSender, fTo), 123.0);
  EXPECT_DOUBLE_EQ(mapped.profile(Metric::kLateSender, fTo)[1], 123.0);
}

// --- One analyzer core, four feeders ---------------------------------------

/// Bitwise cube equality: same rows, same cells, same bits in every value.
void expectBitIdentical(const SeverityCube& got, const SeverityCube& want,
                        const std::string& what) {
  ASSERT_EQ(got.numRanks(), want.numRanks()) << what;
  const std::vector<CubeCell> gotCells = got.cells();
  const std::vector<CubeCell> wantCells = want.cells();
  ASSERT_EQ(gotCells.size(), wantCells.size()) << what;
  for (std::size_t i = 0; i < gotCells.size(); ++i) {
    EXPECT_EQ(gotCells[i].metric, wantCells[i].metric) << what;
    EXPECT_EQ(gotCells[i].callsite, wantCells[i].callsite) << what;
    ASSERT_EQ(gotCells[i].perRank.size(), wantCells[i].perRank.size()) << what;
    EXPECT_EQ(std::memcmp(gotCells[i].perRank.data(), wantCells[i].perRank.data(),
                          gotCells[i].perRank.size() * sizeof(double)),
              0)
        << what << ": cell " << i << " (" << metricAbbrev(gotCells[i].metric) << ")";
  }
}

std::string tmpPath(const std::string& name) { return ::testing::TempDir() + name; }

/// analyzeStream over the file at `path`, checked against the whole-trace
/// reference analyze(segmentTrace(readAll())) for both option settings.
void expectStreamMatchesReference(const std::string& path, const std::string& what) {
  for (const bool initFinalize : {false, true}) {
    AnalyzerOptions opts;
    opts.includeInitFinalize = initFinalize;
    TraceFileReader whole(path);
    const SegmentedTrace segmented = segmentTrace(whole.readAll());
    TraceFileReader streamed(path);
    const StreamAnalysis got = analyzeStream(streamed, opts);
    expectBitIdentical(got.cube, analyze(segmented, opts), what);
    EXPECT_EQ(got.segments, segmented.totalSegments()) << what;
  }
}

// The gate of the streaming rebuild: over every registry workload, the
// decoder->segmenter stream, the exec-table walks (reduced under all nine
// methods, and merged) and the SegmentedTrace reference give the same bits.
TEST(AnalyzerFeeders, AgreeBitForBitOnEveryRegistryWorkload) {
  for (const std::string& workload : eval::allWorkloads()) {
    SCOPED_TRACE(workload);
    eval::WorkloadOptions wopts;
    wopts.scale = 0.05;
    const Trace trace = eval::runWorkload(workload, wopts);
    const SegmentedTrace segmented = segmentTrace(trace);
    const std::string path = tmpPath("feeders.trf");
    writeTraceFile(path, trace);
    expectStreamMatchesReference(path, workload + " full");
    std::remove(path.c_str());

    for (const core::Method m : core::allMethods()) {
      const core::ReductionConfig config = core::ReductionConfig::defaults(m);
      core::ReductionSession session(trace.names(), config);
      session.setMergeOptions({config, 16});
      const ReducedTrace reduced = session.reduce(segmented).reduced;
      const MergedReducedTrace& merged = session.mergeResult()->merged;
      for (const bool initFinalize : {false, true}) {
        AnalyzerOptions opts;
        opts.includeInitFinalize = initFinalize;
        const std::string what = workload + " " + core::methodName(m) +
                                 (initFinalize ? " +init/finalize" : "");
        expectBitIdentical(analyze(reduced, opts), analyze(core::reconstruct(reduced), opts),
                           what + " reduced");
        expectBitIdentical(analyze(merged, opts),
                           analyze(core::reconstructMerged(merged), opts), what + " merged");
      }
    }
  }
}

// Text traces may revisit a rank and leave declared ranks idle; rows still
// follow rank-id order (as readAll + segmentTrace lay them out), idle ranks
// keep their empty row, and a segment may span the revisit.
TEST(AnalyzerFeeders, TextTraceWithRevisitedAndIdleRanks) {
  const std::string path = tmpPath("revisit.txt");
  {
    std::ofstream out(path);
    out << "ranks 4\n"
           "string 0 main.1\n"
           "string 1 do_work\n"
           "string 2 MPI_Send\n"
           "string 3 MPI_Recv\n"
           // Rank 2 opens a segment and receives from rank 0 early...
           "rank 2\n"
           "B 0 0\n"
           "> 0 1 0\n"
           "< 50 1\n"
           "> 50 3 3 0 7 -1 0 8\n"
           // ...rank 0 sends late, in two segments...
           "rank 0\n"
           "B 0 0\n"
           "> 0 1 0\n"
           "< 400 1\n"
           "> 400 2 1 2 7 -1 0 8\n"
           "< 410 2\n"
           "E 420 0\n"
           "B 420 0\n"
           "> 420 2 1 2 7 -1 0 8\n"
           "< 430 2\n"
           "E 430 0\n"
           // ...and rank 2's section resumes mid-segment.
           "rank 2\n"
           "< 405 3\n"
           "E 410 0\n"
           "B 410 0\n"
           "> 410 3 3 0 7 -1 0 8\n"
           "< 425 3\n"
           "E 430 0\n";
  }
  expectStreamMatchesReference(path, "revisited text");
  TraceFileReader reader(path);
  const StreamAnalysis got = analyzeStream(reader);
  ASSERT_EQ(got.cube.numRanks(), 4);
  EXPECT_EQ(got.segments, 4u);
  const auto lateSender = got.cube.profile(Metric::kLateSender, 3);
  EXPECT_EQ(lateSender, (std::vector<double>{0.0, 0.0, 360.0, 0.0}));  // 350 + 10
  EXPECT_EQ(got.cube.profile(Metric::kExecutionTime, 1),
            (std::vector<double>{400.0, 0.0, 50.0, 0.0}));
  std::remove(path.c_str());
}

// Sparse rank ids name rows through the id map in every feeder, including
// the merged trace's rankIds.
TEST(AnalyzerFeeders, SparseAndIdleBinaryRanks) {
  const std::string path =
      std::string(TRACERED_CORPUS_DIR) + "/ingest/trf1_sparse_and_idle_ranks.bin";
  expectStreamMatchesReference(path, "trf1_sparse_and_idle_ranks");
  TraceFileReader reader(path);
  const Trace trace = reader.readAll();
  const core::ReductionConfig config = core::ReductionConfig::defaults(core::Method::kRelDiff);
  core::ReductionSession session(trace.names(), config);
  session.setMergeOptions({config, 1});
  const ReducedTrace reduced = session.reduce(segmentTrace(trace)).reduced;
  const MergedReducedTrace& merged = session.mergeResult()->merged;
  ASSERT_NE(merged.rankIds.back(), static_cast<Rank>(merged.rankIds.size() - 1));
  expectBitIdentical(analyze(reduced), analyze(core::reconstruct(reduced)), "reduced");
  expectBitIdentical(analyze(merged), analyze(core::reconstructMerged(merged)), "merged");
  EXPECT_EQ(analyze(merged).numRanks(), trace.numRanks());
}

std::string analyzeError(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(accepted)";
}

// The stream meets a file's defects in file order, but reports them in the
// whole-trace order: decode errors anywhere first, then each rank's
// segmenter error in rank order. Here rank 1's section exits an event it
// never entered, rank 0's (after it) ends inside an open segment, and the
// last line is no directive at all.
TEST(AnalyzerFeeders, MalformedInputGetsTheWholeTraceMessage) {
  const std::string path = tmpPath("malformed.txt");
  const std::string body =
      "ranks 2\n"
      "string 0 main.1\n"
      "string 1 do_work\n"
      "rank 1\n"
      "B 0 0\n"
      "< 5 1\n"
      "rank 0\n"
      "B 0 0\n";
  for (const std::string& tail : {std::string("bogus 1\n"), std::string()}) {
    SCOPED_TRACE(tail.empty() ? "segmenter errors only" : "with a decode error");
    {
      std::ofstream out(path);
      out << body << tail;
    }
    const std::string whole = analyzeError([&] {
      TraceFileReader reader(path);
      (void)analyze(segmentTrace(reader.readAll()));
    });
    const std::string streamed = analyzeError([&] {
      TraceFileReader reader(path);
      (void)analyzeStream(reader);
    });
    EXPECT_EQ(streamed, whole);
    EXPECT_NE(whole.find(tail.empty() ? "rank 0" : "unknown directive"), std::string::npos)
        << whole;
  }
  std::remove(path.c_str());
}

// A trace that is wrong twice over: a message to an absent rank and
// collective sequences that disagree. Every feeder reports the absent peer
// first, with the message the whole-trace analyzer always gave; with the
// peer fixed, the mismatch.
TEST(AnalyzerFeeders, AbsentPeerIsReportedBeforeACollectiveMismatch) {
  TwoRankTrace t = lateSenderTrace(false);
  t.st.ranks[0].segments[0].events[1].msg.peer = 5;
  MsgInfo coll;
  coll.comm = 0;
  t.st.ranks[0].segments.push_back(makeSegment(
      t.names, "main.2", 2000, 100, {{"MPI_Barrier", OpKind::kBarrier, 0, 50, coll}}, 0));
  t.st.ranks[1].segments.push_back(makeSegment(
      t.names, "main.2", 2000, 100, {{"MPI_Allreduce", OpKind::kAllreduce, 0, 50, coll}},
      1));

  const auto errors = [&](const SegmentedTrace& st) {
    ReducedTrace reduced;
    reduced.names = t.names;
    for (const RankSegments& rs : st.ranks) {
      RankReduced& rr = reduced.ranks.emplace_back();
      rr.rank = rs.rank;
      for (const Segment& seg : rs.segments) {
        Segment rep = seg;
        rep.absStart = 0;
        rr.execs.push_back({static_cast<SegmentId>(rr.stored.size()), seg.absStart});
        rr.stored.push_back(std::move(rep));
      }
    }
    const std::string path = tmpPath("two_errors.trf");
    writeTraceFile(path, desegmentTrace(st, t.names));
    TraceFileReader reader(path);
    const std::vector<std::string> out = {
        analyzeError([&] { (void)analyze(st); }),
        analyzeError([&] { (void)analyze(reduced); }),
        analyzeError([&] { (void)analyzeStream(reader); }),
    };
    std::remove(path.c_str());
    return out;
  };
  for (const std::string& e : errors(t.st))
    EXPECT_EQ(e, "analyze: message peer rank 5 is not a rank of the trace");
  t.st.ranks[0].segments[0].events[1].msg.peer = 1;
  for (const std::string& e : errors(t.st))
    EXPECT_EQ(e, "analyze: collective sequence mismatch across ranks");
}

TEST(AnalyzerFeeders, ExecNamingAnUnknownRepresentativeIsOutOfRange) {
  ReducedTrace reduced;
  RankReduced& rr = reduced.ranks.emplace_back();
  rr.execs.push_back({3, 0});
  EXPECT_THROW((void)analyze(reduced), std::out_of_range);
  EXPECT_THROW((void)core::reconstruct(reduced), std::out_of_range);
}

}  // namespace
}  // namespace tracered::analysis
