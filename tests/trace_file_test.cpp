// Streaming trace file I/O: chunked reader/writer vs the whole-buffer
// (de)serializers, format auto-detection, and the bounded-memory guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/cross_rank.hpp"
#include "core/reconstruct.hpp"
#include "core/reduction_session.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "trace/text_io.hpp"
#include "trace/trace_codec.hpp"
#include "trace/trace_decoder.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_io.hpp"
#include "util/bytebuf.hpp"

namespace tracered {
namespace {

std::string tmpPath(const std::string& name) { return ::testing::TempDir() + name; }

/// The exception message of `fn()`; fails the test if nothing is thrown.
template <class Fn>
std::string thrownMessage(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

void expectMessageContains(const std::string& msg, const std::string& want) {
  EXPECT_NE(msg.find(want), std::string::npos) << "message was: \"" << msg << '"';
}

void expectSameTrace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.numRanks(), b.numRanks());
  for (Rank r = 0; r < a.numRanks(); ++r) {
    EXPECT_EQ(a.rank(r).rank, b.rank(r).rank);
    ASSERT_EQ(a.rank(r).records.size(), b.rank(r).records.size());
    EXPECT_EQ(a.rank(r).records, b.rank(r).records);
  }
  ASSERT_EQ(a.names().size(), b.names().size());
  for (NameId id = 0; id < a.names().size(); ++id)
    EXPECT_EQ(a.names().name(id), b.names().name(id));
}

/// Streams `path` through a ReductionSession the way `tracered reduce
/// --streaming` does and returns the serialized result.
std::vector<std::uint8_t> reduceStreaming(const std::string& path,
                                          const core::ReductionConfig& config,
                                          std::size_t chunkBytes) {
  TraceFileReader reader(path, chunkBytes);
  core::ReductionSession session(reader.names(), config);
  // No manual idle-rank registration: the reader announces every declared
  // rank through onRank, so this plain wiring must already match offline.
  reader.streamRecords(
      [&](Rank rank, const RawRecord& rec) { session.feed(rank, rec); },
      [&](Rank rank) { session.ensureRank(rank); });
  return serializeReducedTrace(session.finish().reduced);
}

// The satellite guarantee: on EVERY registered workload, the rank-at-a-time
// writer emits exactly serializeFullTrace's bytes, the chunked reader
// round-trips them exactly, and chunk-fed streaming reduction equals offline
// reduction of the same file, byte for byte.
TEST(TraceFile, ChunkedEqualsWholeFileOnEveryWorkload) {
  eval::WorkloadOptions opts;
  opts.scale = 0.05;
  for (const std::string& name : eval::allWorkloads()) {
    SCOPED_TRACE(name);
    const Trace trace = eval::runWorkload(name, opts);
    const std::string path = tmpPath("wf_" + name + ".trf");

    writeTraceFile(path, trace);
    EXPECT_EQ(readFile(path), serializeFullTrace(trace));

    TraceFileReader reader(path, /*chunkBytes=*/1024);
    EXPECT_EQ(reader.format(), TraceFileFormat::kFullBinary);
    EXPECT_EQ(reader.numRanks(), static_cast<std::size_t>(trace.numRanks()));
    expectSameTrace(reader.readAll(), trace);

    const core::ReductionConfig config = core::ReductionConfig::defaults(
        name == "dyn_load_balance" ? core::Method::kAvgWave : core::Method::kRelDiff);
    const auto offline = serializeReducedTrace(
        core::ReductionSession(trace.names(), config).reduce(segmentTrace(trace)).reduced);
    EXPECT_EQ(reduceStreaming(path, config, 512), offline);
    std::remove(path.c_str());
  }
}

TEST(TraceFile, ReaderNeverBuffersTheWholeFile) {
  eval::WorkloadOptions opts;
  opts.scale = 1.0;
  const Trace trace = eval::runWorkload("NtoN_32", opts);
  const std::string path = tmpPath("bounded.trf");
  writeTraceFile(path, trace);
  const std::size_t fileBytes = readFile(path).size();
  ASSERT_GT(fileBytes, 100u * 1024);  // big enough for the bound to mean something

  TraceFileReader reader(path, /*chunkBytes=*/1024);
  std::size_t records = 0;
  reader.streamRecords([&](Rank, const RawRecord&) { ++records; });
  EXPECT_EQ(records, trace.totalRecords());
  // At most a few chunks ever resident — nowhere near the file size.
  EXPECT_LE(reader.maxBufferedBytes(), 8u * 1024);
  EXPECT_LT(reader.maxBufferedBytes() * 10, fileBytes);
  std::remove(path.c_str());
}

TEST(TraceFile, DetectsAllFormats) {
  const Trace trace = eval::runWorkload("late_sender", {0.05, 42});
  const std::string full = tmpPath("detect.trf");
  const std::string text = tmpPath("detect.txt");
  const std::string reduced = tmpPath("detect.trr");
  const std::string merged = tmpPath("detect.trm");
  writeTraceFile(full, trace);
  writeTraceFile(text, trace, TraceFileFormat::kText);
  const auto result =
      core::ReductionSession(trace.names(),
                             core::ReductionConfig::defaults(core::Method::kRelDiff))
          .reduce(segmentTrace(trace));
  writeFile(reduced, serializeReducedTrace(result.reduced));
  writeFile(merged, serializeMergedTrace(
                        core::mergeAcrossRanks(result.reduced, core::MergeOptions{}).merged));

  EXPECT_EQ(detectTraceFile(full), TraceFileFormat::kFullBinary);
  EXPECT_EQ(detectTraceFile(text), TraceFileFormat::kText);
  EXPECT_EQ(detectTraceFile(reduced), TraceFileFormat::kReducedBinary);
  EXPECT_EQ(detectTraceFile(merged), TraceFileFormat::kMergedBinary);

  const std::string garbage = tmpPath("detect.bin");
  writeFile(garbage, {0xde, 0xad, 0xbe, 0xef, 0x00});
  EXPECT_THROW(detectTraceFile(garbage), std::runtime_error);
  EXPECT_THROW(detectTraceFile(tmpPath("does_not_exist.trf")), std::runtime_error);

  // The streaming reader handles FULL traces; reduced and merged files are
  // rejected at open with a pointer at the right API.
  EXPECT_THROW(TraceFileReader{reduced}, std::runtime_error);
  EXPECT_THROW(TraceFileReader{merged}, std::runtime_error);

  for (const auto& p : {full, text, reduced, merged, garbage}) std::remove(p.c_str());
}

TEST(TraceFile, TruncatedBinaryThrows) {
  const Trace trace = eval::runWorkload("late_sender", {0.05, 42});
  auto bytes = serializeFullTrace(trace);
  bytes.resize(bytes.size() / 2);
  const std::string path = tmpPath("trunc.trf");
  writeFile(path, bytes);
  TraceFileReader reader(path, 256);
  EXPECT_ANY_THROW(reader.streamRecords([](Rank, const RawRecord&) {}));
  std::remove(path.c_str());
}

// The malformed-vs-truncated contract, pinned by message: std::out_of_range
// means "ran off the end — more bytes might complete this" (the incremental
// readers wait on it); std::runtime_error means "no suffix can make this
// valid" (rejected the moment it is read).
TEST(TraceFile, MalformedBinaryInputsNamePointedErrors) {
  // A varint cut off mid-continuation is truncation.
  const std::uint8_t cut[] = {0x80};
  expectMessageContains(thrownMessage([&] {
                          ByteReader r(cut, sizeof cut);
                          r.uvarint();
                        }),
                        "truncated input");

  // An overflowing varint can never become valid with more bytes.
  const std::vector<std::uint8_t> overlong(10, 0xff);
  expectMessageContains(thrownMessage([&] {
                          ByteReader r(overlong.data(), overlong.size());
                          r.uvarint();
                        }),
                        "uvarint overflows 64 bits");

  // A string declaring a terabyte length with one byte behind it is rejected
  // as truncation before any allocation happens.
  ByteWriter w;
  w.u32(codec::kFullMagic);
  w.u8(codec::kVersion);
  w.uvarint(1);            // one string...
  w.uvarint(1ull << 40);   // ...claiming a terabyte length
  w.u8('x');
  const std::vector<std::uint8_t> bytes = w.bytes();
  EXPECT_THROW(deserializeFullTrace(bytes), std::out_of_range);
}

TEST(TraceFile, OversizedDeclaredCountsAreTruncationNotAllocation) {
  // TRM1 declaring 2^62 shared-store segments with no bytes behind them:
  // the reader must fail as truncation after decoding what is actually
  // there — never std::bad_alloc from trusting the count
  // (codec::reserveHint caps the pre-allocation).
  ByteWriter w;
  w.u32(codec::kMergedMagic);
  w.u8(codec::kVersion);
  w.uvarint(0);            // empty string table
  w.uvarint(1ull << 62);   // hostile shared-store count
  const std::vector<std::uint8_t> bytes = w.bytes();
  EXPECT_THROW(deserializeMergedTrace(bytes), std::out_of_range);
}

/// A one-rank TRF1 whose only (empty) rank section carries `rankId`.
std::vector<std::uint8_t> oneRankTrf1(std::uint64_t rankId) {
  ByteWriter w;
  w.u32(codec::kFullMagic);
  w.u8(codec::kVersion);
  w.uvarint(0);  // no strings
  w.uvarint(1);  // one rank section...
  w.uvarint(rankId);
  w.uvarint(0);  // ...with no records
  return w.bytes();
}

// Rank ids are 32-bit. An id above INT32_MAX used to be narrowed silently:
// 2^32+1 reduced as rank 1, and 2^31 turned negative and failed as "rank
// entries out of ascending order". Every decode site rejects it by name.
TEST(TraceFile, OutOfRangeRankIdsAreRejectedByName) {
  const std::string path = tmpPath("rank_id.trf");
  const auto config = core::ReductionConfig::defaults(core::Method::kRelDiff);
  for (const std::uint64_t id : {(1ull << 32) + 1, 1ull << 31}) {
    SCOPED_TRACE(id);
    const std::vector<std::uint8_t> bytes = oneRankTrf1(id);
    writeFile(path, bytes);
    const std::string want =
        "rank id " + std::to_string(id) + " exceeds the maximum 2147483647";
    expectMessageContains(thrownMessage([&] { deserializeFullTrace(bytes); }), want);
    expectMessageContains(thrownMessage([&] { TraceFileReader(path).readAll(); }), want);
    expectMessageContains(thrownMessage([&] { reduceStreaming(path, config, 7); }), want);
  }
  // The largest legal id still reads.
  writeFile(path, oneRankTrf1(std::numeric_limits<Rank>::max()));
  EXPECT_EQ(TraceFileReader(path).readAll().rank(0).rank, std::numeric_limits<Rank>::max());
  std::remove(path.c_str());

  // TRR1 and TRM1 rank ids go through the same check.
  const std::string want = "rank id 4294967297 exceeds the maximum";
  ByteWriter trr;
  trr.u32(codec::kReducedMagic);
  trr.u8(codec::kVersion);
  trr.uvarint(0);                  // no strings
  trr.uvarint(1);                  // one rank
  trr.uvarint((1ull << 32) + 1);   // its id
  trr.uvarint(0);                  // no stored segments
  trr.uvarint(0);                  // no execs
  expectMessageContains(thrownMessage([&] { deserializeReducedTrace(trr.bytes()); }), want);
  ByteWriter trm;
  trm.u32(codec::kMergedMagic);
  trm.u8(codec::kVersion);
  trm.uvarint(0);                  // no strings
  trm.uvarint(0);                  // empty shared store
  trm.uvarint(1);                  // one rank
  trm.uvarint((1ull << 32) + 1);   // its id
  trm.uvarint(0);                  // no execs
  expectMessageContains(thrownMessage([&] { deserializeMergedTrace(trm.bytes()); }), want);
}

TEST(TraceFile, TextDeclaredRanksCapIsEnforced) {
  // Readers materialize state per DECLARED rank, so the parser rejects a
  // hostile count up front...
  TextTraceParser parser;
  EXPECT_FALSE(parser.feedLine("# tracered text trace v1"));
  expectMessageContains(thrownMessage([&] { parser.feedLine("ranks 2000000000"); }),
                        "exceeds the text format's maximum of 1048576");

  // ...the cap itself is legal...
  TextTraceParser atCap;
  EXPECT_FALSE(atCap.feedLine("ranks 1048576"));
  EXPECT_EQ(atCap.declaredRanks(), kMaxTextDeclaredRanks);

  // ...and the writer refuses to emit a header no reader would accept.
  std::ostringstream os;
  const StringTable names;
  expectMessageContains(
      thrownMessage([&] { writeTextHeader(os, names, kMaxTextDeclaredRanks + 1); }),
      "use the binary format (TRF1)");
}

TEST(TraceFile, TextStreamingMatchesTraceFromText) {
  const Trace trace = eval::runWorkload("late_broadcast", {0.05, 42});
  const std::string textPath = tmpPath("stream.txt");
  writeTraceFile(textPath, trace, TraceFileFormat::kText);

  TraceFileReader reader(textPath);
  EXPECT_EQ(reader.format(), TraceFileFormat::kText);
  expectSameTrace(reader.readAll(), traceFromText(traceToText(trace)));
  std::remove(textPath.c_str());
}

TEST(TraceFile, TextDeclaredButIdleRanksAppear) {
  const std::string path = tmpPath("idle.txt");
  {
    std::ofstream f(path);
    f << "# tracered text trace v1\nranks 3\nstring 0 main.1\n"
      << "rank 1\nB 10 0\nE 20 0\n";
  }
  TraceFileReader reader(path);
  EXPECT_EQ(reader.numRanks(), 3u);
  const Trace back = reader.readAll();
  ASSERT_EQ(back.numRanks(), 3);
  EXPECT_TRUE(back.rank(0).records.empty());
  EXPECT_EQ(back.rank(1).records.size(), 2u);

  // Streaming reduction wired straight to feed/ensureRank must include the
  // idle ranks too — the reader, not the caller, announces the declared set.
  const auto config = core::ReductionConfig::defaults(core::Method::kRelDiff);
  const auto streamed = reduceStreaming(path, config, 64);
  core::ReductionSession offline(back.names(), config);
  EXPECT_EQ(streamed, serializeReducedTrace(offline.reduce(segmentTrace(back)).reduced));

  std::remove(path.c_str());
}

TEST(TraceFile, TextRevisitedRankSectionsReduceIdentically) {
  // Sections may revisit a rank; record order per rank is file order, so
  // streaming reduction still equals offline reduction of the parsed trace.
  const std::string path = tmpPath("revisit.txt");
  {
    std::ofstream f(path);
    f << "# tracered text trace v1\nranks 2\nstring 0 main.1\nstring 1 do_work\n";
    f << "rank 0\nB 0 0\n> 1 1 0\n< 9 1\nE 10 0\n";
    f << "rank 1\nB 0 0\n> 1 1 0\n< 8 1\nE 10 0\n";
    f << "rank 0\nB 20 0\n> 21 1 0\n< 29 1\nE 30 0\n";
  }
  const core::ReductionConfig config = core::ReductionConfig::defaults(core::Method::kRelDiff);
  const Trace parsed = TraceFileReader(path).readAll();
  const auto offline = serializeReducedTrace(
      core::ReductionSession(parsed.names(), config).reduce(segmentTrace(parsed)).reduced);
  EXPECT_EQ(reduceStreaming(path, config, 64), offline);
  std::remove(path.c_str());
}

TEST(TraceFile, ReaderIsSinglePass) {
  const Trace trace = eval::runWorkload("late_sender", {0.05, 42});
  const std::string path = tmpPath("once.trf");
  writeTraceFile(path, trace);
  TraceFileReader reader(path);
  reader.streamRecords([](Rank, const RawRecord&) {});
  EXPECT_THROW(reader.streamRecords([](Rank, const RawRecord&) {}), std::logic_error);
  std::remove(path.c_str());
}

TEST(TraceFile, WriterValidatesRankCount) {
  const Trace trace = eval::runWorkload("late_sender", {0.05, 42});
  const std::string path = tmpPath("short.trf");
  {
    TraceFileWriter w(path, trace.names(), 2);
    w.writeRank(trace.rank(0));
    EXPECT_THROW(w.finish(), std::runtime_error);
  }
  // The abandoned write removed its truncated file.
  EXPECT_FALSE(std::filesystem::exists(path));
  {
    TraceFileWriter w(path, trace.names(), 1);
    w.writeRank(trace.rank(0));
    EXPECT_THROW(w.writeRank(trace.rank(1)), std::logic_error);
  }
  EXPECT_THROW(TraceFileWriter(path, trace.names(), 1, TraceFileFormat::kReducedBinary),
               std::invalid_argument);
  {
    // Text cannot express non-dense rank ids; the writer must fail at write
    // time rather than emit a file no reader accepts.
    TraceFileWriter w(path, trace.names(), 2, TraceFileFormat::kText);
    RankTrace sparse;
    sparse.rank = 5;
    EXPECT_THROW(w.writeRank(sparse), std::runtime_error);
  }
  {
    // Binary sections must have strictly ascending rank ids (the streaming
    // reader's rule); the writer enforces it at write time too.
    TraceFileWriter w(path, trace.names(), 2);
    w.writeRank(trace.rank(1));
    EXPECT_THROW(w.writeRank(trace.rank(0)), std::runtime_error);
  }
  {
    // ... including the first section: a negative id would be a file the
    // streaming reader always rejects.
    TraceFileWriter w(path, trace.names(), 1);
    RankTrace negative;
    negative.rank = -1;
    EXPECT_THROW(w.writeRank(negative), std::runtime_error);
  }
  std::remove(path.c_str());
}

/// Rebuilds a binary trace from decoder events, sections in file order.
struct CollectingSink final : TraceDecoder::Sink {
  Trace trace;
  void onHeader(const TraceDecoder&) override {}
  void onRank(Rank rank) override { trace.addRank().rank = rank; }
  void onRecord(Rank, const RawRecord& rec) override {
    trace.rank(trace.numRanks() - 1).records.push_back(rec);
  }
};

// A push boundary may fall inside any primitive. A TRF1 with a long name,
// multi-byte varints, message info and a negative delta, pushed one byte at
// a time, decodes exactly like the whole buffer while holding at most one
// primitive.
TEST(TraceFile, DecoderCrossesPushBoundaries) {
  const std::string longName = "a longer name that certainly spans several one-byte pushes";
  Trace trace(1);
  const NameId ctx = trace.names().intern(longName);
  const NameId fn = trace.names().intern("f");
  const TimeUs t0 = 0x3ffffffffLL;  // a multi-byte varint
  RawRecord begin{};
  begin.kind = RecordKind::kSegBegin;
  begin.name = ctx;
  begin.time = t0;
  RawRecord enter{};
  enter.kind = RecordKind::kEnter;
  enter.name = fn;
  enter.time = t0 + 5;
  enter.op = OpKind::kSend;
  enter.msg = MsgInfo{-3, 7, 0, 1, 123456789u};
  RawRecord exit{};
  exit.kind = RecordKind::kExit;
  exit.name = fn;
  exit.time = t0 - 123456789;  // negative delta: decoding does not order
  trace.rank(0).records = {begin, enter, exit};
  const std::vector<std::uint8_t> bytes = serializeFullTrace(trace);

  CollectingSink sink;
  TraceDecoder decoder;
  for (const std::uint8_t b : bytes) decoder.push(&b, 1, &sink);
  decoder.finish(&sink);
  for (const auto& name : decoder.names().all()) sink.trace.names().intern(name);
  expectSameTrace(sink.trace, deserializeFullTrace(bytes));
  EXPECT_EQ(decoder.pendingBytes(), 0u);
  EXPECT_LE(decoder.maxBufferedBytes(), longName.size() + 1);  // the name + its length

  // One byte short: reported at finish as a truncated trace. That is
  // malformed (std::runtime_error), since no more bytes are coming.
  TraceDecoder cut;
  CollectingSink cutSink;
  cut.push(bytes.data(), bytes.size() - 1, &cutSink);
  EXPECT_THROW(cut.finish(&cutSink), std::runtime_error);

  // A name whose length prefix decodes to ~2^64 never reaches the
  // allocator: the decoder waits for bytes, and its parse window bounds
  // the wait.
  ByteWriter hw;
  hw.u32(codec::kFullMagic);
  hw.u8(codec::kVersion);
  hw.uvarint(1);
  hw.uvarint(std::numeric_limits<std::uint64_t>::max());
  TraceDecoder windowed(/*maxPendingBytes=*/64);
  CollectingSink windowedSink;
  windowed.push(hw.bytes().data(), hw.size(), &windowedSink);
  const std::vector<std::uint8_t> filler(100, 'x');
  expectMessageContains(
      thrownMessage([&] { windowed.push(filler.data(), filler.size(), &windowedSink); }),
      "parse window");

  // >= 64 significant bits is malformed per FORMATS.md: a 10th byte carrying
  // more than bit 63 must be rejected, not silently truncated. The type
  // matters: std::runtime_error (malformed — no amount of further bytes can
  // fix it), NOT std::out_of_range (truncated — the decoder waits for more
  // input on that type).
  const std::string overflow("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f", 10);
  ByteReader bor(reinterpret_cast<const std::uint8_t*>(overflow.data()), overflow.size());
  try {
    bor.uvarint();
    FAIL() << "overflowing uvarint must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "uvarint overflows 64 bits");
  }
  // ...while the max encodable value still round-trips.
  ByteWriter mw;
  mw.uvarint(std::numeric_limits<std::uint64_t>::max());
  ByteReader mr(mw.bytes());
  EXPECT_EQ(mr.uvarint(), std::numeric_limits<std::uint64_t>::max());
}

TEST(TraceFile, DesegmentRoundTripsSegmentation) {
  const Trace trace = eval::runWorkload("dyn_load_balance", {0.05, 42});
  const SegmentedTrace segmented = segmentTrace(trace);
  const Trace flat = desegmentTrace(segmented, trace.names());
  const SegmentedTrace again = segmentTrace(flat);
  ASSERT_EQ(again.ranks.size(), segmented.ranks.size());
  for (std::size_t r = 0; r < segmented.ranks.size(); ++r) {
    EXPECT_EQ(again.ranks[r].rank, segmented.ranks[r].rank);
    EXPECT_EQ(again.ranks[r].segments, segmented.ranks[r].segments);
  }
}

TEST(TraceFile, StatsFromReducedMatchesReductionStats) {
  const Trace trace = eval::runWorkload("NtoN_32", {0.1, 42});
  const SegmentedTrace segmented = segmentTrace(trace);
  for (core::Method m : core::allMethods()) {
    SCOPED_TRACE(core::methodName(m));
    const auto result =
        core::ReductionSession(trace.names(), core::ReductionConfig::defaults(m))
            .reduce(segmented);
    // Round-trip through the file format first: the CLI's eval path only
    // ever sees the file.
    const ReducedTrace back = deserializeReducedTrace(serializeReducedTrace(result.reduced));
    EXPECT_EQ(core::statsFromReduced(back), result.stats);
  }

  // More stored segments than execs is malformed (every stored segment has
  // at least its own exec): reject rather than wrap the subtraction.
  ReducedTrace malformed;
  RankReduced rr;
  rr.rank = 0;
  rr.stored.resize(2);
  rr.execs.resize(1);
  malformed.ranks.push_back(std::move(rr));
  EXPECT_THROW(core::statsFromReduced(malformed), std::runtime_error);
}

}  // namespace
}  // namespace tracered
