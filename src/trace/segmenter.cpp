#include "trace/segmenter.hpp"

#include <stdexcept>
#include <string>

#include "trace/trace_codec.hpp"

namespace tracered {

Segmenter::Segmenter(Rank rank, const StringTable& names) : rank_(rank), names_(names) {}

void Segmenter::fail(const std::string& what) const {
  throw std::runtime_error("segmenter: rank " + std::to_string(rank_) + ": " + what);
}

const Segment* Segmenter::push(const RawRecord& rec) {
  switch (rec.kind) {
    case RecordKind::kSegBegin:
      if (hasPendingEnter_) fail("segment begins inside an open event");
      if (open_) fail("nested segment begin for context '" + names_.name(rec.name) + "'");
      current_.context = rec.name;
      current_.rank = rank_;
      current_.absStart = rec.time;
      current_.end = 0;
      current_.events.clear();  // keeps the capacity for this segment
      open_ = true;
      return nullptr;
    case RecordKind::kSegEnd: {
      if (hasPendingEnter_) fail("segment ends inside an open event");
      if (!open_ || current_.context != rec.name)
        fail("unmatched segment end for context '" + names_.name(rec.name) + "'");
      if (rec.time < current_.absStart)
        fail("segment '" + names_.name(rec.name) + "' ends at " + std::to_string(rec.time) +
             "us, before its begin at " + std::to_string(current_.absStart) + "us");
      open_ = false;
      // Rebase events relative to the segment start (the first loop of the
      // paper's matching algorithm). Wrapping arithmetic: a hostile trace
      // can span more than INT64_MAX microseconds, and signed overflow is UB.
      current_.end = codec::wrapSub(rec.time, current_.absStart);
      for (auto& e : current_.events) {
        e.start = codec::wrapSub(e.start, current_.absStart);
        e.end = codec::wrapSub(e.end, current_.absStart);
      }
      return &current_;
    }
    case RecordKind::kEnter:
      if (hasPendingEnter_) fail("nested function enter (flat event model expected)");
      if (!open_) fail("event outside any segment: '" + names_.name(rec.name) + "'");
      if (rec.time < current_.absStart)
        fail("event '" + names_.name(rec.name) + "' enters at " + std::to_string(rec.time) +
             "us, before its segment began at " + std::to_string(current_.absStart) + "us");
      pendingEnter_ = rec;
      hasPendingEnter_ = true;
      return nullptr;
    case RecordKind::kExit: {
      if (!hasPendingEnter_ || pendingEnter_.name != rec.name)
        fail("exit without matching enter: '" + names_.name(rec.name) + "'");
      if (rec.time < pendingEnter_.time)
        fail("event '" + names_.name(rec.name) + "' exits at " + std::to_string(rec.time) +
             "us, before its enter at " + std::to_string(pendingEnter_.time) + "us");
      EventInterval ev;
      ev.name = rec.name;
      ev.op = pendingEnter_.op;
      ev.msg = pendingEnter_.msg;
      ev.start = pendingEnter_.time;  // absolute for now; rebased at the end
      ev.end = rec.time;
      current_.events.push_back(ev);
      hasPendingEnter_ = false;
      return nullptr;
    }
  }
  return nullptr;
}

void Segmenter::finish() const {
  if (hasPendingEnter_) fail("trace ends inside an open event");
  if (open_) fail("trace ends inside an open segment");
}

RankSegments segmentRank(const RankTrace& rankTrace, const StringTable& names) {
  RankSegments out;
  out.rank = rankTrace.rank;
  Segmenter segmenter(rankTrace.rank, names);
  for (const RawRecord& rec : rankTrace.records) {
    if (const Segment* seg = segmenter.push(rec)) out.segments.push_back(*seg);
  }
  segmenter.finish();
  return out;
}

Trace desegmentTrace(const SegmentedTrace& segmented, const StringTable& names) {
  Trace trace;
  for (const auto& s : names.all()) trace.names().intern(s);
  for (const RankSegments& rs : segmented.ranks) {
    RankTrace& rt = trace.addRank();
    rt.rank = rs.rank;
    for (const Segment& seg : rs.segments) {
      RawRecord rec;
      rec.kind = RecordKind::kSegBegin;
      rec.name = seg.context;
      rec.time = seg.absStart;
      rt.records.push_back(rec);
      for (const EventInterval& e : seg.events) {
        RawRecord enter;
        enter.kind = RecordKind::kEnter;
        enter.op = e.op;
        enter.name = e.name;
        enter.time = seg.absStart + e.start;
        enter.msg = e.msg;
        rt.records.push_back(enter);
        RawRecord exit;
        exit.kind = RecordKind::kExit;
        exit.name = e.name;
        exit.time = seg.absStart + e.end;
        rt.records.push_back(exit);
      }
      rec.kind = RecordKind::kSegEnd;
      rec.time = seg.absStart + seg.end;
      rt.records.push_back(rec);
    }
  }
  return trace;
}

SegmentedTrace segmentTrace(const Trace& trace) {
  SegmentedTrace out;
  out.ranks.reserve(static_cast<std::size_t>(trace.numRanks()));
  for (Rank r = 0; r < trace.numRanks(); ++r)
    out.ranks.push_back(segmentRank(trace.rank(r), trace.names()));
  return out;
}

}  // namespace tracered
