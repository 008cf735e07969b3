// Shared record-level codec for the TRF1/TRR1 binary formats.
//
// The whole-buffer (de)serializers in trace_io, the push-style TraceDecoder
// (trace_decoder) and the rank-at-a-time TraceFileWriter (trace_file) encode
// the SAME byte layout (docs/FORMATS.md is the normative spec). These
// templates are that layout's single definition: they are parameterized on
// the writer/reader type, which is what makes "streaming output is
// byte-identical to offline output" a structural guarantee rather than a
// test-only one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "trace/event.hpp"
#include "trace/segment.hpp"
#include "trace/string_table.hpp"
#include "util/time_types.hpp"

namespace tracered::codec {

inline constexpr std::uint32_t kFullMagic = 0x31465254;     // "TRF1"
inline constexpr std::uint32_t kReducedMagic = 0x31525254;  // "TRR1"
inline constexpr std::uint32_t kMergedMagic = 0x314d5254;   // "TRM1"
inline constexpr std::uint8_t kVersion = 1;

/// Pre-allocation guard for decoded element counts: a hostile length prefix
/// must cost bytes-proportional memory, not count-proportional. Counts below
/// the cap are trusted (one reserve, no growth); above it the vector grows
/// organically — each element still has to be decoded from real input bytes,
/// so a declared-but-absent 2^60 never allocates.
inline std::size_t reserveHint(std::uint64_t declared) {
  constexpr std::uint64_t kMaxTrustedCount = 1u << 16;
  return static_cast<std::size_t>(declared < kMaxTrustedCount ? declared
                                                              : kMaxTrustedCount);
}

/// Delta decoding over adversarial input can legally produce any i64 pair, so
/// the reconstruction arithmetic must not rely on the sum/difference staying
/// in range: signed overflow is UB (and aborts under -fsanitize=undefined).
/// Two's-complement wrapping via the unsigned domain is bit-identical to
/// plain +/- whenever the values are in range — i.e. for every trace our
/// writers produce — so golden corpora are unaffected.
inline TimeUs wrapAdd(TimeUs a, TimeUs b) {
  return static_cast<TimeUs>(static_cast<std::uint64_t>(a) +
                             static_cast<std::uint64_t>(b));
}

inline TimeUs wrapSub(TimeUs a, TimeUs b) {
  return static_cast<TimeUs>(static_cast<std::uint64_t>(a) -
                             static_cast<std::uint64_t>(b));
}

/// Decodes and validates the <magic, version> preamble of a full trace —
/// the one definition both the whole-buffer and streaming readers call, so
/// the accepted header can never drift between them.
template <class R>
void readFullHeader(R& r) {
  if (r.u32() != kFullMagic) throw std::runtime_error("trace_io: bad full-trace magic");
  if (r.u8() != kVersion) throw std::runtime_error("trace_io: unsupported version");
}

/// Decodes a rank id (uvarint). Rank is 32-bit signed, so an id above
/// INT32_MAX is malformed: narrowing it would silently alias another rank
/// (2^32+1 reads as rank 1) or turn negative. The one decode every reader of
/// TRF1/TRR1/TRM1 rank ids goes through.
template <class R>
Rank readRankId(R& r) {
  const std::uint64_t id = r.uvarint();
  if (id > static_cast<std::uint64_t>(std::numeric_limits<Rank>::max()))
    throw std::runtime_error("trace_io: rank id " + std::to_string(id) +
                             " exceeds the maximum " +
                             std::to_string(std::numeric_limits<Rank>::max()));
  return static_cast<Rank>(id);
}

inline bool msgIsEmpty(const MsgInfo& m) { return m == MsgInfo{}; }

template <class W>
void writeMsgInfo(W& w, const MsgInfo& m) {
  if (msgIsEmpty(m)) {
    w.u8(0);
    return;
  }
  w.u8(1);
  w.svarint(m.peer);
  w.svarint(m.tag);
  w.svarint(m.root);
  w.svarint(m.comm);
  w.uvarint(m.bytes);
}

template <class R>
MsgInfo readMsgInfo(R& r) {
  MsgInfo m;
  const std::uint8_t present = r.u8();
  if (present == 0) return m;
  if (present != 1) throw std::runtime_error("trace_io: bad msg-present byte");
  m.peer = static_cast<std::int32_t>(r.svarint());
  m.tag = static_cast<std::int32_t>(r.svarint());
  m.root = static_cast<std::int32_t>(r.svarint());
  m.comm = static_cast<std::int32_t>(r.svarint());
  m.bytes = static_cast<std::uint32_t>(r.uvarint());
  return m;
}

template <class W>
void writeStringTable(W& w, const StringTable& names) {
  w.uvarint(names.size());
  for (const auto& s : names.all()) w.str(s);
}

template <class R>
StringTable readStringTable(R& r) {
  StringTable names;
  const std::uint64_t n = r.uvarint();
  for (std::uint64_t i = 0; i < n; ++i) names.intern(r.str());
  return names;
}

/// One raw record, time delta-encoded against `prev` (the previous record's
/// time in the same rank; callers reset `prev` to 0 at each rank boundary).
template <class W>
void writeRecord(W& w, const RawRecord& rec, TimeUs& prev) {
  w.u8(static_cast<std::uint8_t>(rec.kind));
  w.uvarint(rec.name);
  w.svarint(wrapSub(rec.time, prev));
  prev = rec.time;
  if (rec.kind == RecordKind::kEnter) {
    w.u8(static_cast<std::uint8_t>(rec.op));
    writeMsgInfo(w, rec.msg);
  }
}

template <class R>
RawRecord readRecord(R& r, TimeUs& prev) {
  RawRecord rec;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(RecordKind::kSegEnd))
    throw std::runtime_error("trace_io: bad record kind");
  rec.kind = static_cast<RecordKind>(kind);
  rec.name = static_cast<NameId>(r.uvarint());
  rec.time = wrapAdd(prev, r.svarint());
  prev = rec.time;
  if (rec.kind == RecordKind::kEnter) {
    const std::uint8_t op = r.u8();
    if (op > static_cast<std::uint8_t>(OpKind::kOther))
      throw std::runtime_error("trace_io: bad op kind");
    rec.op = static_cast<OpKind>(op);
    rec.msg = readMsgInfo(r);
  }
  return rec;
}

/// One stored representative segment (TRR1): context, relative end, events
/// with intra-segment delta encoding.
template <class W>
void writeSegment(W& w, const Segment& s) {
  w.uvarint(s.context);
  w.svarint(s.end);
  w.uvarint(s.events.size());
  TimeUs prev = 0;
  for (const EventInterval& e : s.events) {
    w.uvarint(e.name);
    w.u8(static_cast<std::uint8_t>(e.op));
    w.svarint(wrapSub(e.start, prev));
    w.svarint(wrapSub(e.end, e.start));
    prev = e.end;
    writeMsgInfo(w, e.msg);
  }
}

template <class R>
Segment readSegment(R& r, Rank rank) {
  Segment s;
  s.rank = rank;
  s.context = static_cast<NameId>(r.uvarint());
  s.end = r.svarint();
  const std::uint64_t n = r.uvarint();
  s.events.reserve(reserveHint(n));
  TimeUs prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    EventInterval e;
    e.name = static_cast<NameId>(r.uvarint());
    const std::uint8_t op = r.u8();
    if (op > static_cast<std::uint8_t>(OpKind::kOther))
      throw std::runtime_error("trace_io: bad op kind");
    e.op = static_cast<OpKind>(op);
    e.start = wrapAdd(prev, r.svarint());
    e.end = wrapAdd(e.start, r.svarint());
    prev = e.end;
    e.msg = readMsgInfo(r);
    s.events.push_back(e);
  }
  return s;
}

}  // namespace tracered::codec
