#include "trace/trace_decoder.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "trace/trace_codec.hpp"
#include "util/bytebuf.hpp"

namespace tracered {

namespace {

/// The whitespace std::istream's >> skips in the C locale (the text parser
/// tokenizes with it).
bool isSpace(std::uint8_t c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

bool isTextDirective(std::string_view tok) {
  return tok[0] == '#' || tok == "ranks" || tok == "string" || tok == "rank" || tok == "B" ||
         tok == "E" || tok == ">" || tok == "<";
}

[[noreturn]] void unrecognized() {
  throw std::runtime_error(
      "trace_decoder: unrecognized trace format (neither a TRF1/TRR1/TRM1 magic nor a "
      "text trace directive)");
}

/// Runs one codec read over the buffered bytes; false when it ran off their
/// end (std::out_of_range: wait for more input). Only the read goes in
/// here: an exception a sink throws must never pass for "incomplete".
template <class F>
bool complete(F&& read) {
  try {
    read();
    return true;
  } catch (const std::out_of_range&) {
    return false;
  }
}

}  // namespace

const char* formatName(TraceFileFormat f) {
  switch (f) {
    case TraceFileFormat::kFullBinary:
      return "full binary (TRF1)";
    case TraceFileFormat::kReducedBinary:
      return "reduced binary (TRR1)";
    case TraceFileFormat::kMergedBinary:
      return "merged binary (TRM1)";
    case TraceFileFormat::kText:
      return "text trace v1";
  }
  return "?";
}

std::optional<TraceFileFormat> sniffTraceFormat(const std::uint8_t* data, std::size_t size,
                                                bool atEnd) {
  if (size >= 4) {
    // Little-endian u32 against the codec's constants — the single
    // definition of the magics.
    std::uint32_t m = 0;
    for (int i = 0; i < 4; ++i) m |= static_cast<std::uint32_t>(data[i]) << (8 * i);
    if (m == codec::kFullMagic) return TraceFileFormat::kFullBinary;
    if (m == codec::kReducedMagic) return TraceFileFormat::kReducedBinary;
    if (m == codec::kMergedMagic) return TraceFileFormat::kMergedBinary;
  } else if (!atEnd) {
    return std::nullopt;  // could still become a magic
  }
  // Text iff the first token (blank lines skipped) is a v1 directive or
  // comment; the parser does the real validation. Bounded, so a huge
  // newline-free non-trace is rejected without being buffered whole.
  const std::size_t limit = std::min(size, kFormatSniffBytes);
  std::size_t begin = 0;
  while (begin < limit && isSpace(data[begin])) ++begin;
  std::size_t end = begin;
  while (end < limit && !isSpace(data[end])) ++end;
  if (end == limit && !(atEnd && limit == size)) {
    if (limit < kFormatSniffBytes) return std::nullopt;  // the token may continue
    unrecognized();
  }
  if (end == begin ||
      !isTextDirective({reinterpret_cast<const char*>(data + begin), end - begin}))
    unrecognized();
  return TraceFileFormat::kText;
}

TraceDecoder::TraceDecoder(std::size_t maxPendingBytes)
    : maxPending_(maxPendingBytes == 0 ? 1 : maxPendingBytes) {}

void TraceDecoder::push(const std::uint8_t* data, std::size_t n, Sink* sink) {
  if (ended_) throw std::logic_error("trace_decoder: push after finish");
  // Resuming after a pause at the header: drain what the pause left
  // buffered first, so the buffer does not grow to twice the push size.
  if (headerDone_ && !headerAnnounced_ && sink != nullptr) decode(sink);
  // Grow to fit, plus room for a typical tail: doubling would keep twice
  // the push size resident for the whole stream.
  if (pending_.size() + n > pending_.capacity()) pending_.reserve(pending_.size() + n + 4096);
  pending_.insert(pending_.end(), data, data + n);
  highWater_ = std::max(highWater_, pending_.size());
  decode(sink);
  if (pendingBytes() > maxPending_)
    throw std::runtime_error(
        "trace_decoder: a single record/primitive exceeds the " + std::to_string(maxPending_) +
        "-byte parse window (malformed or unsupported trace stream)");
}

void TraceDecoder::finish(Sink* sink) {
  if (finished_) throw std::logic_error("trace_decoder: finish called twice");
  ended_ = true;
  decode(sink);
  const bool whole = state_ == State::kText ? headerDone_ : state_ == State::kDone;
  if (!whole && (sink != nullptr || !headerDone_)) {
    const std::string where =
        !headerDone_ ? "the header"
                     : "rank section " + std::to_string(ranksSeen_ + 1) + " of " +
                           std::to_string(numRanks_);
    throw std::runtime_error("trace_decoder: truncated trace: the input ends inside " +
                             where + " (" + std::to_string(pendingBytes()) +
                             " undecodable trailing bytes)");
  }
  if (sink == nullptr) return;
  finished_ = true;
  announceHeader(sink);
  if (state_ == State::kText) {
    // Text sections are optional per rank: announce the declared-but-absent
    // ones, so a reducer wired straight to onRank sees offline's rank set.
    for (std::size_t r = 0; r < announced_.size(); ++r)
      if (!announced_[r]) sink->onRank(static_cast<Rank>(r));
  }
}

void TraceDecoder::decode(Sink* sink) {
  if (state_ == State::kSniff) {
    const std::optional<TraceFileFormat> f =
        sniffTraceFormat(pending_.data() + consumed_, pendingBytes(), ended_);
    if (!f) return;
    if (*f == TraceFileFormat::kReducedBinary)
      throw std::runtime_error(
          "trace_decoder: the input is already a reduced trace (TRR1) where a full trace is "
          "expected; 'tracered convert --reconstruct' turns it into an approximated full "
          "trace (library code: deserializeReducedTrace)");
    if (*f == TraceFileFormat::kMergedBinary)
      throw std::runtime_error(
          "trace_decoder: the input is a cross-rank merged trace (TRM1) where a full trace is "
          "expected; merged traces are small by construction — read them whole via "
          "deserializeMergedTrace");
    format_ = *f;
    state_ = *f == TraceFileFormat::kText ? State::kText : State::kHeader;
  }
  if (state_ == State::kText)
    decodeText(sink);
  else
    decodeBinary(sink);
  // Drop the decoded prefix: what is left is one incomplete primitive (or,
  // paused after the header, the rest of one push), so this stays cheap.
  if (consumed_ > 0) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

void TraceDecoder::completeHeader(std::size_t numRanks) {
  numRanks_ = numRanks;
  headerDone_ = true;
  if (format_ == TraceFileFormat::kText) announced_.assign(numRanks, false);
}

bool TraceDecoder::announceHeader(Sink* sink) {
  if (headerAnnounced_) return true;
  if (sink == nullptr) return false;  // paused after the header
  headerAnnounced_ = true;
  sink->onHeader(*this);
  return true;
}

void TraceDecoder::decodeBinary(Sink* sink) {
  ByteReader r(pending_.data() + consumed_, pendingBytes());
  std::size_t committed = 0;  // bytes of r fully decoded
  for (;;) {
    if (headerDone_ && !announceHeader(sink)) break;
    bool progress = false;
    switch (state_) {
      case State::kHeader:
        progress = complete([&] { codec::readFullHeader(r); });
        if (progress) state_ = State::kStringCount;
        break;
      case State::kStringCount:
        progress = complete([&] { stringsLeft_ = r.uvarint(); });
        if (progress) state_ = stringsLeft_ == 0 ? State::kNumRanks : State::kStrings;
        break;
      case State::kStrings: {
        // One string per step, so a partially arrived table still commits
        // every complete entry.
        std::string s;
        progress = complete([&] { s = r.str(); });
        if (progress) {
          names_.intern(s);
          if (--stringsLeft_ == 0) state_ = State::kNumRanks;
        }
        break;
      }
      case State::kNumRanks: {
        std::uint64_t n = 0;
        progress = complete([&] { n = r.uvarint(); });
        if (progress) {
          completeHeader(static_cast<std::size_t>(n));
          state_ = n == 0 ? State::kDone : State::kRankHeader;
        }
        break;
      }
      case State::kRankHeader: {
        Rank rank = 0;
        std::uint64_t nRecs = 0;
        progress = complete([&] {
          rank = codec::readRankId(r);
          nRecs = r.uvarint();
        });
        if (!progress) break;
        // Ascending ids make streaming (rank-id-ordered) and offline (file-
        // ordered) reduction agree; every file our writers emit satisfies it.
        if (rank <= curRank_)
          throw std::runtime_error("trace_decoder: rank entries out of ascending order (rank " +
                                   std::to_string(rank) + " follows rank " +
                                   std::to_string(curRank_) + ")");
        curRank_ = rank;
        recsLeft_ = nRecs;
        prevTime_ = 0;
        sink->onRank(rank);
        if (nRecs == 0) state_ = ++ranksSeen_ == numRanks_ ? State::kDone : State::kRankHeader;
        else state_ = State::kRecords;
        break;
      }
      case State::kRecords:
        // The hot loop: every buffered record of the section in one pass,
        // committing position and time after each complete decode.
        while (recsLeft_ > 0) {
          RawRecord rec;
          TimeUs prev = prevTime_;
          if (!complete([&] { rec = codec::readRecord(r, prev); })) break;
          committed = r.position();
          prevTime_ = prev;
          --recsLeft_;
          sink->onRecord(curRank_, rec);
        }
        if (recsLeft_ > 0) break;
        state_ = ++ranksSeen_ == numRanks_ ? State::kDone : State::kRankHeader;
        progress = true;
        break;
      case State::kDone:
        if (!r.atEnd()) throw std::runtime_error("trace_io: trailing bytes in full trace");
        break;
      case State::kSniff:
      case State::kText:
        break;
    }
    if (!progress) break;
    committed = r.position();
  }
  consumed_ += committed;
}

void TraceDecoder::decodeText(Sink* sink) {
  for (;;) {
    if (headerDone_) {
      if (!announceHeader(sink)) return;
      if (rankPending_) {
        rankPending_ = false;
        announceRank(text_.currentRank(), sink);
      }
    }
    const std::uint8_t* begin = pending_.data() + consumed_;
    const std::size_t avail = pendingBytes();
    const void* nl = std::memchr(begin + lineScan_, '\n', avail - lineScan_);
    std::size_t len = avail;
    if (nl != nullptr) {
      len = static_cast<std::size_t>(static_cast<const std::uint8_t*>(nl) - begin);
    } else if (!ended_ || avail == 0) {
      lineScan_ = avail;  // no complete line yet: never rescan these bytes
      break;
    }  // else: the final line, without a trailing newline (getline accepts it too)
    textLine(reinterpret_cast<const char*>(begin), len, sink);
    consumed_ += nl != nullptr ? len + 1 : len;
    lineScan_ = 0;
  }
  if (ended_ && !headerDone_) {
    // A trace with no rank section at all: the header is the whole input.
    text_.finish();  // throws: missing 'ranks' header
    completeHeader(static_cast<std::size_t>(text_.declaredRanks()));
  }
}

void TraceDecoder::textLine(const char* line, std::size_t n, Sink* sink) {
  line_.assign(line, n);
  // Rank-section starts show as the parser's current rank changing — no
  // second tokenization per line. A consecutive re-announcement of the same
  // rank is invisible here, which is fine: it is already registered.
  const Rank before = text_.currentRank();
  if (text_.feedLine(line_)) {
    sink->onRecord(text_.currentRank(), text_.record());  // only after the header
    return;
  }
  if (text_.currentRank() == before) return;
  if (!headerDone_) {
    // The first `rank` line ends the header; announced on the next event.
    completeHeader(static_cast<std::size_t>(text_.declaredRanks()));
    rankPending_ = true;
    return;
  }
  announceRank(text_.currentRank(), sink);
}

void TraceDecoder::announceRank(Rank rank, Sink* sink) {
  announced_[static_cast<std::size_t>(rank)] = true;
  sink->onRank(rank);
}

}  // namespace tracered
