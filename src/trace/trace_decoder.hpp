// TraceDecoder: the one streaming decoder of full traces (TRF1 and text).
//
// Every client that ingests a full trace incrementally sits on this class:
// TraceFileReader pushes file chunks into it, the serve daemon's
// TraceStreamFeeder pushes network chunks, and both hand the decoded events
// to a ReductionSession. push() takes bytes in arbitrarily sized pieces,
// decodes every header element, rank section and record they complete, and
// keeps only the incomplete tail — so decode memory is bounded by one
// primitive (a name string or a text line), never by the trace.
//
// The format is sniffed from the leading bytes (sniffTraceFormat, which also
// backs detectTraceFile): a binary magic, else a text directive. Reduced
// (TRR1) and merged (TRM1) traces are rejected with a pointer at the right
// API. Binary bytes decode through the trace_codec templates; text lines go
// through TextTraceParser — the same definitions the whole-buffer readers
// use, which is what keeps streaming and offline reduction byte-identical.
//
// Truncated vs malformed: a decode that runs off the end of the buffered
// bytes (std::out_of_range from the codec) is "incomplete" and waits for the
// next push; anything else throws std::runtime_error at once. At finish(),
// input that is still incomplete is reported as a truncated trace
// (std::runtime_error — no more bytes are coming).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/string_table.hpp"
#include "trace/text_io.hpp"

namespace tracered {

/// On-disk trace flavors the format sniff recognizes.
enum class TraceFileFormat {
  kFullBinary,     ///< "TRF1": full trace, binary (docs/FORMATS.md §1).
  kReducedBinary,  ///< "TRR1": reduced trace, binary (docs/FORMATS.md §2).
  kMergedBinary,   ///< "TRM1": cross-rank merged trace (docs/FORMATS.md §2b).
  kText,           ///< Text trace v1, full traces only (docs/FORMATS.md §3).
};

const char* formatName(TraceFileFormat f);

/// How far the format sniff looks for the first text token.
inline constexpr std::size_t kFormatSniffBytes = 64 * 1024;

/// The format sniff: a 4-byte binary magic, else text iff the first token of
/// the input (after leading whitespace) is a v1 directive or comment.
/// Returns nullopt while `size` bytes cannot decide and more may follow
/// (`atEnd` false); throws std::runtime_error on unrecognizable input,
/// including a first token that does not end within kFormatSniffBytes.
std::optional<TraceFileFormat> sniffTraceFormat(const std::uint8_t* data, std::size_t size,
                                                bool atEnd);

class TraceDecoder {
 public:
  /// Receives the decoded events, in input order.
  class Sink {
   public:
    virtual ~Sink() = default;
    /// The header is complete: format(), names() and numRanks() are set.
    /// Fires once, before any other event.
    virtual void onHeader(const TraceDecoder& decoder) = 0;
    /// A rank section begins — including sections with no records. For text
    /// input a section re-announcing the current rank does not re-fire, and
    /// declared ranks with no section at all fire (ascending) at finish():
    /// every declared rank is announced, so a ReductionSession wired to
    /// ensureRank/feed sees exactly offline reduction's rank set.
    virtual void onRank(Rank rank) = 0;
    virtual void onRecord(Rank rank, const RawRecord& record) = 0;
  };

  /// `maxPendingBytes` bounds the undecoded tail: a single primitive (name
  /// string, text line) larger than this is rejected as malformed.
  explicit TraceDecoder(std::size_t maxPendingBytes = std::size_t{1} << 30);

  /// Appends `n` bytes and decodes everything they complete into `sink`.
  /// With a null sink, decoding pauses once the header is complete (later
  /// bytes stay buffered until a push or finish with a sink). Throws
  /// std::runtime_error on malformed input.
  void push(const std::uint8_t* data, std::size_t n, Sink* sink);

  /// Ends the input: decodes the rest and validates completeness (binary:
  /// every declared rank section present, no trailing bytes; text: the
  /// `ranks` header was seen, idle ranks announced). With a null sink only
  /// the header is completed, and a later finish(sink) decodes the rest.
  void finish(Sink* sink);

  /// True once format(), names() and numRanks() are final.
  bool headerDone() const { return headerDone_; }

  TraceFileFormat format() const { return format_; }

  /// The trace-wide string table. Once headerDone(), a stable address for
  /// the decoder's lifetime; for text input it can still grow after the
  /// header (`string` directives may legally trail it).
  const StringTable& names() const {
    return format_ == TraceFileFormat::kText ? text_.names() : names_;
  }

  /// Declared rank count (binary: header field; text: `ranks` directive).
  std::size_t numRanks() const { return numRanks_; }

  /// Undecoded bytes currently buffered (the incomplete tail).
  std::size_t pendingBytes() const { return pending_.size() - consumed_; }

  /// High-water mark of the buffer: stays near the push size plus one
  /// primitive, no matter how large the trace is.
  std::size_t maxBufferedBytes() const { return highWater_; }

 private:
  enum class State {
    kSniff,        ///< deciding binary vs text
    kHeader,       ///< magic + version
    kStringCount,  ///< string table entry count
    kStrings,      ///< string table entries
    kNumRanks,     ///< declared rank count
    kRankHeader,   ///< next rank id + record count
    kRecords,      ///< records of the current rank section
    kDone,         ///< all declared sections decoded; no byte may follow
    kText,         ///< line-oriented text trace
  };

  void decode(Sink* sink);
  void decodeBinary(Sink* sink);
  void decodeText(Sink* sink);
  void textLine(const char* line, std::size_t n, Sink* sink);
  void completeHeader(std::size_t numRanks);
  bool announceHeader(Sink* sink);
  void announceRank(Rank rank, Sink* sink);

  std::size_t maxPending_;
  State state_ = State::kSniff;
  TraceFileFormat format_ = TraceFileFormat::kFullBinary;
  bool ended_ = false;
  bool headerDone_ = false;
  bool headerAnnounced_ = false;
  bool finished_ = false;

  std::vector<std::uint8_t> pending_;
  std::size_t consumed_ = 0;    ///< decoded prefix of pending_
  std::size_t lineScan_ = 0;    ///< text: bytes past consumed_ with no newline
  std::size_t highWater_ = 0;

  std::size_t numRanks_ = 0;

  // Binary state.
  StringTable names_;
  std::uint64_t stringsLeft_ = 0;
  std::size_t ranksSeen_ = 0;
  Rank curRank_ = -1;
  std::uint64_t recsLeft_ = 0;
  TimeUs prevTime_ = 0;

  // Text state.
  TextTraceParser text_;
  std::string line_;               ///< reused line buffer
  bool rankPending_ = false;       ///< header ended on a `rank` line not yet announced
  std::vector<bool> announced_;    ///< per declared rank
};

}  // namespace tracered
