// Human-readable text trace format (writer + parser).
//
// The binary formats (trace_io) are what the size evaluation measures; the
// text format exists for humans: inspecting simulator output, diffing traces
// in tests, and feeding hand-written traces into the pipeline. Format
// (normative grammar: docs/FORMATS.md §3):
//
//   # tracered text trace v1
//   ranks <n>
//   string <id> <name>            (one per interned name, in id order)
//   rank <r>
//   B <time> <nameId>             segment begin
//   E <time> <nameId>             segment end
//   > <time> <nameId> <op> [peer tag root comm bytes]   function enter
//   < <time> <nameId>             function exit
//
// Lines starting with '#' and blank lines are ignored. The parser validates
// ids and op codes and throws std::runtime_error with a line number on any
// malformed input.
//
// Both directions exist in streaming form: TextTraceParser consumes one line
// at a time (the streaming TraceDecoder in trace_decoder.hpp is built on it),
// and writeTextHeader/writeTextRank emit rank-by-rank. traceToText /
// traceFromText are the whole-trace conveniences layered on top.
#pragma once

#include <ostream>
#include <string>

#include "trace/string_table.hpp"
#include "trace/trace.hpp"

namespace tracered {

/// Upper bound on the text format's `ranks` directive. Readers materialize
/// per-rank state for every DECLARED rank (idle ranks included — that is the
/// format's idle-rank announcement guarantee), so without a cap a 20-byte
/// hostile header like `ranks 2000000000` would cost count-proportional
/// memory in every consumer, including the serve daemon's bounded-memory
/// feeder. 2^20 ranks is far beyond any human-oriented text trace; the
/// binary formats pay per rank *section* and need no cap.
inline constexpr int kMaxTextDeclaredRanks = 1 << 20;

/// Renders a trace in the text format.
std::string traceToText(const Trace& trace);

/// Parses the text format.
Trace traceFromText(const std::string& text);

/// Streaming text writer: header + string table (call once), then one call
/// per rank. Emits exactly the bytes traceToText would.
void writeTextHeader(std::ostream& os, const StringTable& names, int numRanks);
void writeTextRank(std::ostream& os, const RankTrace& rankTrace);

/// Incremental line-by-line parser for the text format; feed lines in file
/// order (without their trailing newline). Header lines update the parser
/// state; record lines yield a (currentRank, record) pair. traceFromText and
/// the streaming TraceDecoder share this parser, so they accept exactly the
/// same inputs and reject them with the same line-numbered diagnostics.
class TextTraceParser {
 public:
  /// Feeds the next line. Returns true iff the line was a record line, in
  /// which case record() and currentRank() describe it until the next feed.
  /// Throws std::runtime_error with a line number on malformed input.
  bool feedLine(const std::string& line);

  /// Validates end-of-input invariants (the 'ranks' header was seen).
  void finish() const;

  /// Names interned so far ('string' directives).
  const StringTable& names() const { return names_; }

  /// Rank count from the 'ranks' header; -1 before it is seen.
  int declaredRanks() const { return declaredRanks_; }

  /// Rank the last record line belongs to.
  Rank currentRank() const { return currentRank_; }

  /// The record parsed by the last feedLine() that returned true.
  const RawRecord& record() const { return record_; }

 private:
  StringTable names_;
  int declaredRanks_ = -1;
  Rank currentRank_ = -1;
  RawRecord record_;
  std::size_t lineNo_ = 0;
};

}  // namespace tracered
