// Streaming trace file I/O: chunked reader/writer for on-disk traces.
//
// trace_io (de)serializes whole traces held in memory; this module is the
// scalable path the `tracered` CLI drives: a TraceFileReader that reads a
// TRF1 or text trace chunk by chunk into the TraceDecoder and hands out
// records in file order — so a trace never has to fit in memory to be
// reduced (feed the records to ReductionSession::feed) — and a
// TraceFileWriter that emits rank-by-rank, byte-identical to
// serializeFullTrace (both sit on the same trace_codec templates;
// docs/FORMATS.md is the normative layout spec).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "trace/text_io.hpp"
#include "trace/trace.hpp"
#include "trace/trace_decoder.hpp"

namespace tracered {

/// Sniffs `path` (magic bytes, else text directives; see sniffTraceFormat).
/// Throws std::runtime_error on unreadable or unrecognizable files.
TraceFileFormat detectTraceFile(const std::string& path);

/// Chunked, single-pass reader for FULL traces (binary or text; a reduced or
/// merged file is rejected at open — those are small by construction, read
/// them whole via readFile + deserializeReducedTrace/deserializeMergedTrace).
/// A read-a-chunk-and-push loop over TraceDecoder: the header (string table
/// for binary, the `ranks` directive for text) is decoded at construction;
/// records are decoded on demand, holding at most about one chunk of the
/// file in memory at any time.
///
/// Validation is the decoder's: the whole-buffer reader's rules plus
/// strictly ascending binary rank ids (every file the writers produce
/// complies), so that streaming reduction orders ranks exactly like offline
/// reduction and their outputs stay byte-identical.
class TraceFileReader {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit TraceFileReader(const std::string& path,
                           std::size_t chunkBytes = kDefaultChunkBytes);

  TraceFileFormat format() const { return decoder_.format(); }

  /// The trace-wide string table. Stable address for the reader's lifetime
  /// (hand it to ReductionSession); for text input it can still grow while
  /// streaming (`string` directives may legally trail the header).
  const StringTable& names() const { return decoder_.names(); }

  /// Declared rank count (binary: header field; text: `ranks` directive).
  std::size_t numRanks() const { return decoder_.numRanks(); }

  /// Records still to come in the current binary rank section; inside an
  /// onRank callback, the section's declared record count (0 for text).
  std::uint64_t sectionRecordsLeft() const { return decoder_.sectionRecordsLeft(); }

  using RecordFn = std::function<void(Rank, const RawRecord&)>;
  using RankFn = std::function<void(Rank)>;

  /// Streams every record in file order through `onRecord` in one pass.
  /// `onRank`, if set, fires whenever a new rank section begins — including
  /// sections with no records and, for text input, declared ranks with no
  /// section at all (TraceDecoder::Sink::onRank has the exact rules), so
  /// feed/ensureRank wiring reproduces offline reduction's rank set exactly.
  /// Call once; throws std::runtime_error on malformed or truncated input.
  void streamRecords(const RecordFn& onRecord, const RankFn& onRank = {});

  /// Materializes the whole trace. For binary input this produces exactly
  /// deserializeFullTrace(readFile(path)); for text, traceFromText of the
  /// file. Call once (consumes the stream).
  Trace readAll();

  /// High-water mark of the decode buffer — stays near the chunk size no
  /// matter how large the file is (tested; the "never loads the whole trace
  /// into one buffer" guarantee).
  std::size_t maxBufferedBytes() const { return decoder_.maxBufferedBytes(); }

 private:
  /// Reads one chunk into the decoder; at end of file finishes it instead
  /// and returns false.
  bool pump(TraceDecoder::Sink* sink);

  std::ifstream in_;
  std::vector<std::uint8_t> chunk_;
  TraceDecoder decoder_;
  bool consumed_ = false;
};

/// Rank-at-a-time writer for full traces. Writes the header at construction
/// and one rank section per writeRank() call, so only one rank's records are
/// ever in memory. For binary output the bytes are identical to
/// writeFile(path, serializeFullTrace(trace)) of the same trace.
class TraceFileWriter {
 public:
  /// Opens `path` and writes the header. `names` must already contain every
  /// name the ranks' records reference. `format` must be kFullBinary or
  /// kText (reduced traces are written whole via serializeReducedTrace).
  TraceFileWriter(const std::string& path, const StringTable& names, std::size_t numRanks,
                  TraceFileFormat format = TraceFileFormat::kFullBinary);

  /// Without a successful finish() (an exception mid-write, fewer sections
  /// than declared) the write is abandoned: the file is removed, so no
  /// truncated trace is left for a reader to accept. A path that was not a
  /// regular file when opened (/dev/null, a FIFO, a symlink) is only closed.
  ~TraceFileWriter();
  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  /// Appends one rank section, in file order. Throws std::logic_error after
  /// numRanks sections or after finish().
  void writeRank(const RankTrace& rankTrace);

  /// Flushes and closes; throws std::runtime_error if fewer than numRanks
  /// sections were written or the stream failed.
  void finish();

 private:
  std::string path_;
  std::ofstream out_;
  TraceFileFormat format_;
  std::size_t numRanks_;
  std::size_t written_ = 0;
  Rank lastRank_ = -1;  ///< id of the previous rank section; -1 before any
  bool finished_ = false;
  /// Set while the destructor must remove the file: it was a regular file
  /// when opened and finish() has not yet succeeded.
  bool removeOnDestroy_ = false;
};

/// Whole-trace convenience over TraceFileWriter.
void writeTraceFile(const std::string& path, const Trace& trace,
                    TraceFileFormat format = TraceFileFormat::kFullBinary);

}  // namespace tracered
