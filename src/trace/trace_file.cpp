#include "trace/trace_file.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "trace/trace_codec.hpp"
#include "util/bytebuf.hpp"

namespace tracered {

namespace {

std::ifstream openForRead(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace_file: cannot open for read: " + path);
  return in;
}

/// Adapts the reader's callbacks to the decoder's sink.
class CallbackSink final : public TraceDecoder::Sink {
 public:
  CallbackSink(const TraceFileReader::RecordFn& onRecord, const TraceFileReader::RankFn& onRank)
      : onRecord_(onRecord), onRank_(onRank) {}

  void onHeader(const TraceDecoder&) override {}
  void onRank(Rank rank) override {
    if (onRank_) onRank_(rank);
  }
  void onRecord(Rank rank, const RawRecord& record) override { onRecord_(rank, record); }

 private:
  const TraceFileReader::RecordFn& onRecord_;
  const TraceFileReader::RankFn& onRank_;
};

}  // namespace

TraceFileFormat detectTraceFile(const std::string& path) {
  std::ifstream in = openForRead(path);
  // The sniff decides within its bound or not at all.
  std::vector<std::uint8_t> head(kFormatSniffBytes);
  in.read(reinterpret_cast<char*>(head.data()), static_cast<std::streamsize>(head.size()));
  return *sniffTraceFormat(head.data(), static_cast<std::size_t>(in.gcount()), /*atEnd=*/true);
}

TraceFileReader::TraceFileReader(const std::string& path, std::size_t chunkBytes)
    : in_(openForRead(path)), chunk_(chunkBytes == 0 ? 1 : chunkBytes) {
  while (!decoder_.headerDone() && pump(nullptr)) {
  }
}

bool TraceFileReader::pump(TraceDecoder::Sink* sink) {
  in_.read(reinterpret_cast<char*>(chunk_.data()), static_cast<std::streamsize>(chunk_.size()));
  const auto n = static_cast<std::size_t>(in_.gcount());
  if (n == 0) {
    decoder_.finish(sink);
    return false;
  }
  decoder_.push(chunk_.data(), n, sink);
  return true;
}

void TraceFileReader::streamRecords(const RecordFn& onRecord, const RankFn& onRank) {
  if (consumed_)
    throw std::logic_error("trace_file: reader already consumed (single-pass)");
  consumed_ = true;
  CallbackSink sink(onRecord, onRank);
  while (pump(&sink)) {
  }
}

Trace TraceFileReader::readAll() {
  Trace trace;
  if (format() == TraceFileFormat::kFullBinary) {
    streamRecords(
        [&](Rank, const RawRecord& rec) {
          trace.rank(trace.numRanks() - 1).records.push_back(rec);
        },
        [&](Rank rank) { trace.addRank().rank = rank; });
  } else {
    for (std::size_t i = 0; i < numRanks(); ++i) trace.addRank();
    streamRecords(
        [&](Rank rank, const RawRecord& rec) { trace.rank(rank).records.push_back(rec); });
  }
  for (const auto& s : names().all()) trace.names().intern(s);
  return trace;
}

TraceFileWriter::TraceFileWriter(const std::string& path, const StringTable& names,
                                 std::size_t numRanks, TraceFileFormat format)
    : path_(path), format_(format), numRanks_(numRanks) {
  if (format == TraceFileFormat::kReducedBinary)
    throw std::invalid_argument(
        "trace_file: TraceFileWriter writes full traces; serialize reduced traces "
        "with serializeReducedTrace");
  out_.open(path, std::ios::binary);
  if (!out_) throw std::runtime_error("trace_file: cannot open for write: " + path);
  if (format == TraceFileFormat::kFullBinary) {
    ByteWriter w;
    w.u32(codec::kFullMagic);
    w.u8(codec::kVersion);
    codec::writeStringTable(w, names);
    w.uvarint(numRanks);
    out_.write(reinterpret_cast<const char*>(w.bytes().data()),
               static_cast<std::streamsize>(w.size()));
  } else {
    writeTextHeader(out_, names, static_cast<int>(numRanks));
  }
}

TraceFileWriter::~TraceFileWriter() = default;

void TraceFileWriter::writeRank(const RankTrace& rankTrace) {
  if (finished_) throw std::logic_error("trace_file: writeRank after finish");
  if (written_ == numRanks_)
    throw std::logic_error("trace_file: more rank sections than declared");
  ++written_;
  // Strictly ascending, non-negative rank ids for both formats: the binary
  // streaming reader requires it outright (so its output matches offline
  // reduction byte-for-byte), and for text a duplicate id would be silently
  // merged by the parser into a different trace. Enforce at write time so
  // the writer can never emit a file that misreads.
  if (rankTrace.rank <= lastRank_)
    throw std::runtime_error("trace_file: rank sections must have strictly ascending "
                             "non-negative ids; rank " + std::to_string(rankTrace.rank) +
                             " follows rank " + std::to_string(lastRank_));
  lastRank_ = rankTrace.rank;
  if (format_ == TraceFileFormat::kFullBinary) {
    ByteWriter w;
    w.uvarint(static_cast<std::uint64_t>(rankTrace.rank));
    w.uvarint(rankTrace.records.size());
    TimeUs prev = 0;
    for (const RawRecord& rec : rankTrace.records) codec::writeRecord(w, rec, prev);
    out_.write(reinterpret_cast<const char*>(w.bytes().data()),
               static_cast<std::streamsize>(w.size()));
  } else {
    // The text grammar additionally checks `rank r` against the declared
    // count, so an id beyond it (legal in TRF1) would write a file no
    // reader accepts — fail here, at write time, instead.
    if (static_cast<std::size_t>(rankTrace.rank) >= numRanks_)
      throw std::runtime_error("trace_file: text format requires rank ids in 0.." +
                               std::to_string(numRanks_ - 1) + ", got " +
                               std::to_string(rankTrace.rank));
    writeTextRank(out_, rankTrace);
  }
}

void TraceFileWriter::finish() {
  if (finished_) return;
  finished_ = true;
  if (written_ != numRanks_)
    throw std::runtime_error("trace_file: wrote " + std::to_string(written_) + " of " +
                             std::to_string(numRanks_) + " declared rank sections");
  out_.flush();
  if (!out_) throw std::runtime_error("trace_file: write failed: " + path_);
  out_.close();
}

void writeTraceFile(const std::string& path, const Trace& trace, TraceFileFormat format) {
  TraceFileWriter w(path, trace.names(), static_cast<std::size_t>(trace.numRanks()),
                    format);
  for (Rank r = 0; r < trace.numRanks(); ++r) w.writeRank(trace.rank(r));
  w.finish();
}

}  // namespace tracered
