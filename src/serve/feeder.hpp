// TraceStreamFeeder: the serve connection's trace ingest — a TraceDecoder
// feeding a ReductionSession.
//
// A serve connection RECEIVES bytes in arbitrary-sized network chunks and
// must make progress with whatever has arrived. push() hands each chunk to
// the push-style TraceDecoder (TRF1 or text, sniffed like detectTraceFile),
// which feeds every complete record straight into an owned
// ReductionSession and retains only the incomplete tail — so
// per-connection parse memory is bounded by one record/primitive, never by
// the trace. `tracered reduce` drives the same decoder through
// TraceFileReader into the same session, which is what makes a daemon round
// trip byte-identical to it (tested byte-for-byte in serve_test).
//
// Incomplete vs malformed: a decode that runs off the end of the buffered
// bytes is "incomplete" (kept for the next push); anything else — bad magic,
// bad record kind, non-monotonic timestamps, a primitive larger than
// `maxPendingBytes` — throws std::runtime_error, which a connection turns
// into an ERROR frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/reduction_session.hpp"
#include "trace/trace_decoder.hpp"

namespace tracered::serve {

class TraceStreamFeeder : private TraceDecoder::Sink {
 public:
  /// `maxPendingBytes` bounds the undecoded tail the feeder will hold while
  /// waiting for the rest of a record/primitive (a legal stream never needs
  /// more than one name string; a stream that does is rejected as malformed).
  explicit TraceStreamFeeder(const core::ReductionConfig& config,
                             std::size_t maxPendingBytes = 256 * 1024);

  /// Consumes one chunk of the trace byte stream. Decodes and feeds every
  /// complete record; throws std::runtime_error on malformed input.
  void push(const std::uint8_t* data, std::size_t n);

  /// Ends the stream: validates completeness (binary: all declared rank
  /// sections seen, no trailing bytes; text: header invariants, idle ranks
  /// announced) and returns the session's result — bit-identical to offline
  /// reduction of the same trace. Call once.
  core::ReductionResult finishStream();

  /// Undecoded bytes currently buffered (the incomplete tail).
  std::size_t pendingBytes() const { return decoder_.pendingBytes(); }

  /// Records decoded and fed so far.
  std::size_t recordsFed() const { return session_ ? session_->recordsFed() : 0; }

 private:
  void onHeader(const TraceDecoder& decoder) override;
  void onRank(Rank rank) override { session_->ensureRank(rank); }
  void onRecord(Rank rank, const RawRecord& record) override { session_->feed(rank, record); }

  core::ReductionConfig config_;
  TraceDecoder decoder_;
  std::optional<core::ReductionSession> session_;  ///< created at the header
};

}  // namespace tracered::serve
