// Converts raw per-rank record streams into segments (Sec. 3.1).
//
// The simulator emits start_segment/end_segment markers exactly the way the
// paper's Dyninst instrumentation does (Fig. 1): initialization, every loop
// iteration, and finalization are bracketed. The Segmenter pairs enters with
// exits inside each bracket and rebases timestamps relative to the segment
// start, one record at a time. It is the only segment state machine: the
// whole-trace segmentTrace/segmentRank and the streaming ReductionSession
// both push records through it, so they accept exactly the same streams and
// reject the rest with the same messages.
#pragma once

#include <string>

#include "trace/segment.hpp"
#include "trace/trace.hpp"

namespace tracered {

/// Incremental segmenter for one rank's record stream. Push records in
/// order; every segment end yields the completed segment. Throws
/// std::runtime_error ("segmenter: rank N: ...") on malformed streams:
/// unbalanced markers, unpaired or nested enter/exit, events outside any
/// segment, and non-monotonic timestamps (a segment end or event exit
/// before its begin, an event enter before its segment began), which would
/// flow negative durations into reduction.
class Segmenter {
 public:
  /// `names` (the records' string table) is read only for diagnostics and
  /// must outlive the segmenter.
  Segmenter(Rank rank, const StringTable& names);

  /// Pushes the next record. Returns the segment it completes, rebased to
  /// its start, or null. The result is a view of the segmenter's own
  /// buffer, which it reuses for the next segment (keeping the event
  /// vector's capacity, so a steady stream allocates nothing): it stays
  /// valid until the next push() and must be copied to be kept.
  const Segment* push(const RawRecord& record);

  /// End of stream: throws if a segment or event is still open.
  void finish() const;

 private:
  [[noreturn]] void fail(const std::string& what) const;

  Rank rank_;
  const StringTable& names_;
  Segment current_;  ///< the open segment (absolute event times), or the
                     ///< last completed one (rebased) until the next push
  bool open_ = false;
  // Open function invocation. A value+flag pair instead of std::optional:
  // GCC 12's -O2 inliner cannot prove the optional's payload is engaged at
  // the read sites and flags a -Wmaybe-uninitialized false positive, which
  // the always-initialized value sidesteps (the CI Werror job builds
  // Release).
  RawRecord pendingEnter_{};
  bool hasPendingEnter_ = false;
};

/// Segments one rank's record stream. Throws std::runtime_error on malformed
/// input (see Segmenter).
RankSegments segmentRank(const RankTrace& rankTrace, const StringTable& names);

/// Segments an entire trace.
SegmentedTrace segmentTrace(const Trace& trace);

/// Inverse of segmentTrace: renders segments back into raw marker/enter/exit
/// records with absolute timestamps, using `names` as the record streams'
/// string table (copied into the result). segmentTrace(desegmentTrace(s, n))
/// reproduces `s` exactly; reconstructed (approximated) traces go through
/// this to become full traces again (`tracered convert --reconstruct`).
Trace desegmentTrace(const SegmentedTrace& segmented, const StringTable& names);

}  // namespace tracered
