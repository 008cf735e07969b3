// EXPERT-like trace analyzer (Sec. 4.3.4).
//
// Runs KOJAK-style inefficiency-pattern detection over a trace and fills a
// SeverityCube:
//
//   Late Sender      blocking receive entered before the matching send
//   Late Receiver    synchronous send entered before the matching receive
//   Early Reduce     N-to-1 root entered before the first sender
//   Late Broadcast   1-to-N non-root entered before the root
//   Wait at Barrier  barrier imbalance (enter-to-last-enter)
//   Wait at NxN      other N-to-N collective imbalance
//   Execution Time   inclusive time per (function, rank)
//
// Message matching replays the communication structure: point-to-point
// events pair FIFO per (src, dst, tag) channel; collective occurrence k on
// one rank belongs to instance k (per-rank operation order and counts are
// preserved by reduction/reconstruction, so alignment is exact).
//
// One incremental core, the Analyzer, serves every input: announce a rank
// (addRank), feed its segments in execution order (onSegment), then
// finish(). It never holds the trace. Execution time goes straight into one
// dense accumulator per (metric, call site) x row; of the events themselves
// only the point-to-point events with a peer and the collectives are kept,
// as 32-byte entries (absolute start and end, name, op, peer or root, tag)
// in one table per row, presized from the caller's count. finish() then
// runs the pairing and collective passes over those tables in a fixed
// order (channels by (src row, dst row, tag), collective instances by k),
// so a cube is bit-identical however its segments were delivered.
//
// Rows are the cube's ranks, in the order they were announced; message
// peers and collective roots name rank ids and resolve to the first row
// with that id. The feeders below announce rows in these orders:
//   analyze(SegmentedTrace)      trace.ranks order
//   analyze(ReducedTrace)        reduced.ranks order, walking each rank's
//                                exec table: every execution stamps its
//                                representative's events at the recorded
//                                start, without reconstruct()
//   analyze(MergedReducedTrace)  execs row order, over the shared store
//   analyzeStream(reader)        rank-id order, as readAll + segmentTrace
//                                order them: binary sections arrive in
//                                ascending id order, and a text trace's
//                                declared ranks 0..N-1 get their rows up
//                                front (sections may revisit a rank; idle
//                                ranks keep an empty row). Records go
//                                through one Segmenter per rank, so no
//                                Trace or SegmentedTrace is built.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/severity.hpp"
#include "trace/reduced_trace.hpp"
#include "trace/segment.hpp"
#include "trace/trace_file.hpp"

namespace tracered::analysis {

/// Analyzer tunables.
struct AnalyzerOptions {
  /// Include MPI_Init/MPI_Finalize synchronization in Wait-at-Barrier.
  /// Off by default: startup skew is not a program inefficiency.
  bool includeInitFinalize = false;
};

/// The incremental analyzer core (see the file comment).
class Analyzer {
 public:
  explicit Analyzer(const AnalyzerOptions& opts = {});

  /// Announces the next row of the cube, for rank id `rank`, and returns its
  /// index. `keptHint` presizes the row's table of kept events (point-to-
  /// point events with a peer, and collectives): exact where the feeder
  /// can count them, else an estimate; a table grows past it on demand, and
  /// the capacity an estimate over-reserved is returned when the next row
  /// is announced.
  std::size_t addRank(Rank rank, std::size_t keptHint = 0);

  /// Feeds one segment of row `row`: `events` timed relative to `absStart`,
  /// in execution order.
  void onSegment(std::size_t row, TimeUs absStart, std::span<const EventInterval> events);

  /// Segments fed so far.
  std::size_t segments() const { return segments_; }

  /// Pairs messages, aligns collectives and returns the cube. Throws
  /// std::runtime_error for a message peer or collective root that is no
  /// rank of the trace (peers are checked first, in row and event order)
  /// and for collective sequences that disagree across ranks. Call once.
  SeverityCube finish();

 private:
  /// A kept event, with absolute times.
  struct Kept {
    TimeUs start = 0;
    TimeUs end = 0;
    NameId name = kInvalidName;
    std::int32_t rank = -1;  ///< p2p: peer rank id; collective: root rank id
    std::int32_t tag = -1;   ///< p2p only
    OpKind op = OpKind::kCompute;
  };
  static_assert(sizeof(Kept) == 32, "kept events are compact entries");

  struct Row {
    Rank rank = 0;
    std::vector<Kept> kept;  ///< in event order
    std::size_t p2p = 0;     ///< kept point-to-point events
    std::size_t collectives = 0;
  };

  /// One dense accumulator: (metric, call site) -> value per row.
  struct Column {
    Metric metric = Metric::kExecutionTime;
    NameId callsite = kInvalidName;
    std::vector<double> perRow;
  };

  class RankRows;

  /// The accumulator of (metric, callsite), created on first use. The
  /// reference is valid until the next call.
  std::vector<double>& column(Metric metric, NameId callsite);
  void pairMessages(const RankRows& ids);
  void alignCollectives(const RankRows& ids);

  AnalyzerOptions opts_;
  std::vector<Row> rows_;
  std::vector<Column> columns_;
  // (callsite, metric) -> column index + 1: dense for the small name ids
  // every real string table has, hashed above (reduced traces may carry any
  // 32-bit id).
  std::vector<std::uint32_t> denseColumn_;
  std::unordered_map<std::uint64_t, std::uint32_t> sparseColumn_;
  std::size_t segments_ = 0;
  bool finished_ = false;
};

/// Analyzes a segmented trace and returns its severity cube.
SeverityCube analyze(const SegmentedTrace& trace, const AnalyzerOptions& opts = {});

/// Analyzes a reduced trace by walking its exec tables. Bit-identical to
/// analyze(core::reconstruct(reduced)); throws std::out_of_range, as
/// reconstruct does, for an exec naming an unknown representative.
SeverityCube analyze(const ReducedTrace& reduced, const AnalyzerOptions& opts = {});

/// Analyzes a cross-rank merged trace by walking its exec tables over the
/// shared store. Bit-identical to analyze(core::reconstructMerged(merged)).
SeverityCube analyze(const MergedReducedTrace& merged, const AnalyzerOptions& opts = {});

/// A streamed full trace's cube and the number of segments it came from.
struct StreamAnalysis {
  SeverityCube cube;
  std::size_t segments = 0;
};

/// Analyzes a full trace (TRF1 or text) as it streams from `reader`: the
/// decoder's records go through one Segmenter per rank into an Analyzer.
/// Bit-identical to analyze(segmentTrace(reader.readAll())), and rejects
/// malformed input with the same message: decode errors first, then each
/// rank's segmenter error in row order, then the analysis errors. Consumes
/// the reader.
StreamAnalysis analyzeStream(TraceFileReader& reader, const AnalyzerOptions& opts = {});

}  // namespace tracered::analysis
