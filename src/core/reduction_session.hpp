// ReductionSession: the one config-driven reduction driver.
//
// The paper's pipeline runs the same way whether the segments come after the
// fact (offline) or while the application runs (online): one per-rank
// RankReductionEngine loop over segments in execution order. A session
// drives that loop either way: construct from a ReductionConfig, then EITHER
// feed() raw records (online) OR reduce() a SegmentedTrace (offline), and
// take the result. Both modes shard ranks through the config's executor
// (inline serial when none is set) and produce bit-identical results —
// identical, too, to the policy-level serial reduceTrace (reducer.hpp).
//
//   ReductionSession session(trace.names(), {Method::kAvgWave, 0.2});
//   session.onProgress([](std::size_t done, std::size_t total) { ... });
//   auto result = session.reduce(segmentTrace(trace));        // offline
//
//   ReductionSession live(trace.names(), config);
//   live.feed(rank, record);  // ... at collection time ...
//   auto result2 = live.finish();                             // online
//
// Streaming keeps one slot per rank, built on the rank's first record: a
// policy, a Segmenter and a RankReductionEngine, so only the representative
// stores and execution tables stay in memory. Ranks are indexed sparsely
// (feeding ranks {3, 1024} builds exactly two slots) and the result is
// ordered by rank id. A rank cannot be discovered from a stream that never
// mentions it; a caller mirroring a trace with idle ranks pre-registers them
// with ensureRank, which costs one map entry per rank.
//
// A session is single-shot: reduce() or finish() finalizes it, and further
// feed()/reduce() calls throw. The two modes are exclusive — feed() and
// ensureRank() commit the session to streaming, so reduce() then throws
// rather than silently dropping the fed records or pre-registered ranks.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>

#include "core/cross_rank.hpp"
#include "core/reducer.hpp"
#include "core/reduction_config.hpp"
#include "trace/segment.hpp"
#include "trace/string_table.hpp"
#include "trace/trace.hpp"

namespace tracered::core {

class ReductionSession {
 public:
  /// `names` is the trace-wide string table the fed records' NameIds refer
  /// to; it must outlive the session. `config` fixes method, threshold, and
  /// executor for the session's lifetime.
  ReductionSession(const StringTable& names, const ReductionConfig& config);
  ~ReductionSession();

  ReductionSession(const ReductionSession&) = delete;
  ReductionSession& operator=(const ReductionSession&) = delete;

  const ReductionConfig& config() const { return config_; }

  /// Registers an observer called after each rank completes, as
  /// (ranksCompleted, ranksTotal) — the hook long sweeps use for progress
  /// bars. Applies to whichever of reduce()/finish() runs later.
  void onProgress(ProgressFn progress) { progress_ = std::move(progress); }

  // --- optional cross-rank merge stage ---

  /// Arms the merge stage: when the session finalizes (reduce() or
  /// finish()), the per-rank reduction is additionally folded into one
  /// application-wide merged trace via the hierarchical CrossRankMerger,
  /// available from mergeResult() afterwards. Works identically on the
  /// offline and streaming paths (the reduction they produce is
  /// bit-identical, so the merge is too). Throws std::logic_error after the
  /// session finished.
  void setMergeOptions(const MergeOptions& options);

  /// The merge stage's output; engaged once the session has finalized with
  /// merge options set, nullopt otherwise.
  const std::optional<MergeResult>& mergeResult() const { return mergeResult_; }

  /// Moves the merge stage's output out of a finalized session (merged
  /// traces can be large; front ends that write them to disk should not pay
  /// for a copy).
  std::optional<MergeResult> takeMergeResult() { return std::move(mergeResult_); }

  // --- online (streaming) use ---

  /// Pre-registers `rank` so it appears in the result even if it never
  /// feeds a record (mirrors offline reduction of a trace with idle ranks).
  /// Like feed(), commits the session to streaming mode. Throws
  /// std::invalid_argument on a negative rank.
  void ensureRank(Rank rank);

  /// Streams one raw record for `rank`. Throws std::logic_error after the
  /// session is finished, std::invalid_argument on a negative rank, and
  /// std::runtime_error on malformed streams (the Segmenter's rules and
  /// messages, the same ones offline segmentation applies).
  void feed(Rank rank, const RawRecord& record);

  /// Records fed so far — the live counter long-running feeders (the
  /// `tracered reduce` progress line) report between the
  /// per-rank progress callbacks, which only start firing at finish().
  std::size_t recordsFed() const { return recordsFed_; }

  /// Approximate bytes the streaming ranks retain (stored segments + execs,
  /// summed over their engines) — the number an online tool watches to
  /// decide when to spill. 0 once the session finished.
  std::size_t retainedBytes() const;

  /// Completes streaming and returns the reduction of everything fed —
  /// bit-identical to segmenting the same records and calling reduce().
  /// The per-rank finishes are sharded through the config's executor. On a
  /// session that never fed, returns an empty result. Finalizes the session.
  ReductionResult finish();

  // --- offline (whole-trace) use ---

  /// Reduces an already-segmented trace in one shot, sharding ranks through
  /// the config's executor with one policy per worker. Finalizes the
  /// session. Throws std::logic_error on a streaming session (feed() or
  /// ensureRank() was called) or if the session already finished.
  ReductionResult reduce(const SegmentedTrace& segmented);

 private:
  /// One streaming rank: policy, segmenter and engine.
  struct RankStream;

  /// Finds or creates `rank`'s slot (empty until the rank's first record).
  std::unique_ptr<RankStream>& slot(Rank rank, const char* caller);
  ReductionResult finalize(ReductionResult result);

  const StringTable& names_;
  ReductionConfig config_;
  ProgressFn progress_;
  std::map<Rank, std::unique_ptr<RankStream>> ranks_;  ///< Sparse, rank-ordered.
  // Feeds are rank-major in practice, so cache the last rank's stream and
  // only walk the map on a rank change (keeps feed() O(1) per record). The
  // node-based map and unique_ptr keep the cached pointer stable; null means
  // "no cached rank", so every valid Rank value caches correctly.
  Rank lastRank_ = 0;
  RankStream* last_ = nullptr;
  std::optional<MergeOptions> mergeOptions_;
  std::optional<MergeResult> mergeResult_;
  std::size_t recordsFed_ = 0;
  bool finished_ = false;
};

}  // namespace tracered::core
