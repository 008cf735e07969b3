// ReductionSession: the one facade over offline and online reduction.
//
// The paper's pipeline can be driven two ways — hand the reducer a whole
// segmented trace after the fact (offline), or stream records through it at
// collection time (online). Both produce bit-identical ReductionResults, but
// historically each had its own entry point and plumbing. A session unifies
// them: construct from a ReductionConfig, then EITHER feed() raw records
// (online) OR reduce() a SegmentedTrace (offline), and take the result.
//
//   ReductionSession session(trace.names(), {Method::kAvgWave, 0.2});
//   session.onProgress([](std::size_t done, std::size_t total) { ... });
//   auto result = session.reduce(segmentTrace(trace));        // offline
//
//   ReductionSession live(trace.names(), config);
//   live.feed(rank, record);  // ... at collection time ...
//   auto result2 = live.finish();                             // online
//
// A session is single-shot: reduce() or finish() finalizes it, and further
// feed()/reduce() calls throw. The two modes are exclusive — feed() and
// ensureRank() commit the session to streaming, so reduce() then throws
// rather than silently dropping the fed records or pre-registered ranks.
#pragma once

#include <optional>

#include "core/cross_rank.hpp"
#include "core/online_reducer.hpp"
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
  /// execution policy for the session's lifetime.
  ReductionSession(const StringTable& names, const ReductionConfig& config);

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
  /// Like feed(), commits the session to streaming mode.
  void ensureRank(Rank rank);

  /// Streams one raw record for `rank`. Throws std::logic_error after the
  /// session is finished, std::runtime_error on malformed streams.
  void feed(Rank rank, const RawRecord& record);

  /// Records fed so far — the live counter long-running feeders (the
  /// `tracered reduce` progress line) report between the
  /// per-rank progress callbacks, which only start firing at finish().
  std::size_t recordsFed() const { return recordsFed_; }

  /// Completes streaming and returns the reduction of everything fed —
  /// bit-identical to segmenting the same records and calling reduce().
  /// On a session that never fed, returns an empty result. Finalizes the
  /// session.
  ReductionResult finish();

  // --- offline (whole-trace) use ---

  /// Reduces an already-segmented trace in one shot. Finalizes the session.
  /// Throws std::logic_error on a streaming session (feed() or ensureRank()
  /// was called) or if the session already finished.
  ReductionResult reduce(const SegmentedTrace& segmented);

 private:
  ReductionResult finalize(ReductionResult result);

  const StringTable& names_;
  ReductionConfig config_;
  ProgressFn progress_;
  std::optional<OnlineReducer> online_;  ///< engaged on first feed/ensureRank
  std::optional<MergeOptions> mergeOptions_;
  std::optional<MergeResult> mergeResult_;
  std::size_t recordsFed_ = 0;
  bool finished_ = false;
};

}  // namespace tracered::core
