// Online (streaming) trace reduction.
//
// The paper's motivation is that full traces are too large to *collect*, so
// in practice reduction must happen while the application runs, inside the
// measurement layer, record by record. OnlineReducer implements exactly the
// offline pipeline (segmenter -> Sec. 3.1 matching) in streaming form: feed
// it one rank's raw records as they are produced; it segments on the fly,
// hands each completed segment to the shared RankReductionEngine, and keeps
// only the representative store plus the execution table in memory.
//
// Guarantee (tested): for any valid record stream, the result is
// bit-identical to segmenting the whole trace and running the offline
// reducer with the same policy — for every rank that appears in the stream
// (or was pre-registered via ensureRank). A rank with no records cannot be
// discovered from the stream; the offline reducer emits an empty entry for
// it, so a caller that must mirror such a trace exactly pre-registers its
// rank set with ensureRank.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>

#include "core/methods.hpp"
#include "core/rank_reduction_engine.hpp"
#include "core/reducer.hpp"
#include "core/similarity.hpp"
#include "trace/reduced_trace.hpp"
#include "trace/segment.hpp"
#include "trace/segmenter.hpp"
#include "trace/string_table.hpp"
#include "trace/trace.hpp"

namespace tracered::core {

/// Streaming reducer for a single rank: a Segmenter in front of a
/// RankReductionEngine.
class OnlineRankReducer {
 public:
  /// `names` must outlive the reducer (it is the trace-wide string table the
  /// records' NameIds refer to). The policy is owned by the caller; its
  /// beginRank() reset is applied by the engine.
  OnlineRankReducer(Rank rank, const StringTable& names, SimilarityPolicy& policy);

  /// Feeds the next raw record. Throws std::runtime_error on malformed
  /// streams — the Segmenter's rules and messages, the same ones offline
  /// segmentation applies.
  void feed(const RawRecord& record);

  /// Completes the stream: runs the policy's finishRank hook and returns the
  /// rank's reduction. The reducer cannot be fed afterwards.
  RankReduced finish();

  /// Matching statistics so far (totals finalized by finish()).
  const ReductionStats& stats() const { return engine_.stats(); }

  /// Matching-loop instrumentation so far (see RankReductionEngine).
  MatchCounters counters() const { return engine_.counters(); }

  /// Current memory footprint of the retained data (stored segments +
  /// execs), in approximate bytes — the number an online tool would watch
  /// to decide when to spill. Meaningful only until finish().
  std::size_t retainedBytes() const { return engine_.retainedBytes(); }

 private:
  Rank rank_;
  Segmenter segmenter_;
  RankReductionEngine engine_;
  bool finished_ = false;
};

/// Streaming reducer for a whole application: one OnlineRankReducer per
/// rank, one policy instance per rank (policies are stateful per rank).
/// Ranks are indexed sparsely: feeding ranks {3, 1024} allocates exactly two
/// reducers, and finish() emits results ordered by rank id.
class OnlineReducer {
 public:
  /// Reduces with `config`'s method/threshold; its execution policy governs
  /// finish(). One policy instance is created per fed rank.
  OnlineReducer(const StringTable& names, const ReductionConfig& config);

  const ReductionConfig& config() const { return config_; }

  /// Pre-registers `rank` so it appears in finish() even if it never feeds
  /// a record (mirrors the offline reducer's empty entry for idle ranks).
  void ensureRank(Rank rank);

  /// Feeds a record for `rank`, creating that rank's reducer on first use.
  void feed(Rank rank, const RawRecord& record);

  /// Finishes all fed ranks (sharded per the config's execution policy) and
  /// assembles the reduced trace in rank order. Deterministic for any
  /// executor or thread count. `progress` observes per-rank completion as in
  /// the offline driver.
  ReductionResult finish(const ProgressFn& progress = {});

 private:
  /// Built on the rank's first record: a declared-but-idle rank costs one
  /// map entry, not a policy and a reducer.
  struct PerRank {
    std::unique_ptr<SimilarityPolicy> policy;
    std::unique_ptr<OnlineRankReducer> reducer;
  };

  /// Finds or creates `rank`'s slot in one map traversal.
  std::map<Rank, PerRank>::iterator ensure(Rank rank);

  const StringTable& names_;
  ReductionConfig config_;
  std::map<Rank, PerRank> ranks_;  ///< Keyed by rank id; sparse-safe, ordered.

  // Feeds are rank-major in practice, so cache the last rank's reducer and
  // only walk the map on a rank change (keeps feed() O(1) per record).
  // Node-based map + unique_ptr make the cached pointer stable; disengaged
  // means "no cached rank", so every valid Rank value (including 0 and
  // INT_MAX) caches correctly.
  std::optional<Rank> lastRank_;
  OnlineRankReducer* lastReducer_ = nullptr;
  bool finished_ = false;
};

}  // namespace tracered::core
