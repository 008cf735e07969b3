// The trace reduction algorithm of Sec. 3.1.
//
// For each rank independently (reduction is intra-process): walk the rank's
// segments in execution order; rebase times (done by the segmenter); ask the
// similarity policy for a match among stored representatives; on a match,
// record (representative id, start time) in segmentExecs; otherwise store
// the segment as a new representative and record its own id.
//
// The per-rank matching loop itself lives in RankReductionEngine, and the
// config-driven driver (offline and streaming, sharded through the config's
// executor) is ReductionSession. This header holds what both share: the
// whole-trace result, the executor resolution, the rank-order assembly, and
// the policy-level serial `reduceTrace` — one caller-owned policy reused
// across ranks, the reference every driver is tested against and the hook
// for policies outside the method registry.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/methods.hpp"
#include "core/rank_reduction_engine.hpp"
#include "core/reduction_config.hpp"
#include "core/similarity.hpp"
#include "trace/reduced_trace.hpp"
#include "trace/segment.hpp"
#include "trace/string_table.hpp"
#include "util/executor.hpp"

namespace tracered::core {

/// Result of reducing one whole trace. `stats` is the merge of the per-rank
/// stats; `counters` the merged matching-loop instrumentation (deterministic
/// across executors, like everything else in the result).
struct ReductionResult {
  ReducedTrace reduced;
  ReductionStats stats;
  MatchCounters counters;
};

/// Observer for long reductions: called after each rank completes with
/// (ranksCompleted, ranksTotal). Under a parallel executor the calls come
/// from worker threads but are serialized (never concurrent), and
/// ranksCompleted is strictly increasing; completion ORDER across ranks is
/// scheduling-dependent even though the result never is.
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

/// Resolves a ReductionConfig's execution setting for one driver call — the
/// ONE place the rule lives, so the session and the cross-rank merger can
/// never diverge: `config.executor` if set (caller-owned, typically one
/// PooledExecutor shared by many calls), inline serial otherwise.
class ResolvedExecutor {
 public:
  ResolvedExecutor(const ReductionConfig& config, std::size_t numItems);

  /// Workers shard() may use: min(executor concurrency, numItems), >= 1.
  /// Size per-worker state (e.g. one SimilarityPolicy per worker) with this.
  std::size_t workers() const;

  /// Shards [0, numItems) through the resolved executor; if `progress` is
  /// set, reports (itemsCompleted, numItems) after each item, serialized
  /// and strictly increasing.
  void shard(const std::function<void(std::size_t, std::size_t)>& fn,
             const ProgressFn& progress = {});

 private:
  std::size_t numItems_;
  util::SerialExecutor serial_;
  util::Executor* chosen_;
};

/// Assembles a whole-trace result from per-rank pieces (already in rank
/// order), interning `names` and merging stats and counters. Shared by every
/// driver so their assembly can never diverge.
ReductionResult assembleReduction(const StringTable& names,
                                  std::vector<RankReduced>&& ranks,
                                  const std::vector<ReductionStats>& stats,
                                  const std::vector<MatchCounters>& counters);

/// Reduces `segmented` (all ranks) with `policy`, serially in rank order.
/// `names` is copied into the reduced trace so it is self-contained.
ReductionResult reduceTrace(const SegmentedTrace& segmented, const StringTable& names,
                            SimilarityPolicy& policy);

}  // namespace tracered::core
