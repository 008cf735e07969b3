#include "core/reducer.hpp"

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace tracered::core {

ResolvedExecutor::ResolvedExecutor(const ReductionConfig& config,
                                   std::size_t numItems)
    : numItems_(numItems),
      chosen_(config.executor != nullptr ? config.executor : &serial_) {}

std::size_t ResolvedExecutor::workers() const {
  return numItems_ == 0 ? 1 : std::min(chosen_->concurrency(), numItems_);
}

void ResolvedExecutor::shard(const std::function<void(std::size_t, std::size_t)>& fn,
                             const ProgressFn& progress) {
  if (!progress) {
    chosen_->shard(numItems_, fn);
    return;
  }
  std::size_t done = 0;
  std::mutex progressMutex;  // count-and-notify atomically, so calls are
                             // serialized and strictly increasing
  chosen_->shard(numItems_, [&](std::size_t worker, std::size_t i) {
    fn(worker, i);
    std::lock_guard<std::mutex> lock(progressMutex);
    progress(++done, numItems_);
  });
}

ReductionResult assembleReduction(const StringTable& names,
                                  std::vector<RankReduced>&& ranks,
                                  const std::vector<ReductionStats>& stats,
                                  const std::vector<MatchCounters>& counters) {
  ReductionResult out;
  for (const auto& s : names.all()) out.reduced.names.intern(s);
  out.reduced.ranks = std::move(ranks);
  for (const ReductionStats& st : stats) out.stats.merge(st);
  for (const MatchCounters& c : counters) out.counters.merge(c);
  return out;
}

ReductionResult reduceTrace(const SegmentedTrace& segmented, const StringTable& names,
                            SimilarityPolicy& policy) {
  std::vector<RankReduced> reducedByRank;
  std::vector<ReductionStats> statsByRank;
  std::vector<MatchCounters> countersByRank;
  reducedByRank.reserve(segmented.ranks.size());
  statsByRank.reserve(segmented.ranks.size());
  countersByRank.reserve(segmented.ranks.size());
  for (const RankSegments& rank : segmented.ranks) {
    RankReductionEngine engine(rank.rank, policy);
    for (const Segment& seg : rank.segments) engine.consume(seg);
    reducedByRank.push_back(engine.finish());
    statsByRank.push_back(engine.stats());
    countersByRank.push_back(engine.counters());
  }
  return assembleReduction(names, std::move(reducedByRank), statsByRank,
                           countersByRank);
}

}  // namespace tracered::core
