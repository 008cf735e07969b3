#include "core/online_reducer.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/methods.hpp"

namespace tracered::core {

namespace {

[[noreturn]] void fail(Rank rank, const std::string& what) {
  throw std::runtime_error("online reducer: rank " + std::to_string(rank) + ": " + what);
}

}  // namespace

OnlineRankReducer::OnlineRankReducer(Rank rank, const StringTable& names,
                                     SimilarityPolicy& policy)
    : rank_(rank), segmenter_(rank, names), engine_(rank, policy) {}

void OnlineRankReducer::feed(const RawRecord& record) {
  if (finished_) fail(rank_, "feed after finish");
  if (const std::optional<Segment> seg = segmenter_.push(record)) engine_.consume(*seg);
}

RankReduced OnlineRankReducer::finish() {
  if (finished_) fail(rank_, "finish called twice");
  segmenter_.finish();
  finished_ = true;
  return engine_.finish();
}

OnlineReducer::OnlineReducer(const StringTable& names, const ReductionConfig& config)
    : names_(names), config_(config) {}

std::map<Rank, OnlineReducer::PerRank>::iterator OnlineReducer::ensure(Rank rank) {
  if (finished_) throw std::logic_error("online reducer: feed/ensureRank after finish");
  if (rank < 0) throw std::invalid_argument("online reducer: negative rank");
  auto it = ranks_.lower_bound(rank);
  if (it == ranks_.end() || it->first != rank) it = ranks_.emplace_hint(it, rank, PerRank{});
  return it;
}

void OnlineReducer::ensureRank(Rank rank) { ensure(rank); }

void OnlineReducer::feed(Rank rank, const RawRecord& record) {
  if (lastReducer_ == nullptr || lastRank_ != rank) {
    PerRank& pr = ensure(rank)->second;
    if (!pr.reducer) {
      pr.policy = config_.makePolicy();
      pr.reducer = std::make_unique<OnlineRankReducer>(rank, names_, *pr.policy);
    }
    lastReducer_ = pr.reducer.get();
    lastRank_ = rank;
  }
  lastReducer_->feed(record);
}

ReductionResult OnlineReducer::finish(const ProgressFn& progress) {
  if (finished_) throw std::logic_error("online reducer: finish called twice");
  finished_ = true;
  lastReducer_ = nullptr;  // route post-finish feeds into ensure()'s guard
  lastRank_.reset();

  const std::size_t numRanks = ranks_.size();
  ResolvedExecutor exec(config_, numRanks);  // same policy rules as offline

  // The map iterates in rank-id order; finishing each slot is independent
  // (per-rank policy and store), so the finishes can run on any worker while
  // the indexed writes keep assembly deterministic.
  // A rank that never fed (ensureRank only) has no reducer: its result is
  // the empty reduction, with zero stats and counters — what an engine that
  // consumed nothing returns.
  std::vector<RankReduced> reducedByIndex(numRanks);
  std::vector<OnlineRankReducer*> reducers;
  reducers.reserve(numRanks);
  for (auto& [rank, pr] : ranks_) {
    reducedByIndex[reducers.size()].rank = rank;
    reducers.push_back(pr.reducer.get());
  }

  exec.shard(
      [&](std::size_t, std::size_t i) {
        if (reducers[i] != nullptr) reducedByIndex[i] = reducers[i]->finish();
      },
      progress);

  std::vector<ReductionStats> statsByIndex(numRanks);
  std::vector<MatchCounters> countersByIndex(numRanks);
  for (std::size_t i = 0; i < numRanks; ++i) {
    if (reducers[i] == nullptr) continue;
    statsByIndex[i] = reducers[i]->stats();  // totals set by finish()
    countersByIndex[i] = reducers[i]->counters();
  }
  return assembleReduction(names_, std::move(reducedByIndex), statsByIndex,
                           countersByIndex);
}

}  // namespace tracered::core
