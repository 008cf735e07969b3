#include "core/reduction_session.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rank_reduction_engine.hpp"
#include "trace/segmenter.hpp"

namespace tracered::core {

struct ReductionSession::RankStream {
  RankStream(Rank rank, const StringTable& names, const ReductionConfig& config)
      : policy(config.makePolicy()), segmenter(rank, names), engine(rank, *policy) {}

  std::unique_ptr<SimilarityPolicy> policy;
  Segmenter segmenter;
  RankReductionEngine engine;
};

namespace {

/// Per-rank results in rank order, each written by exactly one shard item,
/// so assembly never depends on scheduling.
struct RankResults {
  explicit RankResults(std::size_t n) : reduced(n), stats(n), counters(n) {}

  void take(std::size_t i, RankReductionEngine& engine) {
    reduced[i] = engine.finish();
    stats[i] = engine.stats();  // totals set by finish()
    counters[i] = engine.counters();
  }

  ReductionResult assemble(const StringTable& names) {
    return assembleReduction(names, std::move(reduced), stats, counters);
  }

  std::vector<RankReduced> reduced;
  std::vector<ReductionStats> stats;
  std::vector<MatchCounters> counters;
};

}  // namespace

ReductionSession::ReductionSession(const StringTable& names,
                                   const ReductionConfig& config)
    : names_(names), config_(config) {}

ReductionSession::~ReductionSession() = default;

std::unique_ptr<ReductionSession::RankStream>& ReductionSession::slot(
    Rank rank, const char* caller) {
  if (finished_)
    throw std::logic_error(std::string("reduction session: ") + caller +
                           " after the session finished");
  if (rank < 0) throw std::invalid_argument("reduction session: negative rank");
  auto it = ranks_.lower_bound(rank);
  if (it == ranks_.end() || it->first != rank)
    it = ranks_.emplace_hint(it, rank, nullptr);
  return it->second;
}

void ReductionSession::ensureRank(Rank rank) { slot(rank, "ensureRank"); }

void ReductionSession::feed(Rank rank, const RawRecord& record) {
  if (last_ == nullptr || lastRank_ != rank) {
    std::unique_ptr<RankStream>& stream = slot(rank, "feed");
    if (!stream) stream = std::make_unique<RankStream>(rank, names_, config_);
    last_ = stream.get();
    lastRank_ = rank;
  }
  if (const Segment* seg = last_->segmenter.push(record)) last_->engine.consume(*seg);
  ++recordsFed_;
}

std::size_t ReductionSession::retainedBytes() const {
  std::size_t bytes = 0;
  for (const auto& [rank, stream] : ranks_)
    if (stream) bytes += stream->engine.retainedBytes();
  return bytes;
}

void ReductionSession::setMergeOptions(const MergeOptions& options) {
  if (finished_)
    throw std::logic_error("reduction session: setMergeOptions after the session finished");
  mergeOptions_ = options;
}

ReductionResult ReductionSession::finalize(ReductionResult result) {
  if (mergeOptions_) mergeResult_ = mergeAcrossRanks(result.reduced, *mergeOptions_);
  return result;
}

ReductionResult ReductionSession::finish() {
  if (finished_)
    throw std::logic_error("reduction session: finish after the session finished");
  finished_ = true;
  last_ = nullptr;

  // The map iterates in rank-id order; finishing each slot is independent
  // (per-rank policy and store), so the finishes can run on any worker while
  // the indexed writes keep assembly deterministic. A rank that never fed
  // (ensureRank only) has no stream: its result is the empty reduction, with
  // zero stats and counters — what an engine that consumed nothing returns.
  // Each stream is released once finished, so the policy's derived state
  // does not outlive its rank into the merge stage.
  std::vector<std::unique_ptr<RankStream>*> streams;
  streams.reserve(ranks_.size());
  RankResults results(ranks_.size());
  for (auto& [rank, stream] : ranks_) {
    results.reduced[streams.size()].rank = rank;
    streams.push_back(&stream);
  }
  ResolvedExecutor exec(config_, streams.size());
  exec.shard(
      [&](std::size_t, std::size_t i) {
        std::unique_ptr<RankStream>& stream = *streams[i];
        if (!stream) return;
        stream->segmenter.finish();
        results.take(i, stream->engine);
        stream.reset();
      },
      progress_);
  return finalize(results.assemble(names_));
}

ReductionResult ReductionSession::reduce(const SegmentedTrace& segmented) {
  if (finished_)
    throw std::logic_error("reduction session: reduce after the session finished");
  if (!ranks_.empty())
    throw std::logic_error(
        "reduction session: reduce on a streaming session (records were fed or "
        "ranks pre-registered via ensureRank; call finish() instead)");
  finished_ = true;

  const std::size_t numRanks = segmented.ranks.size();
  ResolvedExecutor exec(config_, numRanks);

  // One policy instance per worker: policies are stateful per rank and reset
  // via beginRank(), exactly as the serial reduceTrace reuses its one policy
  // across ranks. Each result lands in its rank's slot, so assembly is in
  // rank order and the output is bit-identical to serial regardless of
  // scheduling.
  //
  // Determinism constraint: this depends on beginRank() FULLY resetting the
  // policy — a policy whose behavior depends on how many ranks it has seen
  // (e.g. sampling.hpp's RandomSamplingPolicy, which seeds its RNG from a
  // per-policy rank counter) would vary with scheduling. Every method
  // reachable through makePolicy satisfies the constraint; keep it that way
  // (or switch such a policy to keying off Segment::rank) before adding one
  // to the Method enum.
  std::vector<std::unique_ptr<SimilarityPolicy>> policies;
  policies.reserve(exec.workers());
  for (std::size_t w = 0; w < exec.workers(); ++w)
    policies.push_back(config_.makePolicy());

  RankResults results(numRanks);
  exec.shard(
      [&](std::size_t worker, std::size_t i) {
        const RankSegments& rank = segmented.ranks[i];
        RankReductionEngine engine(rank.rank, *policies[worker]);
        for (const Segment& seg : rank.segments) engine.consume(seg);
        results.take(i, engine);
      },
      progress_);
  return finalize(results.assemble(names_));
}

}  // namespace tracered::core
