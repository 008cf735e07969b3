// Scale/soak tier (ctest label "scale"; CI runs it in a dedicated Release
// job): the incremental cross-rank merge over thousands of
// scenario:sparse_ranks-derived ranks must keep its peak working set
// O(shard + shared store + exec tables) — far below what materializing the
// per-rank input would cost — and stay bit-identical across thread counts at
// that scale.
//
// The rank population is built the way a real many-rank ingest would be: one
// generated scenario:sparse_ranks batch is reduced once, then its per-rank
// reductions are re-labeled with fresh global rank ids and fed through
// CrossRankMerger one rank at a time, so the full N-rank ReducedTrace never
// exists in memory.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <vector>

#include "core/cross_rank.hpp"
#include "core/methods.hpp"
#include "core/reducer.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"
#include "util/executor.hpp"

// ASan's allocator (shadow pages, redzones, quarantine) both inflates and
// flattens ru_maxrss — the sharded and monolithic runs measure identically —
// so the differential-RSS assertions below carry no signal under it. The
// merges themselves still run (a 10k-rank pass IS AddressSanitizer
// coverage); only the RSS comparison is skipped.
#if defined(__SANITIZE_ADDRESS__)
#define TRACERED_ASAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TRACERED_ASAN_ACTIVE 1
#endif
#endif
#ifndef TRACERED_ASAN_ACTIVE
#define TRACERED_ASAN_ACTIVE 0
#endif

namespace tracered::core {
namespace {

/// Approximate in-memory footprint of one rank's reduction — the per-rank
/// cost a whole-trace merge WOULD pay N times over.
std::size_t approxRankBytes(const RankReduced& rr) {
  std::size_t b = sizeof(RankReduced);
  for (const Segment& s : rr.stored)
    b += sizeof(Segment) + s.events.size() * sizeof(EventInterval);
  b += rr.execs.size() * sizeof(SegmentExec);
  return b;
}

RankReduced relabeled(const RankReduced& src, Rank rank) {
  RankReduced copy = src;
  copy.rank = rank;
  for (Segment& s : copy.stored) s.rank = rank;
  return copy;
}

/// The 32-rank scenario:sparse_ranks base batch, reduced once and recycled
/// as the rank population for every scale test.
const ReducedTrace& baseBatch() {
  static const ReducedTrace reduced = [] {
    eval::WorkloadOptions opts;
    opts.scale = 1.0;
    opts.seed = 42;
    const Trace trace = eval::runWorkload("scenario:sparse_ranks", opts);
    auto policy = makeDefaultPolicy(Method::kAvgWave);
    return reduceTrace(segmentTrace(trace), trace.names(), *policy).reduced;
  }();
  return reduced;
}

MergeOptions scaleOptions(util::Executor& executor) {
  MergeOptions mo;
  // Permissive absDiff: the SPMD dedup case the cross-rank pass exists for —
  // replicated ranks collapse into the base store, which therefore stays
  // O(base batch) no matter how many ranks are fed.
  mo.config = ReductionConfig{Method::kAbsDiff, 1e9}.withExecutor(executor);
  mo.shardRanks = 64;
  return mo;
}

MergeResult mergeRelabeledRanks(std::size_t targetRanks, int threads,
                                std::size_t shardRanks = 64) {
  const ReducedTrace& base = baseBatch();
  util::PooledExecutor pool(threads);
  MergeOptions mo = scaleOptions(pool);
  mo.shardRanks = shardRanks;
  CrossRankMerger merger(mo);
  merger.addNames(base.names);
  Rank next = 0;
  while (merger.ranksAdded() < targetRanks)
    for (const RankReduced& rr : base.ranks) {
      if (merger.ranksAdded() >= targetRanks) break;
      merger.addRank(base.names, relabeled(rr, next++));
    }
  return merger.finish();
}

/// Runs `fn` in a forked child and returns the child's peak RSS in bytes.
/// getrusage(RUSAGE_CHILDREN) reports the largest waited-for child, so each
/// reading after waitpid() is a running maximum — callers must run children
/// in ascending expected-footprint order and difference the readings.
template <typename Fn>
std::size_t childPeakRssBytes(Fn fn) {
  const pid_t pid = fork();
  if (pid == 0) {
    fn();
    _exit(0);  // skip destructors/atexit: only the footprint matters
  }
  EXPECT_GT(pid, 0) << "fork failed";
  int status = 0;
  waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  rusage u{};
  getrusage(RUSAGE_CHILDREN, &u);
  return static_cast<std::size_t>(u.ru_maxrss) * 1024;
}

TEST(ScaleMerge, ThousandSparseRanksBitIdenticalAcrossThreads) {
  const MergeResult serial = mergeRelabeledRanks(1000, 1);
  const MergeResult parallel = mergeRelabeledRanks(1000, 0);  // hw concurrency
  EXPECT_EQ(serializeMergedTrace(parallel.merged), serializeMergedTrace(serial.merged));
  EXPECT_EQ(parallel.stats.counters, serial.stats.counters);
  EXPECT_EQ(serial.merged.execs.size(), 1000u);
  // Replicated ranks collapse: the shared store stays at the base batch's
  // merged size instead of growing with the rank count.
  EXPECT_LE(serial.stats.mergedRepresentatives,
            baseBatch().totalStored());
}

TEST(ScaleMerge, TenThousandSparseRanksPeakMemoryStaysShardBounded) {
  // The O(shard) claim, tested differentially: merge the SAME 10k ranks with
  // shardRanks=64 and with shardRanks=N (one monolithic shard — exactly the
  // "materialize every rank's input before matching" regime the incremental
  // merger exists to avoid). Identical pipeline, identical output; the only
  // difference is how many rank inputs sit buffered at once, so the RSS gap
  // between the two runs IS the input-buffering cost. If the merger ever
  // starts accumulating inputs regardless of shard size, the gap collapses
  // and this fails.
  //
  // Each run happens in a forked child so ru_maxrss (monotonic per process)
  // gives a clean per-run peak; children run in ascending footprint order
  // because RUSAGE_CHILDREN reports a running maximum.
  const ReducedTrace& base = baseBatch();  // materialize pre-fork: shared CoW
  std::size_t inputEstimate = 0;
  for (const RankReduced& rr : base.ranks) inputEstimate += approxRankBytes(rr);
  const std::size_t targetRanks = 10000;
  inputEstimate = inputEstimate / base.ranks.size() * targetRanks;
  ASSERT_GE(inputEstimate, std::size_t{4} << 20)
      << "base batch too small for the buffering gap to clear allocator "
         "noise; raise the scenario scale";

  const std::size_t floorRss = childPeakRssBytes([&] { (void)base.totalStored(); });
  const std::size_t shardedRss = childPeakRssBytes([&] {
    const MergeResult m = mergeRelabeledRanks(targetRanks, 2, 64);
    if (m.merged.execs.size() != targetRanks) _exit(2);
    if (m.stats.mergedRepresentatives > baseBatch().totalStored()) _exit(3);
  });
  const std::size_t monolithicRss = childPeakRssBytes([&] {
    const MergeResult m = mergeRelabeledRanks(targetRanks, 2, targetRanks);
    if (m.merged.execs.size() != targetRanks) _exit(2);
  });

  if (TRACERED_ASAN_ACTIVE)
    GTEST_SKIP() << "peak-RSS differential carries no signal under ASan "
                    "(the merges above still ran; see the comment at the top)";

  ASSERT_GE(shardedRss, floorRss);
  ASSERT_GE(monolithicRss, shardedRss);
  const std::size_t shardedCost = shardedRss - floorRss;
  const std::size_t bufferingGap = monolithicRss - shardedRss;
  // The monolithic run must pay a buffering cost on the order of the full
  // input; /4 absorbs allocator slack and the shard the sandboxed run DOES
  // hold. Both sides of the comparison carry the identical output (shared
  // store + 10k exec tables), so it cancels out of the gap.
  EXPECT_GE(bufferingGap, inputEstimate / 4)
      << "sharded merge grew " << (shardedCost >> 20) << " MiB, monolithic only "
      << (bufferingGap >> 20) << " MiB more; expected the monolithic run to "
      << "buffer ~" << (inputEstimate >> 20) << " MiB of rank inputs — the "
      << "sharded merge no longer saves O(ranks) memory";
  // And an absolute ceiling on the sharded run: its extra footprint over the
  // floor stays below the materialized input it never holds.
  EXPECT_LE(shardedCost, inputEstimate * 3)
      << "sharded merge itself grew " << (shardedCost >> 20)
      << " MiB — more than holding every input would cost";
}

}  // namespace
}  // namespace tracered::core
