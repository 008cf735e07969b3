// Cross-rank merge scale bench: the 1k/10k/100k sparse-rank rows of the perf
// trajectory. Builds one scenario:sparse_ranks batch, reduces it once, then
// feeds N re-labeled ranks through the incremental CrossRankMerger — the
// full N-rank reduced trace is never materialized, which is the point being
// measured: wall time at --threads 1 vs the parallel probe, merge ratio, the
// merge's pivot-distance evaluations and exactly compared representatives
// (MergeStats::counters, equal at every thread count), and the best-effort
// peak-RSS growth per tier (ru_maxrss is monotonic, so tiers
// run in ascending order and each row reports growth over the previous
// high-water mark).
//
//   bench_merge [--scale f] [--seed n] [--threads n] [--shard n]
//               [--config m[@t]] [--tiers n,n,...] [--out file]
//
// The `bench_merge_smoke` ctest runs a small tier; CI appends the full
// 1k/10k/100k tiers to the BENCH_matching.json trajectory artifact.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/cross_rank.hpp"
#include "core/reducer.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"

namespace tracered::bench {
namespace {

std::size_t peakRssKb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<std::size_t>(u.ru_maxrss);
}

std::vector<std::size_t> parseTiers(const std::string& spec) {
  std::vector<std::size_t> tiers;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    tiers.push_back(static_cast<std::size_t>(std::stoull(spec.substr(pos, next - pos))));
    pos = next + 1;
  }
  return tiers;
}

/// Dilates a rank's stored segments by `factor` (×1024, integer), keeping
/// every event identity — so variant v only matches representatives of
/// variant v, and the shared store grows to O(variants × base), not O(N).
void dilate(RankReduced& rr, std::size_t num) {
  for (Segment& s : rr.stored) {
    s.end = s.end * static_cast<TimeUs>(num) / 1024;
    for (EventInterval& e : s.events) {
      e.start = e.start * static_cast<TimeUs>(num) / 1024;
      e.end = e.end * static_cast<TimeUs>(num) / 1024;
    }
  }
}

core::MergeResult mergeRelabeled(const ReducedTrace& base, std::size_t targetRanks,
                                 std::size_t variants, const core::MergeOptions& options) {
  core::CrossRankMerger merger(options);
  merger.addNames(base.names);
  Rank next = 0;
  while (merger.ranksAdded() < targetRanks)
    for (const RankReduced& rr : base.ranks) {
      if (merger.ranksAdded() >= targetRanks) break;
      RankReduced relabeled = rr;
      relabeled.rank = next;
      for (Segment& s : relabeled.stored) s.rank = next;
      // Cycle time-dilated variants (x1.0, x1.5, x2.0, ...): each rank's
      // probes must reject every other variant's representatives before
      // matching their own — real distance evaluations, which is what the
      // parallel probe tier exists to spread across threads.
      dilate(relabeled, 1024 + (static_cast<std::size_t>(next) % variants) * 512);
      ++next;
      merger.addRank(base.names, relabeled);
    }
  return merger.finish();
}

int run(int argc, char** argv) {
  const BenchOptions opts =
      BenchOptions::parse(argc, argv, {"config", "shard", "tiers", "variants", "out"});
  const std::size_t shard = static_cast<std::size_t>(opts.args().getInt("shard", 64));
  const std::size_t variants =
      std::max<std::size_t>(1, static_cast<std::size_t>(opts.args().getInt("variants", 16)));
  const std::vector<std::size_t> tiers =
      parseTiers(opts.args().get("tiers", "1000,10000,100000"));
  const std::string outPath = opts.args().get("out", "BENCH_merge.json");

  FILE* out = std::fopen(outPath.c_str(), "a");
  if (out == nullptr)
    std::fprintf(stderr, "bench_merge: cannot write %s; printing to stdout only\n",
                 outPath.c_str());
  auto emit = [&](const char* line) {
    std::fputs(line, stdout);
    if (out != nullptr) std::fputs(line, out);
  };

  // The base batch: one generated + reduced sparse_ranks scenario, recycled
  // (re-labeled) as the rank population of every tier.
  const Trace trace = eval::runWorkload("scenario:sparse_ranks", opts.workload);
  auto policy = core::makeDefaultPolicy(core::Method::kAvgWave);
  const ReducedTrace base =
      core::reduceTrace(segmentTrace(trace), trace.names(), *policy).reduced;

  core::MergeOptions serialOpts;
  // Default merge config: avgWave at its paper threshold — replicated ranks
  // still collapse into the base store, and the per-probe wavelet transform
  // is real work for the parallel tier to amortize. --config overrides.
  serialOpts.config = core::ReductionConfig::defaults(core::Method::kAvgWave);
  if (opts.args().has("config")) {
    try {
      serialOpts.config = core::ReductionConfig::fromName(opts.args().get("config"));
    } catch (const std::exception& e) {
      usageExit(opts.args(), e.what());
    }
  }
  serialOpts.config.numThreads = 1;
  serialOpts.shardRanks = shard;
  core::MergeOptions parallelOpts = serialOpts;
  // One shared pool across every flush and tier — the amortized-executor
  // story (README "Amortized pools"), not the pool-per-call shim.
  parallelOpts.config = parallelOpts.config.withExecutor(opts.executor());

  char line[512];
  std::snprintf(line, sizeof line,
                "{\"bench\":\"merge\",\"scenario\":\"scenario:sparse_ranks\","
                "\"scale\":%g,\"seed\":%llu,\"shard\":%zu,\"variants\":%zu,"
                "\"base_ranks\":%zu,\"base_reps\":%zu}\n",
                opts.workload.scale, static_cast<unsigned long long>(opts.workload.seed),
                shard, variants, base.ranks.size(), base.totalStored());
  emit(line);

  std::size_t rssHighKb = peakRssKb();
  for (const std::size_t ranks : tiers) {
    const auto t0 = std::chrono::steady_clock::now();
    const core::MergeResult serial = mergeRelabeled(base, ranks, variants, serialOpts);
    const auto t1 = std::chrono::steady_clock::now();
    const core::MergeResult parallel = mergeRelabeled(base, ranks, variants, parallelOpts);
    const auto t2 = std::chrono::steady_clock::now();
    if (serializeMergedTrace(parallel.merged) != serializeMergedTrace(serial.merged)) {
      std::fprintf(stderr, "bench_merge: parallel merge diverged from serial at %zu ranks\n",
                   ranks);
      return 1;
    }
    const double msSerial = std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double msParallel = std::chrono::duration<double, std::milli>(t2 - t1).count();
    const std::size_t nowKb = peakRssKb();
    const std::size_t growthKb = nowKb > rssHighKb ? nowKb - rssHighKb : 0;
    rssHighKb = nowKb;
    std::snprintf(line, sizeof line,
                  "{\"bench\":\"merge\",\"ranks\":%zu,\"input_reps\":%zu,"
                  "\"merged_reps\":%zu,\"merge_ratio\":%.4f,\"trm1_bytes\":%zu,"
                  "\"ms_serial\":%.3f,\"ms_parallel\":%.3f,"
                  "\"pivot_evals\":%zu,\"reps_visited\":%zu,"
                  "\"peak_rss_growth_kb\":%zu}\n",
                  ranks, serial.stats.inputRepresentatives,
                  serial.stats.mergedRepresentatives, serial.stats.mergeRatio(),
                  mergedTraceSize(serial.merged), msSerial, msParallel,
                  serial.stats.counters.pivotDistEvals,
                  serial.stats.counters.indexVisited, growthKb);
    emit(line);
  }
  if (out != nullptr) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace tracered::bench

int main(int argc, char** argv) { return tracered::bench::run(argc, argv); }
