// google-benchmark microbenches for the core library: per-candidate cost of
// each similarity test, reducer throughput, wavelet transform speed, trace
// (de)serialization. These quantify the practical cost of each method — the
// paper's methods differ not only in quality but also in the work an online
// reducer would do per segment.
//
// The custom main() additionally runs two JSON studies, printed as one
// machine-readable line per configuration to stdout before the
// google-benchmark output, so successive PRs can append to a perf
// trajectory:
//
//   * rank-scaling (plain invocation or --rank-scaling): sweep3d_32p,
//     32 ranks, every method: serial, per-call-pool sharding, and sharding
//     through one shared PooledExecutor — the pooled column shows what pool
//     reuse buys over paying spawn/join per call.
//       {"bench":"rank_scaling","workload":"sweep3d_32p","method":...}
//   * matching (plain invocation or --matching, also written to
//     BENCH_matching.json / --matching-out): every method across both
//     acceleration tiers — the literal Sec. 3.1 loop (AccelerationTier::kOff)
//     and the per-bucket match index (kIndexed, the default) — verifying
//     that both reduce bit-identically and reporting the hot-loop
//     instrumentation:
//       {"bench":"matching","method":...,"ms_base":...,"ms_indexed":...,
//        "speedup_indexed":...,"comparisons":...,
//        "index_visited":...,"index_pruned":...,"index_prune_rate":...,
//        "pivot_dist_evals":...,"exact_evals":...}
//     Two fixtures per run: the main one (late_sender small / sweep3d_32p
//     full) plus scenario:multi_region — the index's worst-case adversary
//     (many near-identical representatives per bucket, where the literal
//     loop goes quadratic). --small swaps in the reduced-scale fixtures
//     (the ctest / CI smoke configuration); any identity mismatch on any
//     row exits nonzero.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>

#include "core/methods.hpp"
#include "core/reducer.hpp"
#include "core/reduction_config.hpp"
#include "core/reduction_session.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"
#include "util/executor.hpp"
#include "util/thread_pool.hpp"
#include "wavelet/wavelet.hpp"

namespace {

using namespace tracered;

/// Lazily built shared workload (late_sender at reduced scale).
struct Fixture {
  Trace trace;
  SegmentedTrace segmented;

  Fixture() {
    eval::WorkloadOptions opts;
    opts.scale = 0.3;
    trace = eval::runWorkload("late_sender", opts);
    segmented = segmentTrace(trace);
  }
};

const Fixture& fix() {
  static Fixture f;
  return f;
}

/// Wide fixture for rank-scaling runs: sweep3d on 32 ranks.
struct WideFixture {
  Trace trace;
  SegmentedTrace segmented;

  WideFixture() {
    eval::WorkloadOptions opts;
    opts.scale = 0.25;
    trace = eval::runWorkload("sweep3d_32p", opts);
    segmented = segmentTrace(trace);
  }
};

const WideFixture& wide() {
  static WideFixture f;
  return f;
}

/// The matching study's adversarial fixture: scenario:multi_region piles
/// many near-identical segments into the same signature buckets, so the
/// literal Sec. 3.1 loop degrades toward quadratic — the case the match
/// index exists for.
struct MultiRegionFixture {
  Trace trace;
  SegmentedTrace segmented;

  explicit MultiRegionFixture(double scale) {
    eval::WorkloadOptions opts;
    opts.scale = scale;
    trace = eval::runWorkload("scenario:multi_region", opts);
    segmented = segmentTrace(trace);
  }
};

const MultiRegionFixture& multiRegionSmall() {
  static MultiRegionFixture f(0.4);
  return f;
}

const MultiRegionFixture& multiRegionFull() {
  static MultiRegionFixture f(1.0);
  return f;
}

void BM_Reduce(benchmark::State& state, core::Method method) {
  const Fixture& f = fix();
  const core::ReductionConfig config = core::ReductionConfig::defaults(method);
  std::size_t segments = 0;
  for (auto _ : state) {
    auto policy = config.makePolicy();
    const core::ReductionResult res =
        core::reduceTrace(f.segmented, f.trace.names(), *policy);
    benchmark::DoNotOptimize(res.stats.matches);
    segments += res.stats.totalSegments;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(segments));
}

/// Rank-sharded reduction over the 32-rank fixture, one pool per call
/// (what a caller that builds an executor per reduction pays); range(0) =
/// threads.
void BM_ReduceParallel(benchmark::State& state, core::Method method) {
  const WideFixture& f = wide();
  const core::ReductionConfig config = core::ReductionConfig::defaults(method);
  std::size_t segments = 0;
  for (auto _ : state) {
    util::PooledExecutor perCall(static_cast<int>(state.range(0)));
    const core::ReductionResult res =
        core::ReductionSession(f.trace.names(), config.withExecutor(perCall))
            .reduce(f.segmented);
    benchmark::DoNotOptimize(res.stats.matches);
    segments += res.stats.totalSegments;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(segments));
}

/// Same sharding through one PooledExecutor reused across iterations — the
/// amortized path sweeps should use; range(0) = threads.
void BM_ReducePooled(benchmark::State& state, core::Method method) {
  const WideFixture& f = wide();
  util::PooledExecutor pool(static_cast<int>(state.range(0)));
  const core::ReductionConfig config =
      core::ReductionConfig::defaults(method).withExecutor(pool);
  std::size_t segments = 0;
  for (auto _ : state) {
    const core::ReductionResult res =
        core::ReductionSession(f.trace.names(), config).reduce(f.segmented);
    benchmark::DoNotOptimize(res.stats.matches);
    segments += res.stats.totalSegments;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(segments));
}

void BM_Segment(benchmark::State& state) {
  const Fixture& f = fix();
  for (auto _ : state) {
    const SegmentedTrace st = segmentTrace(f.trace);
    benchmark::DoNotOptimize(st.totalSegments());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.trace.totalRecords()));
}

void BM_SerializeFull(benchmark::State& state) {
  const Fixture& f = fix();
  for (auto _ : state) {
    const auto bytes = serializeFullTrace(f.trace);
    benchmark::DoNotOptimize(bytes.size());
  }
}

void BM_WaveletTransform(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i * 37 % 1000);
  for (auto _ : state) {
    auto t = wavelet::avgTransform(v);
    benchmark::DoNotOptimize(t.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

/// Best-of-`reps` wall clock of `run`; the last run's result lands in *last.
double bestMillisOf(int reps, const std::function<core::ReductionResult()>& run,
                    core::ReductionResult* last) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    core::ReductionResult res = run();
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(res.stats.matches);
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
    if (last != nullptr && r == reps - 1) *last = std::move(res);
  }
  return best;
}

/// The rank-scaling study: serial vs per-call-pool vs shared-pool sharding
/// for every method, one JSON line per method. ms_parallel builds and joins
/// a PooledExecutor inside every call; ms_pooled reuses one PooledExecutor
/// across all calls, so pool_amortization = ms_parallel / ms_pooled is the
/// worker-churn overhead a shared executor removes. The perf trajectory
/// future PRs extend.
void runRankScalingStudy() {
  const WideFixture& f = wide();
  // Report the thread count the driver actually uses (clamped to the rank
  // count), not raw hardware concurrency.
  const int hw = static_cast<int>(std::min<std::size_t>(
      util::ThreadPool::hardwareThreads(), f.segmented.ranks.size()));
  const int reps = 3;
  std::printf("{\"bench\":\"rank_scaling\",\"workload\":\"sweep3d_32p\","
              "\"ranks\":%zu,\"segments\":%zu,\"hw_threads\":%d}\n",
              f.segmented.ranks.size(), f.segmented.totalSegments(), hw);
  util::PooledExecutor pool(hw);  // shared by every ms_pooled measurement
  for (core::Method m : core::allMethods()) {
    const core::ReductionConfig serialCfg = core::ReductionConfig::defaults(m);
    const auto reduce = [&](const core::ReductionConfig& config) {
      return core::ReductionSession(f.trace.names(), config).reduce(f.segmented);
    };
    const double t1 = bestMillisOf(reps, [&] { return reduce(serialCfg); }, nullptr);
    const double tn = bestMillisOf(
        reps,
        [&] {
          util::PooledExecutor perCall(hw);
          return reduce(serialCfg.withExecutor(perCall));
        },
        nullptr);
    const double tp =
        bestMillisOf(reps, [&] { return reduce(serialCfg.withExecutor(pool)); }, nullptr);
    std::printf("{\"bench\":\"rank_scaling\",\"workload\":\"sweep3d_32p\","
                "\"method\":\"%s\",\"threshold\":%g,\"threads_serial\":1,"
                "\"ms_serial\":%.3f,\"threads_parallel\":%d,\"ms_parallel\":%.3f,"
                "\"speedup\":%.3f,\"ms_pooled\":%.3f,\"speedup_pooled\":%.3f,"
                "\"pool_amortization\":%.3f}\n",
                core::methodName(m), core::defaultThreshold(m), t1, hw, tn,
                tn > 0 ? t1 / tn : 0.0, tp, tp > 0 ? t1 / tp : 0.0,
                tp > 0 ? tn / tp : 0.0);
  }
  std::fflush(stdout);
}

bool sameReduction(const core::ReductionResult& a, const core::ReductionResult& b) {
  return a.stats == b.stats && a.reduced.ranks == b.reduced.ranks;
}

/// The matching study: both acceleration tiers (literal Sec. 3.1 loop /
/// per-bucket match index) per method on the main fixture AND the
/// adversarial scenario:multi_region fixture, verifying that the tiers
/// reduce bit-identically. One JSON line
/// per (workload, method) to stdout AND `outPath` — the BENCH_matching.json
/// perf trajectory. Returns false on any identity mismatch (which would
/// mean a fast path changed semantics).
bool runMatchingStudy(bool small, const char* outPath, int reps) {
  struct Entry {
    const char* workload;
    const Trace* trace;
    const SegmentedTrace* segmented;
  };
  const Entry entries[] = {
      small ? Entry{"late_sender", &fix().trace, &fix().segmented}
            : Entry{"sweep3d_32p", &wide().trace, &wide().segmented},
      small ? Entry{"scenario:multi_region", &multiRegionSmall().trace,
                    &multiRegionSmall().segmented}
            : Entry{"scenario:multi_region", &multiRegionFull().trace,
                    &multiRegionFull().segmented},
  };

  // An unwritable cwd only loses the archived copy — the study (and its
  // identity verdict, the reason this function can fail) still runs and
  // prints to stdout.
  FILE* out = std::fopen(outPath, "w");
  if (out == nullptr)
    std::fprintf(stderr, "micro_reduction_perf: cannot write %s; printing to stdout only\n",
                 outPath);
  auto emit = [&](const char* line) {
    std::fputs(line, stdout);
    if (out != nullptr) std::fputs(line, out);
  };

  bool ok = true;
  char line[768];
  for (const Entry& e : entries) {
    std::snprintf(line, sizeof line,
                  "{\"bench\":\"matching\",\"workload\":\"%s\",\"ranks\":%zu,"
                  "\"segments\":%zu,\"reps\":%d}\n",
                  e.workload, e.segmented->ranks.size(),
                  e.segmented->totalSegments(), reps);
    emit(line);

    for (core::Method m : core::allMethods()) {
      const auto runTier = [&](core::AccelerationTier tier,
                               core::ReductionResult* res) {
        return bestMillisOf(
            reps,
            [&] {
              auto policy = core::makeDefaultPolicy(m);
              policy->setAccelerationTier(tier);
              return core::reduceTrace(*e.segmented, e.trace->names(), *policy);
            },
            res);
      };
      core::ReductionResult base, indexed;
      const double msBase = runTier(core::AccelerationTier::kOff, &base);
      const double msIndexed = runTier(core::AccelerationTier::kIndexed, &indexed);
      const bool identical = sameReduction(base, indexed);
      ok = ok && identical;
      // comparisons is the literal loop's scan count; the index_* columns
      // and exact_evals describe the indexed tier. exact_evals vs
      // comparisons is the "exact distance evaluations saved" headline.
      std::snprintf(
          line, sizeof line,
          "{\"bench\":\"matching\",\"workload\":\"%s\",\"method\":\"%s\","
          "\"threshold\":%g,\"ms_base\":%.3f,\"ms_indexed\":%.3f,"
          "\"speedup_indexed\":%.3f,\"comparisons\":%zu,"
          "\"index_visited\":%zu,\"index_pruned\":%zu,\"index_prune_rate\":%.4f,"
          "\"pivot_dist_evals\":%zu,\"exact_evals\":%zu,\"stored\":%zu,"
          "\"identical\":%s}\n",
          e.workload, core::methodName(m), core::defaultThreshold(m), msBase, msIndexed,
          msIndexed > 0 ? msBase / msIndexed : 0.0, base.counters.comparisons,
          indexed.counters.indexVisited, indexed.counters.indexPruned,
          indexed.counters.indexPruneRate(), indexed.counters.pivotDistEvals,
          indexed.counters.exactEvals(), indexed.stats.storedSegments,
          identical ? "true" : "false");
      emit(line);
      if (!identical)
        std::fprintf(stderr,
                     "micro_reduction_perf: %s/%s: indexed result differs "
                     "from the literal baseline!\n",
                     e.workload, core::methodName(m));
    }
  }
  if (out != nullptr) std::fclose(out);
  std::fflush(stdout);
  return ok;
}

}  // namespace

BENCHMARK_CAPTURE(BM_Reduce, relDiff, tracered::core::Method::kRelDiff);
BENCHMARK_CAPTURE(BM_Reduce, absDiff, tracered::core::Method::kAbsDiff);
BENCHMARK_CAPTURE(BM_Reduce, Manhattan, tracered::core::Method::kManhattan);
BENCHMARK_CAPTURE(BM_Reduce, Euclidean, tracered::core::Method::kEuclidean);
BENCHMARK_CAPTURE(BM_Reduce, Chebyshev, tracered::core::Method::kChebyshev);
BENCHMARK_CAPTURE(BM_Reduce, iter_k, tracered::core::Method::kIterK);
BENCHMARK_CAPTURE(BM_Reduce, avgWave, tracered::core::Method::kAvgWave);
BENCHMARK_CAPTURE(BM_Reduce, haarWave, tracered::core::Method::kHaarWave);
BENCHMARK_CAPTURE(BM_Reduce, iter_avg, tracered::core::Method::kIterAvg);
BENCHMARK_CAPTURE(BM_ReduceParallel, avgWave, tracered::core::Method::kAvgWave)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_ReduceParallel, Euclidean, tracered::core::Method::kEuclidean)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_ReducePooled, avgWave, tracered::core::Method::kAvgWave)
    ->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_ReducePooled, Euclidean, tracered::core::Method::kEuclidean)
    ->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_Segment);
BENCHMARK(BM_SerializeFull);
BENCHMARK(BM_WaveletTransform)->Arg(8)->Arg(64)->Arg(512);

int main(int argc, char** argv) {
  // The studies run on a plain invocation or with --rank-scaling /
  // --matching; benchmark tooling passing --benchmark_* flags gets an
  // unpolluted stdout stream. --small / --matching-reps / --matching-out
  // shape the matching study (the ctest + CI smoke step runs
  // `--matching --small --matching-reps 1`).
  bool rankScaling = argc == 1;
  bool matching = argc == 1;
  bool small = false;
  int matchingReps = 3;
  std::string matchingOut = "BENCH_matching.json";
  int keptArgc = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--rank-scaling") {
      rankScaling = true;
    } else if (arg == "--matching") {
      matching = true;
    } else if (arg == "--small") {
      small = true;
    } else if (arg == "--matching-reps" && i + 1 < argc) {
      matchingReps = std::atoi(argv[++i]);
      if (matchingReps < 1) matchingReps = 1;
    } else if (arg == "--matching-out" && i + 1 < argc) {
      matchingOut = argv[++i];
    } else {
      argv[keptArgc++] = argv[i];
    }
  }
  argc = keptArgc;
  if (rankScaling) runRankScalingStudy();
  if (matching && !runMatchingStudy(small, matchingOut.c_str(), matchingReps))
    return 1;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
