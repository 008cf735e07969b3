// Per-scenario bench rows for the perf trajectory: reduces every registered
// scenario with one config and appends one JSON line per scenario —
// segments, stored, reduction %, retained file %, match-index prune rate,
// wall ms, and the TRF1 corpus checksum — to stdout AND an output file
// (append mode, so CI can accumulate the rows into the BENCH_matching.json
// trajectory artifact next to the matching study's).
//
//   bench_scenarios [--scale f] [--seed n] [--threads n]
//                   [--config m[@t]] [--out file]
//
// The `bench_scenarios_smoke` ctest runs `--scale 0.1 --out
// BENCH_scenarios.json`; CI re-runs it with --out BENCH_matching.json after
// the matching smoke so both studies land in one archived file.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/reduction_session.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"
#include "util/hash.hpp"

namespace tracered::bench {
namespace {

int run(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv, {"config", "out"});
  core::ReductionConfig config = core::ReductionConfig::defaults(core::Method::kEuclidean);
  if (opts.args().has("config")) {
    try {
      config = core::ReductionConfig::fromName(opts.args().get("config"));
    } catch (const std::invalid_argument& e) {
      usageExit(opts.args(), e.what());  // bad --config is exit 2, like --scale
    }
  }
  const std::string outPath = opts.args().get("out", "BENCH_scenarios.json");

  FILE* out = std::fopen(outPath.c_str(), "a");
  if (out == nullptr)
    std::fprintf(stderr, "bench_scenarios: cannot write %s; printing to stdout only\n",
                 outPath.c_str());
  auto emit = [&](const char* line) {
    std::fputs(line, stdout);
    if (out != nullptr) std::fputs(line, out);
  };

  char line[512];
  std::snprintf(line, sizeof line,
                "{\"bench\":\"scenarios\",\"config\":\"%s\",\"scale\":%g,\"seed\":%llu}\n",
                config.toString().c_str(), opts.workload.scale,
                static_cast<unsigned long long>(opts.workload.seed));
  emit(line);

  for (const std::string& name : eval::scenarioWorkloads()) {
    const Trace trace = eval::runWorkload(name, opts.workload);
    const SegmentedTrace segmented = segmentTrace(trace);
    const auto fullBytes = serializeFullTrace(trace);

    const auto t0 = std::chrono::steady_clock::now();
    const core::ReductionResult res =
        core::ReductionSession(trace.names(), config.withExecutor(opts.executor()))
            .reduce(segmented);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

    const std::size_t reducedSize = serializeReducedTrace(res.reduced).size();
    const double total = static_cast<double>(res.stats.totalSegments);
    std::snprintf(
        line, sizeof line,
        "{\"bench\":\"scenarios\",\"scenario\":\"%s\",\"ranks\":%zu,"
        "\"segments\":%zu,\"stored\":%zu,\"reduction_pct\":%.2f,"
        "\"file_pct\":%.2f,\"comparisons\":%zu,\"index_prune_rate\":%.4f,"
        "\"ms\":%.3f,\"trf1_fnv1a\":\"%016llx\"}\n",
        name.c_str(), segmented.ranks.size(), res.stats.totalSegments,
        res.stats.storedSegments,
        total > 0 ? 100.0 * (1.0 - static_cast<double>(res.stats.storedSegments) / total)
                  : 0.0,
        100.0 * static_cast<double>(reducedSize) / static_cast<double>(fullBytes.size()),
        res.counters.comparisons, res.counters.indexPruneRate(), ms,
        static_cast<unsigned long long>(util::fnv1a64(fullBytes)));
    emit(line);
  }
  if (out != nullptr) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace tracered::bench

int main(int argc, char** argv) { return tracered::bench::run(argc, argv); }
