// Golden-corpus regression guard: every registered workload and scenario,
// generated at a fixed (scale, seed), must reproduce exactly the committed
// record count, serialized size, and FNV-1a checksum of its TRF1 bytes.
//
// This pins the determinism guarantee (docs/FORMATS.md §"Determinism"): a
// generator, simulator, jitter-stream, or serializer change that alters any
// byte of any workload's output fails here loudly instead of silently
// shifting every downstream figure. If a change is INTENTIONAL, regenerate
// the table: the failure message prints the exact replacement row.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/cross_rank.hpp"
#include "core/methods.hpp"
#include "core/reducer.hpp"
#include "eval/workloads.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_io.hpp"
#include "util/executor.hpp"
#include "util/hash.hpp"

namespace tracered::eval {
namespace {

struct GoldenRow {
  const char* name;
  int ranks;
  std::size_t records;
  std::size_t bytes;
  std::uint64_t fnv1a;
};

/// The corpus at WorkloadOptions{scale = 0.1, seed = 42}. Regenerate a row
/// by copying the "expected row:" line from the failure output.
const std::vector<GoldenRow>& goldenCorpus() {
  static const std::vector<GoldenRow> kRows = {
      {"late_sender", 8, 784, 3965, 0x781180d7ccc91dd9ull},
      {"late_receiver", 8, 784, 3967, 0x049818136c891a79ull},
      {"early_gather", 8, 784, 3914, 0xb4549c4d1322e674ull},
      {"late_broadcast", 8, 784, 4003, 0x05f98e9392b89148ull},
      {"imbalance_at_mpi_barrier", 8, 784, 3885, 0x51200a670c6fe00eull},
      {"Nto1_32", 32, 4096, 20112, 0xfd3e82b567ab8f8dull},
      {"Nto1_1024", 32, 4096, 20118, 0xe74d64199f361430ull},
      {"1toN_32", 32, 4096, 20219, 0x60715607d9c2a0c2ull},
      {"1toN_1024", 32, 4096, 20184, 0x78e82fde36a6b968ull},
      {"1to1s_32", 32, 5376, 29224, 0xa5aae1323b26027eull},
      {"1to1s_1024", 32, 5376, 29279, 0xf50a444104d6fa3bull},
      {"1to1r_32", 32, 4096, 20262, 0x3c73c1e332e6c151ull},
      {"1to1r_1024", 32, 4096, 20326, 0x52c57b81a4a7b8e9ull},
      {"NtoN_32", 32, 4096, 20059, 0x7667d26d3cbd3bf6ull},
      {"NtoN_1024", 32, 4096, 20092, 0x7345f1a78f213c11ull},
      {"dyn_load_balance", 8, 848, 4299, 0xff3354f69917050eull},
      {"sweep3d_8p", 8, 23424, 130288, 0xd92ac0d5afed2e15ull},
      {"sweep3d_32p", 32, 324096, 1873842, 0x13e1441070ca6487ull},
      {"scenario:bursty_phases", 8, 832, 4087, 0xf713782fcd6c6da7ull},
      {"scenario:drifting_cost", 8, 784, 3847, 0x72a0c68e00eb24d3ull},
      {"scenario:stragglers", 16, 1280, 6303, 0x449486003f371621ull},
      {"scenario:sparse_ranks", 32, 1152, 6341, 0xf68a55d13cacfe83ull},
      {"scenario:multi_region", 8, 1344, 6717, 0x8864c4e1b2430580ull},
      {"scenario:noise_profile", 16, 1568, 7708, 0x41806387690404dcull},
      {"scenario:random_walk_cost", 8, 784, 3872, 0x68976bfd51f81149ull},
  };
  return kRows;
}

WorkloadOptions goldenOptions() {
  WorkloadOptions o;
  o.scale = 0.1;
  o.seed = 42;
  return o;
}

TEST(ScenarioGolden, CorpusCoversExactlyTheRegistry) {
  // A workload added to the registry without a golden row (or a row whose
  // workload was removed) is itself a regression: the corpus must track the
  // registry 1:1.
  std::set<std::string> registry(allWorkloads().begin(), allWorkloads().end());
  std::set<std::string> corpus;
  for (const GoldenRow& row : goldenCorpus()) corpus.insert(row.name);
  EXPECT_EQ(corpus, registry);
}

TEST(ScenarioGolden, EveryGeneratorReproducesItsChecksum) {
  for (const GoldenRow& row : goldenCorpus()) {
    SCOPED_TRACE(row.name);
    const Trace trace = runWorkload(row.name, goldenOptions());
    const auto bytes = serializeFullTrace(trace);
    const std::uint64_t hash = util::fnv1a64(bytes);
    EXPECT_EQ(trace.numRanks(), row.ranks);
    EXPECT_EQ(trace.totalRecords(), row.records);
    EXPECT_EQ(bytes.size(), row.bytes);
    EXPECT_EQ(hash, row.fnv1a);
    if (trace.numRanks() != row.ranks || trace.totalRecords() != row.records ||
        bytes.size() != row.bytes || hash != row.fnv1a) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"%s\", %d, %zu, %zu, 0x%016llxull},", row.name,
                    trace.numRanks(), trace.totalRecords(), bytes.size(),
                    static_cast<unsigned long long>(hash));
      ADD_FAILURE() << "generator output drifted; expected row:\n      " << line;
    }
  }
}

// ---- merged-trace (TRM1) corpus ------------------------------------------
//
// The same determinism pin, extended through the reduce → cross-rank-merge
// pipeline: each workload at the golden (scale, seed), reduced with avgWave
// at its paper threshold, then merged hierarchically (shard 8, 2 threads —
// the merge is bit-identical to serial for ANY shard/thread choice, which is
// exactly what these rows pin alongside the encoder).

struct MergedGoldenRow {
  const char* name;
  std::size_t sharedReps;  ///< representatives in the merged shared store
  std::size_t bytes;       ///< serialized TRM1 size
  std::uint64_t fnv1a;     ///< FNV-1a of the TRM1 bytes
};

const std::vector<MergedGoldenRow>& mergedGoldenCorpus() {
  static const std::vector<MergedGoldenRow> kRows = {
      {"late_sender", 16, 784, 0x6e422f6b53a6e224ull},
      {"late_receiver", 15, 770, 0xfad0a948b15080f8ull},
      {"early_gather", 9, 632, 0x96f9f57f14c30c0full},
      {"late_broadcast", 8, 616, 0xe046721397a27e72ull},
      {"imbalance_at_mpi_barrier", 10, 659, 0x64f6031836660bf1ull},
      {"Nto1_32", 14, 2461, 0x019a388149a71356ull},
      {"Nto1_1024", 26, 2688, 0x59346dd4f1bfacdfull},
      {"1toN_32", 16, 2497, 0xf7f2ce555841c126ull},
      {"1toN_1024", 21, 2590, 0x34ba76c13baa7a27ull},
      {"1to1s_32", 72, 4387, 0x6e0091692df4df5bull},
      {"1to1s_1024", 146, 6863, 0x15eeec49e8aadb1full},
      {"1to1r_32", 88, 4048, 0x7c64507e63514dedull},
      {"1to1r_1024", 165, 5888, 0x81355ccf0db4b587ull},
      {"NtoN_32", 12, 2435, 0x9340fae35ea94677ull},
      {"NtoN_1024", 18, 2562, 0x4c5862c51ff6e36cull},
      {"dyn_load_balance", 9, 703, 0x95885d9e6017720eull},
      {"sweep3d_8p", 126, 12541, 0x79d20fa3555f8b06ull},
      {"sweep3d_32p", 502, 140557, 0x5ed4933bd10048dcull},
      {"scenario:bursty_phases", 7, 626, 0xe99035336477303aull},
      {"scenario:drifting_cost", 8, 617, 0x6d8f0240ae71c0d4ull},
      {"scenario:stragglers", 8, 888, 0xf0245425e3388f0dull},
      {"scenario:sparse_ranks", 16, 1020, 0xa10d9340782d2f71ull},
      {"scenario:multi_region", 85, 2919, 0xbf0dd22ad4aec76aull},
      {"scenario:noise_profile", 8, 1035, 0xeff41107593f0b28ull},
      {"scenario:random_walk_cost", 10, 659, 0xd3411494a533eb45ull},
  };
  return kRows;
}

TEST(ScenarioGolden, MergedCorpusCoversExactlyTheRegistry) {
  std::set<std::string> registry(allWorkloads().begin(), allWorkloads().end());
  std::set<std::string> corpus;
  for (const MergedGoldenRow& row : mergedGoldenCorpus()) corpus.insert(row.name);
  EXPECT_EQ(corpus, registry);
}

TEST(ScenarioGolden, EveryWorkloadReproducesItsMergedChecksum) {
  for (const MergedGoldenRow& row : mergedGoldenCorpus()) {
    SCOPED_TRACE(row.name);
    const Trace trace = runWorkload(row.name, goldenOptions());
    auto policy = core::makeDefaultPolicy(core::Method::kAvgWave);
    const ReducedTrace reduced =
        core::reduceTrace(segmentTrace(trace), trace.names(), *policy).reduced;
    util::PooledExecutor pool(2);
    core::MergeOptions mo;
    mo.config = core::ReductionConfig::defaults(core::Method::kAvgWave).withExecutor(pool);
    mo.shardRanks = 8;
    const core::MergeResult merged = core::mergeAcrossRanks(reduced, mo);
    const auto bytes = serializeMergedTrace(merged.merged);
    const std::uint64_t hash = util::fnv1a64(bytes);
    EXPECT_EQ(merged.merged.sharedStore.size(), row.sharedReps);
    EXPECT_EQ(bytes.size(), row.bytes);
    EXPECT_EQ(hash, row.fnv1a);
    if (merged.merged.sharedStore.size() != row.sharedReps ||
        bytes.size() != row.bytes || hash != row.fnv1a) {
      char line[256];
      std::snprintf(line, sizeof line, "{\"%s\", %zu, %zu, 0x%016llxull},",
                    row.name, merged.merged.sharedStore.size(), bytes.size(),
                    static_cast<unsigned long long>(hash));
      ADD_FAILURE() << "merge pipeline output drifted; expected row:\n      " << line;
    }
  }
}

TEST(ScenarioGolden, ChecksumIsSeedAndScaleSensitive) {
  // The corpus pins one (scale, seed) point; make sure the hash actually
  // moves when either moves, so a frozen-RNG bug cannot hide behind it.
  WorkloadOptions reseeded = goldenOptions();
  reseeded.seed = 7;
  WorkloadOptions rescaled = goldenOptions();
  rescaled.scale = 0.2;
  const std::uint64_t base =
      util::fnv1a64(serializeFullTrace(runWorkload("scenario:bursty_phases", goldenOptions())));
  EXPECT_NE(util::fnv1a64(serializeFullTrace(runWorkload("scenario:bursty_phases", reseeded))),
            base);
  EXPECT_NE(util::fnv1a64(serializeFullTrace(runWorkload("scenario:bursty_phases", rescaled))),
            base);
}

}  // namespace
}  // namespace tracered::eval
