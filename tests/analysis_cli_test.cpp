// The closed detection loop, end to end through the built binary: for every
// entry in the workload registry, `tracered analyze` must recover the
// injected inefficiency from the *reduced* trace at the paper's thresholds,
// and `tracered diff` must reproduce the pinned trend verdict. Plus the
// run-A-vs-run-B regression gate, byte-determinism of both commands, and
// the rank-count-mismatch refusal.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <map>
#include <string>

#include "eval/workloads.hpp"

#ifndef TRACERED_CLI_PATH
#error "TRACERED_CLI_PATH must point at the built tracered binary"
#endif

namespace tracered {
namespace {

struct CliResult {
  int exitCode = -1;
  std::string output;  ///< stdout + stderr, interleaved
};

CliResult runCli(const std::string& argsLine) {
  const std::string cmd = std::string(TRACERED_CLI_PATH) + " " + argsLine + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  CliResult result;
  char buf[4096];
  while (pipe != nullptr && std::fgets(buf, sizeof buf, pipe) != nullptr)
    result.output += buf;
  if (pipe != nullptr) {
    const int status = pclose(pipe);
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return result;
}

std::string tmpPath(const std::string& name) { return ::testing::TempDir() + name; }

std::string safeName(std::string name) {
  for (char& c : name)
    if (c == ':') c = '_';
  return name;
}

/// What each registry workload injects, and how the avgWave@0.2 reduction
/// fares on it at scale 0.1 / seed 42. The abbrev/callsite pair is the
/// ground truth the analyzer must recover from the reduced trace; the
/// verdict pins `tracered diff` full-vs-reduced (the paper's result that
/// averaging keeps most trends but loses a few interference patterns).
struct Expectation {
  const char* abbrev;
  const char* callsite;
  const char* verdict;
};

const std::map<std::string, Expectation>& expectations() {
  static const std::map<std::string, Expectation> kTable = {
      {"late_sender", {"LS", "MPI_Recv", "retained"}},
      {"late_receiver", {"LR", "MPI_Ssend", "retained"}},
      {"early_gather", {"ER", "MPI_Gather", "retained"}},
      {"late_broadcast", {"LB", "MPI_Bcast", "retained"}},
      {"imbalance_at_mpi_barrier", {"WB", "MPI_Barrier", "retained"}},
      {"Nto1_32", {"ER", "MPI_Gather", "retained"}},
      {"Nto1_1024", {"ER", "MPI_Gather", "retained"}},
      {"1toN_32", {"LB", "MPI_Bcast", "retained"}},
      {"1toN_1024", {"LB", "MPI_Bcast", "lost"}},
      {"1to1s_32", {"LS", "MPI_Recv", "lost"}},
      {"1to1s_1024", {"LS", "MPI_Recv", "retained"}},
      {"1to1r_32", {"LR", "MPI_Ssend", "lost"}},
      {"1to1r_1024", {"LR", "MPI_Ssend", "retained"}},
      {"NtoN_32", {"NN", "MPI_Allreduce", "retained"}},
      {"NtoN_1024", {"NN", "MPI_Allreduce", "retained"}},
      {"dyn_load_balance", {"NN", "MPI_Alltoall", "degraded"}},
      {"sweep3d_8p", {"LS", "MPI_Recv", "retained"}},
      {"sweep3d_32p", {"LS", "MPI_Recv", "retained"}},
      {"scenario:bursty_phases", {"NN", "MPI_Allreduce", "degraded"}},
      {"scenario:drifting_cost", {"WB", "MPI_Barrier", "retained"}},
      {"scenario:stragglers", {"WB", "MPI_Barrier", "retained"}},
      {"scenario:sparse_ranks", {"LS", "MPI_Recv", "retained"}},
      {"scenario:multi_region", {"NN", "MPI_Allreduce", "retained"}},
      {"scenario:noise_profile", {"NN", "MPI_Allreduce", "retained"}},
      {"scenario:random_walk_cost", {"WB", "MPI_Barrier", "degraded"}},
  };
  return kTable;
}

TEST(AnalysisCli, RegistrySweepDetectsEveryInjectedInefficiency) {
  // The guard: every registered workload must carry an expectation, so
  // adding a registry entry without extending this table fails loudly
  // instead of silently shrinking the sweep.
  const auto& expected = expectations();
  ASSERT_EQ(eval::allWorkloads().size(), expected.size())
      << "workload registry and expectation table disagree — new registry "
         "entries must add a detection expectation here";

  for (const std::string& workload : eval::allWorkloads()) {
    const auto it = expected.find(workload);
    ASSERT_NE(it, expected.end()) << "no expectation for " << workload;
    const Expectation& want = it->second;

    const std::string base = tmpPath("sweep_" + safeName(workload));
    const std::string trf = base + ".trf";
    const std::string trr = base + ".trr";
    ASSERT_EQ(runCli("generate " + workload + " --scale 0.1 --seed 42 --out " + trf)
                  .exitCode, 0) << workload;
    ASSERT_EQ(runCli("reduce " + trf + " --config avgWave@0.2 --out " + trr).exitCode, 0)
        << workload;

    // The headline assertion: the dominant diagnosis read back from the
    // REDUCED trace names the injected inefficiency.
    const CliResult an = runCli("analyze " + trr + " --json");
    ASSERT_EQ(an.exitCode, 0) << workload << "\n" << an.output;
    EXPECT_NE(an.output.find("\"dominantAbbrev\":\"" + std::string(want.abbrev) + "\""),
              std::string::npos) << workload << "\n" << an.output;
    EXPECT_NE(an.output.find("\"dominantCallsite\":\"" + std::string(want.callsite) + "\""),
              std::string::npos) << workload << "\n" << an.output;

    // And the quality verdict is the pinned one, with the exit code keyed
    // to it (1 only for lost trends).
    const CliResult diff = runCli("diff " + trf + " " + trr + " --json");
    EXPECT_EQ(diff.exitCode, want.verdict == std::string("lost") ? 1 : 0)
        << workload << "\n" << diff.output;
    EXPECT_NE(diff.output.find("\"verdict\":\"" + std::string(want.verdict) + "\""),
              std::string::npos) << workload << "\n" << diff.output;

    for (const auto& p : {trf, trr}) std::remove(p.c_str());
  }
}

TEST(AnalysisCli, RegressionModeFlagsInjectedSlowdown) {
  const std::string runA = tmpPath("regress_a.trf");
  const std::string runB = tmpPath("regress_b.trf");
  ASSERT_EQ(runCli("generate scenario:stragglers --scale 0.1 --seed 42 --out " + runA)
                .exitCode, 0);
  ASSERT_EQ(runCli("generate scenario:stragglers --scale 0.1 --seed 42 "
                   "--param slowdown=9 --out " + runB).exitCode, 0);

  // Two full traces: auto mode picks run-A-vs-run-B regression detection.
  const CliResult diff = runCli("diff " + runA + " " + runB);
  EXPECT_EQ(diff.exitCode, 1) << diff.output;
  EXPECT_NE(diff.output.find("regression (run A vs run B)"), std::string::npos)
      << diff.output;
  EXPECT_NE(diff.output.find("REGRESSION"), std::string::npos) << diff.output;
  EXPECT_NE(diff.output.find("WB"), std::string::npos) << diff.output;
  EXPECT_NE(diff.output.find("MPI_Barrier"), std::string::npos) << diff.output;

  // JSON agrees and flags only the wait metric, never raw execution time.
  const CliResult js = runCli("diff " + runA + " " + runB + " --json");
  EXPECT_EQ(js.exitCode, 1);
  EXPECT_NE(js.output.find("\"mode\":\"regression\""), std::string::npos) << js.output;
  EXPECT_EQ(js.output.find("\"regressions\":0"), std::string::npos) << js.output;

  // A run diffed against itself is clean: exit 0, zero regressions.
  const CliResult self = runCli("diff " + runA + " " + runA + " --json");
  EXPECT_EQ(self.exitCode, 0) << self.output;
  EXPECT_NE(self.output.find("\"regressions\":0"), std::string::npos) << self.output;

  // Raising the tolerance above the injected 3x slowdown silences the gate.
  const CliResult loose =
      runCli("diff " + runA + " " + runB + " --severity-tolerance 50 --json");
  EXPECT_EQ(loose.exitCode, 0) << loose.output;

  for (const auto& p : {runA, runB}) std::remove(p.c_str());
}

TEST(AnalysisCli, AnalyzeAndDiffAreByteDeterministic) {
  const std::string trf = tmpPath("det.trf");
  const std::string trr = tmpPath("det.trr");
  const std::string trm = tmpPath("det.trm");
  ASSERT_EQ(runCli("generate sweep3d_8p --scale 0.1 --seed 42 --out " + trf).exitCode, 0);
  ASSERT_EQ(runCli("reduce " + trf + " --config avgWave@0.2 --out " + trr +
                   " --merge --merge-out " + trm).exitCode, 0);

  // Same (trace, flags) -> same bytes, across formats and render modes.
  for (const std::string& args :
       {"analyze " + trf, "analyze " + trr + " --json", "analyze " + trm + " --top 0",
        "diff " + trf + " " + trr, "diff " + trf + " " + trr + " --json",
        "diff " + trf + " " + trf + " --json"}) {
    const CliResult first = runCli(args);
    const CliResult second = runCli(args);
    EXPECT_EQ(first.exitCode, second.exitCode) << args;
    EXPECT_EQ(first.output, second.output) << args;
  }

  // All three on-disk formats of the same run agree on the diagnosis.
  for (const std::string& p : {trr, trm}) {
    const CliResult an = runCli("analyze " + p + " --json");
    ASSERT_EQ(an.exitCode, 0) << an.output;
    EXPECT_NE(an.output.find("\"dominantAbbrev\":\"LS\""), std::string::npos)
        << p << "\n" << an.output;
  }

  for (const auto& p : {trf, trr, trm}) std::remove(p.c_str());
}

/// `analyze --json` output from the "ranks" field on: the cube, without the
/// file name and format.
std::string cubePart(const CliResult& r) {
  const std::size_t at = r.output.find("\"ranks\":");
  return at == std::string::npos ? r.output : r.output.substr(at);
}

// Every feeder of the analyzer core gives the same cube through the CLI:
// a full trace streams the same in binary and text, and a reduced trace's
// exec-table walk equals streaming the full trace it reconstructs to.
TEST(AnalysisCli, EveryFormatAnalyzesToTheSameCube) {
  for (const std::string workload : {"late_receiver", "early_gather", "sweep3d_8p"}) {
    SCOPED_TRACE(workload);
    const std::string trf = tmpPath("formats.trf");
    const std::string txt = tmpPath("formats.txt");
    const std::string trr = tmpPath("formats.trr");
    const std::string approx = tmpPath("formats_approx.trf");
    ASSERT_EQ(runCli("generate " + workload + " --scale 0.1 --seed 42 --out " + trf).exitCode,
              0);
    ASSERT_EQ(runCli("convert " + trf + " --format text --out " + txt).exitCode, 0);
    ASSERT_EQ(runCli("reduce " + trf + " --config avgWave@0.2 --out " + trr).exitCode, 0);
    ASSERT_EQ(runCli("convert " + trr + " --reconstruct --out " + approx).exitCode, 0);
    for (const char* flags : {" --json --top 0", " --json --top 0 --include-init-finalize"}) {
      const CliResult full = runCli("analyze " + trf + flags);
      ASSERT_EQ(full.exitCode, 0) << full.output;
      EXPECT_EQ(cubePart(runCli("analyze " + txt + flags)), cubePart(full));
      const CliResult reduced = runCli("analyze " + trr + flags);
      ASSERT_EQ(reduced.exitCode, 0) << reduced.output;
      EXPECT_EQ(cubePart(runCli("analyze " + approx + flags)), cubePart(reduced));
    }
    for (const auto& p : {trf, txt, trr, approx}) std::remove(p.c_str());
  }
}

TEST(AnalysisCli, DiffRejectsMismatchedRankCounts) {
  const std::string a = tmpPath("mismatch_a.trf");
  const std::string b = tmpPath("mismatch_b.trf");
  ASSERT_EQ(runCli("generate late_sender --scale 0.1 --out " + a).exitCode, 0);    // 8 ranks
  ASSERT_EQ(runCli("generate sweep3d_32p --scale 0.1 --out " + b).exitCode, 0);    // 32 ranks
  // Quality mode funnels into compareTrends, whose rank-count validation
  // must surface as a runtime error naming both counts — not a crash or a
  // silently truncated comparison.
  const CliResult diff = runCli("diff " + a + " " + b + " --mode quality");
  EXPECT_EQ(diff.exitCode, 1) << diff.output;
  EXPECT_NE(diff.output.find("rank count mismatch"), std::string::npos) << diff.output;
  EXPECT_NE(diff.output.find("8"), std::string::npos) << diff.output;
  EXPECT_NE(diff.output.find("32"), std::string::npos) << diff.output;
  for (const auto& p : {a, b}) std::remove(p.c_str());
}

TEST(AnalysisCli, UsageErrorsExitTwoWithGuidance) {
  const std::string trf = tmpPath("usage.trf");
  ASSERT_EQ(runCli("generate late_sender --scale 0.1 --out " + trf).exitCode, 0);

  EXPECT_EQ(runCli("analyze").exitCode, 2);                       // missing operand
  EXPECT_EQ(runCli("analyze " + trf + " --top -1").exitCode, 2);  // negative cell count
  EXPECT_EQ(runCli("diff " + trf).exitCode, 2);                   // one operand only
  const CliResult badMode = runCli("diff " + trf + " " + trf + " --mode bogus");
  EXPECT_EQ(badMode.exitCode, 2);
  EXPECT_NE(badMode.output.find("--mode"), std::string::npos) << badMode.output;
  const CliResult badCorr =
      runCli("diff " + trf + " " + trf + " --correlation-min 2");
  EXPECT_EQ(badCorr.exitCode, 2);
  const CliResult badTol =
      runCli("diff " + trf + " " + trf + " --severity-tolerance -0.5");
  EXPECT_EQ(badTol.exitCode, 2);

  // Runtime failures stay exit 1: absent and malformed inputs.
  EXPECT_EQ(runCli("analyze " + tmpPath("nope_absent.trf")).exitCode, 1);
  EXPECT_EQ(runCli("diff " + trf + " " + tmpPath("nope_absent.trf")).exitCode, 1);

  std::remove(trf.c_str());
}

}  // namespace
}  // namespace tracered
