// Integration tests that shell out to the built `tracered` binary (path
// injected by CMake as TRACERED_CLI_PATH): the generate -> reduce
// --streaming -> info -> eval round trip, byte-identical streaming vs
// offline output, exit codes on malformed input and failed writes, and
// stable --help output.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "trace/trace_io.hpp"
#include "util/table.hpp"
#include "util/version.hpp"

#ifndef TRACERED_CLI_PATH
#error "TRACERED_CLI_PATH must point at the built tracered binary"
#endif
#ifndef TRACERED_CORPUS_DIR
#error "TRACERED_CORPUS_DIR must point at fuzz/corpus/regressions"
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

TEST(TraceredCli, HelpListsEverySubcommandAndIsStable) {
  const CliResult help = runCli("--help");
  EXPECT_EQ(help.exitCode, 0);
  for (const char* cmd : {"generate", "reduce", "info", "convert", "analyze", "diff", "eval"})
    EXPECT_NE(help.output.find(cmd), std::string::npos) << cmd;
  EXPECT_EQ(runCli("--help").output, help.output);  // deterministic

  const CliResult reduceHelp = runCli("reduce --help");
  EXPECT_EQ(reduceHelp.exitCode, 0);
  EXPECT_NE(reduceHelp.output.find("--streaming"), std::string::npos);
  EXPECT_NE(reduceHelp.output.find("--config"), std::string::npos);

  // Single-dash -h must print the same per-command help, not be taken as an
  // input-file operand.
  const CliResult reduceDashH = runCli("reduce -h");
  EXPECT_EQ(reduceDashH.exitCode, 0);
  EXPECT_EQ(reduceDashH.output, reduceHelp.output);

  // No arguments: usage error, help on stderr.
  EXPECT_EQ(runCli("").exitCode, 2);
}

TEST(TraceredCli, GenerateReduceInfoEvalRoundTrip) {
  const std::string trf = tmpPath("cli_app.trf");
  const std::string offline = tmpPath("cli_off.trr");
  const std::string streamed = tmpPath("cli_str.trr");

  const CliResult gen =
      runCli("generate NtoN_32 --scale 0.1 --seed 7 --out " + trf);
  ASSERT_EQ(gen.exitCode, 0) << gen.output;

  const CliResult off =
      runCli("reduce " + trf + " --config avgWave@0.2 --out " + offline);
  ASSERT_EQ(off.exitCode, 0) << off.output;
  // Boolean flag directly before the positional operand: must not swallow it.
  const CliResult str = runCli("reduce --streaming " + trf +
                               " --config avgWave@0.2 --threads 2 --out " + streamed);
  ASSERT_EQ(str.exitCode, 0) << str.output;
  EXPECT_NE(str.output.find("streaming"), std::string::npos) << str.output;
  // The acceptance criterion: streaming output byte-identical to offline.
  EXPECT_EQ(readFile(offline), readFile(streamed));

  const CliResult info = runCli("info " + streamed + " --json");
  EXPECT_EQ(info.exitCode, 0);
  EXPECT_NE(info.output.find("\"format\":\"reduced\""), std::string::npos) << info.output;

  const CliResult ev = runCli("eval " + trf + " " + streamed + " --json");
  EXPECT_EQ(ev.exitCode, 0);
  EXPECT_NE(ev.output.find("\"degreeOfMatching\""), std::string::npos) << ev.output;
  EXPECT_NE(ev.output.find("\"verdict\""), std::string::npos) << ev.output;

  for (const auto& p : {trf, offline, streamed}) std::remove(p.c_str());
}

/// The value of the report-table row `key`, trimmed; "" when absent.
std::string reportRow(const std::string& output, const std::string& key) {
  std::size_t at = 0;
  while ((at = output.find(key, at)) != std::string::npos) {
    if (at == 0 || output[at - 1] == '\n') {
      const std::size_t end = output.find('\n', at);
      std::string value = output.substr(at + key.size(), end - at - key.size());
      value.erase(0, value.find_first_not_of(' '));
      value.erase(value.find_last_not_of(' ') + 1);
      return value;
    }
    at += key.size();
  }
  return "";
}

// Each output is serialized once and its size reported: the byte rows are
// the sizes of the files written.
TEST(TraceredCli, ReportedByteRowsAreTheWrittenFileSizes) {
  const std::string trf = tmpPath("cli_bytes.trf");
  const std::string trr = tmpPath("cli_bytes.trr");
  const std::string trm = tmpPath("cli_bytes.trm");
  ASSERT_EQ(runCli("generate late_sender --scale 0.1 --out " + trf).exitCode, 0);
  const CliResult red =
      runCli("reduce " + trf + " --merge --out " + trr + " --merge-out " + trm);
  ASSERT_EQ(red.exitCode, 0) << red.output;
  EXPECT_EQ(reportRow(red.output, "reduced bytes"), fmtBytes(readFile(trr).size()))
      << red.output;
  EXPECT_EQ(reportRow(red.output, "merged bytes"), fmtBytes(readFile(trm).size()))
      << red.output;
  EXPECT_EQ(reportRow(red.output, "full trace bytes"), fmtBytes(readFile(trf).size()))
      << red.output;
  for (const auto& p : {trf, trr, trm}) std::remove(p.c_str());
}

TEST(TraceredCli, ScenarioGenerateIsDeterministicAndParameterized) {
  const std::string s1 = tmpPath("cli_scen1.trf");
  const std::string s2 = tmpPath("cli_scen2.trf");
  const std::string s3 = tmpPath("cli_scen3.trf");

  // --scenario <name>, the scenario:<name> operand, and the bare <name>
  // operand are the same factory; identical (spec, scale, seed) must write
  // byte-identical TRF1.
  const CliResult a =
      runCli("generate --scenario bursty_phases --scale 0.1 --seed 5 --out " + s1);
  ASSERT_EQ(a.exitCode, 0) << a.output;
  const CliResult b =
      runCli("generate scenario:bursty_phases --scale 0.1 --seed 5 --out " + s2);
  ASSERT_EQ(b.exitCode, 0) << b.output;
  EXPECT_EQ(readFile(s1), readFile(s2));
  const CliResult bare =
      runCli("generate bursty_phases --scale 0.1 --seed 5 --out " + s2);
  ASSERT_EQ(bare.exitCode, 0) << bare.output;
  EXPECT_EQ(readFile(s1), readFile(s2));
  // Whichever spelling, the report names the registered entry.
  EXPECT_NE(bare.output.find("scenario:bursty_phases"), std::string::npos) << bare.output;

  // A --param override changes the trace (and info still understands it).
  const CliResult c = runCli(
      "generate --scenario bursty_phases --scale 0.1 --seed 5 "
      "--param burst_factor=9 --param burst_len=6 --out " + s3);
  ASSERT_EQ(c.exitCode, 0) << c.output;
  EXPECT_NE(readFile(s1), readFile(s3));
  const CliResult info = runCli("info " + s3 + " --json");
  EXPECT_EQ(info.exitCode, 0);
  EXPECT_NE(info.output.find("\"ranks\":8"), std::string::npos) << info.output;

  // --params prints the declared parameter table.
  const CliResult params = runCli("generate --scenario bursty_phases --params");
  EXPECT_EQ(params.exitCode, 0);
  EXPECT_NE(params.output.find("burst_factor"), std::string::npos) << params.output;

  for (const auto& p : {s1, s2, s3}) std::remove(p.c_str());
}

TEST(TraceredCli, ScenarioUsageErrorsGetSuggestionsAndExitTwo) {
  const std::string out = tmpPath("cli_scen_err.trf");
  // Unknown scenario: did-you-mean, before --out is even required.
  const CliResult unknown = runCli("generate --scenario bursty_phase");
  EXPECT_EQ(unknown.exitCode, 2);
  EXPECT_NE(unknown.output.find("bursty_phases"), std::string::npos) << unknown.output;

  // Unknown parameter key: nearest-candidate suggestion.
  const CliResult badKey = runCli(
      "generate --scenario bursty_phases --param burst_fctor=2 --out " + out);
  EXPECT_EQ(badKey.exitCode, 2);
  EXPECT_NE(badKey.output.find("burst_factor"), std::string::npos) << badKey.output;

  // The bare-operand typo must get the same suggestion as the prefixed one.
  const CliResult bareTypo = runCli("generate bursty_phase --out " + out);
  EXPECT_EQ(bareTypo.exitCode, 2);
  EXPECT_NE(bareTypo.output.find("bursty_phases"), std::string::npos) << bareTypo.output;

  // Malformed, out-of-range, and fractional-count values, and --param on a
  // non-scenario.
  EXPECT_EQ(runCli("generate --scenario bursty_phases --param burst_factor=abc --out " +
                   out).exitCode, 2);
  EXPECT_EQ(runCli("generate --scenario stragglers --param ranks=0 --out " + out).exitCode,
            2);
  EXPECT_EQ(runCli("generate --scenario stragglers --param ranks=8.5 --out " + out).exitCode,
            2);
  EXPECT_EQ(runCli("generate late_sender --param x=1 --out " + out).exitCode, 2);
  // Invalid scale is a usage error for every workload kind.
  EXPECT_EQ(runCli("generate late_sender --scale 0 --out " + out).exitCode, 2);
  EXPECT_EQ(runCli("generate --scenario stragglers --scale -1 --out " + out).exitCode, 2);
  // The registry listing covers the scenario: namespace.
  const CliResult list = runCli("generate --list");
  EXPECT_EQ(list.exitCode, 0);
  EXPECT_NE(list.output.find("scenario:sparse_ranks"), std::string::npos) << list.output;
  std::remove(out.c_str());
}

TEST(TraceredCli, ConvertRoundTripsBinaryThroughText) {
  const std::string trf = tmpPath("cli_conv.trf");
  const std::string txt = tmpPath("cli_conv.txt");
  const std::string back = tmpPath("cli_conv2.trf");
  ASSERT_EQ(runCli("generate late_sender --scale 0.1 --out " + trf).exitCode, 0);
  ASSERT_EQ(runCli("convert " + trf + " --format text --out " + txt).exitCode, 0);
  ASSERT_EQ(runCli("convert " + txt + " --format binary --out " + back).exitCode, 0);
  EXPECT_EQ(readFile(trf), readFile(back));
  for (const auto& p : {trf, txt, back}) std::remove(p.c_str());
}

// The text format holds only dense rank ids 0..n-1. Converting a sparse TRF1
// to text fails, and the failed write leaves no file behind: the truncated
// text it would have left parses as a valid trace that silently lost ranks.
TEST(TraceredCli, FailedTextConvertLeavesNoOutput) {
  const std::string trf =
      std::string(TRACERED_CORPUS_DIR) + "/ingest/trf1_sparse_and_idle_ranks.bin";
  const std::string txt = tmpPath("cli_sparse.txt");
  std::remove(txt.c_str());
  const CliResult conv = runCli("convert " + trf + " --format text --out " + txt);
  EXPECT_EQ(conv.exitCode, 1) << conv.output;
  EXPECT_NE(conv.output.find("text format requires rank ids in 0..2, got 3"),
            std::string::npos)
      << conv.output;
  EXPECT_FALSE(std::filesystem::exists(txt));
}

TEST(TraceredCli, ExitCodesDistinguishUsageFromRuntimeErrors) {
  // Unknown subcommand and unknown flag: usage errors (2), with suggestions.
  const CliResult badCmd = runCli("reduec foo.trf");
  EXPECT_EQ(badCmd.exitCode, 2);
  EXPECT_NE(badCmd.output.find("did you mean 'reduce'"), std::string::npos);

  const CliResult analyseTypo = runCli("analyse foo.trf");
  EXPECT_EQ(analyseTypo.exitCode, 2);
  EXPECT_NE(analyseTypo.output.find("did you mean 'analyze'"), std::string::npos)
      << analyseTypo.output;

  const CliResult badFlag = runCli("reduce foo.trf --confg avgWave");
  EXPECT_EQ(badFlag.exitCode, 2);
  EXPECT_NE(badFlag.output.find("did you mean --config"), std::string::npos);

  EXPECT_EQ(runCli("reduce").exitCode, 2);                      // missing operand
  EXPECT_EQ(runCli("generate nope --out x.trf").exitCode, 2);   // unknown workload

  // A typo'd method spec is an unparseable flag value: usage error, not 1.
  const CliResult badConfig = runCli("reduce foo.trf --config bogus");
  EXPECT_EQ(badConfig.exitCode, 2);
  EXPECT_NE(badConfig.output.find("unknown method 'bogus'"), std::string::npos);

  // So is a non-numeric value for a numeric flag — never silently 0.
  const CliResult badThreads = runCli("reduce foo.trf --threads abc");
  EXPECT_EQ(badThreads.exitCode, 2);
  EXPECT_NE(badThreads.output.find("bad --threads value"), std::string::npos);

  // A value-taking flag with no value — trailing or followed by another
  // flag — must be rejected rather than silently treated as the boolean
  // "true" (which would write a file named true).
  const CliResult trailingOut = runCli("reduce foo.trf --out");
  EXPECT_EQ(trailingOut.exitCode, 2);
  EXPECT_NE(trailingOut.output.find("requires a value"), std::string::npos);
  const CliResult outThenFlag = runCli("reduce foo.trf --out --streaming");
  EXPECT_EQ(outThenFlag.exitCode, 2);
  EXPECT_NE(outThenFlag.output.find("requires a value"), std::string::npos);

  // Runtime failures (1): missing and malformed input files.
  EXPECT_EQ(runCli("info " + tmpPath("cli_absent.trf")).exitCode, 1);
  const std::string garbage = tmpPath("cli_garbage.trf");
  writeFile(garbage, {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(runCli("info " + garbage).exitCode, 1);
  EXPECT_EQ(runCli("reduce " + garbage + " --streaming").exitCode, 1);
  std::remove(garbage.c_str());
}

// Integer flags are range-checked when parsed: a value that would be
// narrowed, wrapped or turned into an enormous worker count is a usage error
// (exit 2) naming the flag and its range. Every case is rejected before any
// file is opened, socket bound or pool started, so none of these values is
// ever acted on.
TEST(TraceredCli, OutOfRangeIntegerFlagsAreUsageErrors) {
  const std::string sock = "unix:" + tmpPath("cli_range.sock");
  const struct {
    std::string args;
    std::string message;
  } cases[] = {
      // static_cast<int> made this 1: a silent serial run.
      {"reduce foo.trf --threads 4294967297",
       "--threads must be in [0, 1024] (got 4294967297)"},
      // ... and this negative, i.e. "hardware concurrency".
      {"reduce foo.trf --threads 2147483648",
       "--threads must be in [0, 1024] (got 2147483648)"},
      {"reduce foo.trf --threads -1", "--threads must be in [0, 1024] (got -1)"},
      {"reduce foo.trf --merge --merge-shard 0",
       "--merge-shard must be in [1, 2147483647] (got 0)"},
      // Narrowed to a 1 ms connect budget.
      {"reduce foo.trf --remote " + sock + " --connect-timeout-ms 4294967297",
       "--connect-timeout-ms must be in [0, 2147483647] (got 4294967297)"},
      // Wrapped to 2^64-1 traces.
      {"serve --listen " + sock + " --max-traces -1",
       "--max-traces must be in [0, 9223372036854775807] (got -1)"},
      // Would ask the shared pool for 100,000 workers on the first finish.
      {"serve --listen " + sock + " --threads 100000",
       "--threads must be in [0, 1024] (got 100000)"},
      {"serve --listen " + sock + " --window 100",
       "--window must be in [4096, 1073741824] (got 100)"},
      {"serve --listen " + sock + " --max-clients 0",
       "--max-clients must be in [1, 2147483647] (got 0)"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.args);
    const CliResult r = runCli(c.args);
    EXPECT_EQ(r.exitCode, 2) << r.output;
    EXPECT_NE(r.output.find(c.message), std::string::npos) << r.output;
  }
}

TEST(TraceredCli, InfoReportsIdleRanks) {
  const std::string txt = tmpPath("cli_idle.txt");
  {
    FILE* f = std::fopen(txt.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# tracered text trace v1\nranks 3\nstring 0 main.1\nrank 1\nB 10 0\nE 20 0\n",
               f);
    std::fclose(f);
  }
  const CliResult info = runCli("info " + txt);
  EXPECT_EQ(info.exitCode, 0);
  EXPECT_NE(info.output.find("idle ranks"), std::string::npos);
  EXPECT_NE(info.output.find("2"), std::string::npos);
  std::remove(txt.c_str());
}

// Rank ids need not be dense: a trace with ranks {0, 3} plus an idle rank
// analyzes, reduces, analyzes reduced and diffs without indexing by raw id.
TEST(TraceredCli, AnalyzeAndDiffAcceptSparseRankIds) {
  const std::string trf =
      std::string(TRACERED_CORPUS_DIR) + "/ingest/trf1_sparse_and_idle_ranks.bin";
  const std::string trr = tmpPath("cli_sparse.trr");

  const CliResult full = runCli("analyze " + trf);
  EXPECT_EQ(full.exitCode, 0) << full.output;
  EXPECT_NE(full.output.find("ranks          3"), std::string::npos) << full.output;

  ASSERT_EQ(runCli("reduce " + trf + " --out " + trr).exitCode, 0);
  const CliResult reduced = runCli("analyze " + trr + " --json");
  EXPECT_EQ(reduced.exitCode, 0) << reduced.output;

  const CliResult diff = runCli("diff " + trf + " " + trr);
  EXPECT_EQ(diff.exitCode, 0) << diff.output;
  EXPECT_NE(diff.output.find("retained"), std::string::npos) << diff.output;
  std::remove(trr.c_str());
}

TEST(TraceredCli, GenerateListsWorkloads) {
  const CliResult list = runCli("generate --list");
  EXPECT_EQ(list.exitCode, 0);
  for (const char* w : {"late_sender", "dyn_load_balance", "sweep3d_32p"})
    EXPECT_NE(list.output.find(w), std::string::npos) << w;
}

TEST(TraceredCli, VersionFlagPrintsTheSameLineEverywhere) {
  // One version string for the whole tool — the same line the serve daemon
  // quotes in protocol-version-mismatch errors (util/version.hpp).
  const std::string expected = std::string(util::kVersionLine) + "\n";
  const CliResult top = runCli("--version");
  EXPECT_EQ(top.exitCode, 0);
  EXPECT_EQ(top.output, expected);
  for (const char* sub :
       {"generate", "reduce", "info", "convert", "analyze", "diff", "eval", "serve"}) {
    const CliResult r = runCli(std::string(sub) + " --version");
    EXPECT_EQ(r.exitCode, 0) << sub;
    EXPECT_EQ(r.output, expected) << sub;
  }
}

TEST(TraceredCli, ClosedStdoutIsAWriteErrorNotASignalDeath) {
  // Writing into a closed stdout must surface as exit 1 (SIGPIPE is
  // ignored, write failures are checked), never a signal kill — the shell
  // would report that as 128+SIGPIPE=141.
  {
    const std::string cmd =
        std::string(TRACERED_CLI_PATH) + " --help >&- 2>/dev/null; echo EXIT:$?";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    pclose(pipe);
    EXPECT_NE(out.find("EXIT:1"), std::string::npos) << out;
  }
  // And a reader that vanishes mid-write (head closes the pipe) is the same
  // story: the generate writer sees EPIPE as a failed write, exits 1.
  {
    const std::string status = tmpPath("cli_sigpipe_status");
    const std::string cmd = "( " + std::string(TRACERED_CLI_PATH) +
                            " generate late_sender --scale 8 --out /dev/stdout"
                            " 2>/dev/null; echo $? > " + status +
                            " ) | head -c 64 >/dev/null";
    ASSERT_NE(std::system(cmd.c_str()), -1);
    FILE* f = std::fopen(status.c_str(), "r");
    ASSERT_NE(f, nullptr);
    int rc = -1;
    ASSERT_EQ(std::fscanf(f, "%d", &rc), 1);
    std::fclose(f);
    EXPECT_EQ(rc, 1) << "expected a write-error exit, not a SIGPIPE death";
    std::remove(status.c_str());
  }
}

TEST(TraceredCli, ServeDaemonRoundTripMatchesBatchReduce) {
  const std::string trf = tmpPath("cli_serve.trf");
  const std::string batch = tmpPath("cli_serve_batch.trr");
  const std::string remote = tmpPath("cli_serve_remote.trr");
  const std::string sock = tmpPath("cli_serve.sock");
  std::remove(sock.c_str());

  ASSERT_EQ(runCli("generate late_sender --scale 0.3 --seed 9 --out " + trf).exitCode, 0);
  ASSERT_EQ(runCli("reduce " + trf + " --config avgWave@0.2 --out " + batch).exitCode, 0);

  // One-shot daemon in the background (exits after serving one trace); the
  // client's --connect-timeout-ms retries until the socket is up.
  const std::string serveCmd = std::string(TRACERED_CLI_PATH) + " serve --listen unix:" +
                               sock + " --max-traces 1 >/dev/null 2>&1 &";
  ASSERT_EQ(std::system(serveCmd.c_str()), 0);

  const CliResult rem =
      runCli("reduce " + trf + " --remote unix:" + sock +
             " --config avgWave@0.2 --connect-timeout-ms 10000 --out " + remote);
  ASSERT_EQ(rem.exitCode, 0) << rem.output;
  EXPECT_NE(rem.output.find("mode"), std::string::npos);

  EXPECT_EQ(readFile(batch), readFile(remote))
      << "remote reduction must be byte-identical to the batch path";
  for (const std::string& p : {trf, batch, remote, sock}) std::remove(p.c_str());
}

bool haveDevFull() { return access("/dev/full", W_OK) == 0; }

void expectFullDiskError(const CliResult& r, const std::string& what) {
  EXPECT_EQ(r.exitCode, 1) << what << "\n" << r.output;
  EXPECT_NE(r.output.find("write failed: /dev/full"), std::string::npos)
      << what << "\n" << r.output;
  EXPECT_EQ(r.output.find("wrote /dev/full"), std::string::npos) << what;
}

// A write that fails (here: a full disk) is a runtime error naming the path,
// never "wrote <path>" and exit 0 — for --out and --merge-out, offline and
// streaming.
TEST(TraceredCli, FullDiskOutputIsARuntimeError) {
  if (!haveDevFull()) GTEST_SKIP() << "/dev/full is not available";
  const std::string trf = tmpPath("cli_full.trf");
  ASSERT_EQ(runCli("generate late_sender --scale 0.3 --seed 9 --out " + trf).exitCode, 0);
  for (const std::string flags :
       {"--out /dev/full", "--streaming --out /dev/full",
        "--merge --merge-out /dev/full", "--streaming --merge --merge-out /dev/full"})
    expectFullDiskError(runCli("reduce " + trf + " --config avgWave@0.2 " + flags), flags);
  std::remove(trf.c_str());
}

// The same for a reduction served by a daemon: the result arrives intact,
// the local write fails.
TEST(TraceredCli, FullDiskRemoteOutputIsARuntimeError) {
  if (!haveDevFull()) GTEST_SKIP() << "/dev/full is not available";
  const std::string trf = tmpPath("cli_full_remote.trf");
  const std::string sock = tmpPath("cli_full_remote.sock");
  std::remove(sock.c_str());
  ASSERT_EQ(runCli("generate late_sender --scale 0.3 --seed 9 --out " + trf).exitCode, 0);
  const std::string serveCmd = std::string(TRACERED_CLI_PATH) + " serve --listen unix:" +
                               sock + " --max-traces 1 >/dev/null 2>&1 &";
  ASSERT_EQ(std::system(serveCmd.c_str()), 0);
  expectFullDiskError(runCli("reduce " + trf + " --remote unix:" + sock +
                             " --config avgWave@0.2 --connect-timeout-ms 10000"
                             " --out /dev/full"),
                      "--remote --out /dev/full");
  for (const std::string& p : {trf, sock}) std::remove(p.c_str());
}

}  // namespace
}  // namespace tracered
