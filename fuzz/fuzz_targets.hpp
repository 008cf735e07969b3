// Fuzz target functions for every surface that parses untrusted bytes.
//
// Each target takes one arbitrary byte string and must be crash-free on ALL
// inputs: documented rejection exceptions (std::runtime_error and friends —
// the contract every parser advertises) are caught and count as a clean
// rejection; anything else that escapes — a sanitizer report, std::bad_alloc
// from an attacker-controlled allocation, an unexpected exception type, an
// assertion — is a finding.
//
// The same functions are driven three ways (CMakeLists "fuzz" section):
//   * fuzz_<name>      libFuzzer harness (Clang, -DTRACERED_FUZZ=ON)
//   * fuzz_replay      deterministic replay of fuzz/corpus/regressions/<name>/
//                      (every compiler; registered as the fuzz_corpus_replay
//                      ctest so past crashers stay permanent regression tests)
//   * fuzz_gen_seeds   writes well-formed seed corpora for the fuzzers
//
// Workflow for a new crasher: drop the input into
// fuzz/corpus/regressions/<target>/, fix the defect, and the replay ctest
// pins it forever (docs/DEVELOPMENT.md has the full recipe).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tracered::fuzz {

using TargetFn = int (*)(const std::uint8_t* data, std::size_t size);

struct TargetInfo {
  const char* name;  ///< corpus subdirectory + harness binary suffix
  TargetFn fn;
};

/// Every registered target, in deterministic order.
const std::vector<TargetInfo>& allTargets();

/// Lookup by name; nullptr when unknown.
TargetFn targetByName(const char* name);

/// Writes the input to this process's scratch file and returns its path, for
/// targets whose surface reads from a path (libFuzzer is single-process; the
/// replay driver reuses the file serially). TMPDIR is honored.
const std::string& writeScratchFile(const std::uint8_t* data, std::size_t size);

/// TraceFileReader over TRF1 + text, whole (readAll) and chunked
/// (streamRecords at a tiny chunk size), plus the whole-buffer
/// deserializeFullTrace — the `tracered reduce/info/convert` input surface.
int runTraceFile(const std::uint8_t* data, std::size_t size);

/// deserializeMergedTrace (TRM1) and deserializeReducedTrace (TRR1), with a
/// serialize/deserialize fixpoint check on accepted inputs.
int runTrm1(const std::uint8_t* data, std::size_t size);

/// Differential ingestion: the same bytes through the library batch path
/// (TraceFileReader::readAll + segmentTrace + ReductionSession::reduce), the
/// CLI's streaming path (streamRecords + feed) and the serve
/// TraceStreamFeeder (chunk size from the first byte). Aborts unless all
/// three accept with byte-identical TRR1 or all three reject, and unless
/// the streamed analysis (analyzeStream) and the whole-trace one agree on
/// every cube bit or on the rejection message.
int runIngest(const std::uint8_t* data, std::size_t size);

/// TextTraceParser: whole-string traceFromText plus line-at-a-time feeding.
int runText(const std::uint8_t* data, std::size_t size);

/// serve wire surface: tryExtractFrame + typed payload decoders over the
/// byte stream, then TraceStreamFeeder fed the same bytes in chunks.
int runServe(const std::uint8_t* data, std::size_t size);

/// ReductionConfig::fromName, with a toString round-trip check on accepted
/// spellings.
int runReductionConfig(const std::uint8_t* data, std::size_t size);

/// The severity-cube path over arbitrary TRR1 bytes: deserialize -> analyze
/// -> compareTrends/render/report rows — the `tracered analyze`/`diff` input
/// surface. Differential: aborts unless the exec-table walk and
/// analyze(reconstruct(...)) (expansion-bounded) both accept with
/// bit-identical cubes or both reject with the same exception class and
/// message.
int runAnalyze(const std::uint8_t* data, std::size_t size);

}  // namespace tracered::fuzz
