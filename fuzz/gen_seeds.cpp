// Seed-corpus generator: writes one small, WELL-FORMED input per format into
// <out-dir>/<target>/, produced by the same golden-corpus generators the
// scenario_golden_test pins (fixed workload names, scale, seed — the output
// is deterministic). The fuzzers mutate from these; nothing here is a crash
// input (the committed crashers live in fuzz/corpus/regressions/).
//
//   fuzz_gen_seeds <out-dir>
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/cross_rank.hpp"
#include "core/reduction_config.hpp"
#include "core/reduction_session.hpp"
#include "eval/workloads.hpp"
#include "serve/protocol.hpp"
#include "trace/segmenter.hpp"
#include "trace/text_io.hpp"
#include "trace/trace_io.hpp"

namespace {

namespace fs = std::filesystem;
using namespace tracered;

void writeSeed(const fs::path& dir, const std::string& name,
               const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(dir);
  const fs::path p = dir / name;
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) {
    std::fprintf(stderr, "fuzz_gen_seeds: cannot write %s\n", p.string().c_str());
    std::exit(1);
  }
  std::printf("%s (%zu bytes)\n", p.string().c_str(), bytes.size());
}

std::vector<std::uint8_t> strBytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: fuzz_gen_seeds <out-dir>\n");
    return 2;
  }
  const fs::path out = argv[1];

  // Tiny but structurally rich traces: a paper benchmark and a scenario
  // generator, at the golden corpus's seed.
  const eval::WorkloadOptions opts{/*scale=*/0.05, /*seed=*/42};
  const std::vector<std::string> workloads = {eval::allWorkloads().front(),
                                              "scenario:multi_region"};

  std::size_t i = 0;
  for (const std::string& name : workloads) {
    const Trace trace = eval::runWorkload(name, opts);
    const std::string tag = "seed_" + std::to_string(i++);

    // trace_file: TRF1 bytes and the text rendering (the reader sniffs both).
    writeSeed(out / "trace_file", tag + "_trf1.bin", serializeFullTrace(trace));
    writeSeed(out / "trace_file", tag + "_text.txt", strBytes(traceToText(trace)));
    writeSeed(out / "text", tag + ".txt", strBytes(traceToText(trace)));
    // ingest: the same bytes, which every ingestion path must reduce alike.
    writeSeed(out / "ingest", tag + "_trf1.bin", serializeFullTrace(trace));
    writeSeed(out / "ingest", tag + "_text.txt", strBytes(traceToText(trace)));

    // trm1: reduce then cross-rank merge; also drop the TRR1 bytes (the
    // harness exercises both deserializers).
    const core::ReductionConfig config = core::ReductionConfig::fromName("avgWave@0.2");
    core::ReductionSession session(trace.names(), config);
    const ReducedTrace reduced = session.reduce(segmentTrace(trace)).reduced;
    writeSeed(out / "trm1", tag + "_trr1.bin", serializeReducedTrace(reduced));
    const core::MergeResult merge =
        core::mergeAcrossRanks(reduced, core::MergeOptions{config, /*shardRanks=*/4});
    writeSeed(out / "trm1", tag + "_trm1.bin", serializeMergedTrace(merge.merged));

    // analyze: the severity-cube target mutates from the same TRR1 bytes
    // (its accept set is the TRR1 deserializer's; the interesting depth is
    // what reconstruct->analyze does after acceptance).
    writeSeed(out / "analyze", tag + "_trr1.bin", serializeReducedTrace(reduced));

    // serve: a complete, well-formed client conversation (HELLO, the TRF1
    // bytes as DATA frames, END) — exactly what a connection's input ring
    // sees; the feeder leg of the harness reads the raw DATA payload too.
    std::vector<std::uint8_t> convo;
    serve::appendFrame(convo, serve::FrameType::kHello,
                       serve::encodeHello({serve::kProtocolVersion, "avgWave@0.2"}));
    const std::vector<std::uint8_t> trf1 = serializeFullTrace(trace);
    for (std::size_t off = 0; off < trf1.size(); off += serve::kMaxFramePayload) {
      const std::size_t n = std::min(serve::kMaxFramePayload, trf1.size() - off);
      serve::appendFrame(convo, serve::FrameType::kData, trf1.data() + off, n);
    }
    serve::appendFrame(convo, serve::FrameType::kEnd, nullptr, 0);
    writeSeed(out / "serve", tag + "_session.bin", convo);
  }

  // serve: the server->client frames too.
  std::vector<std::uint8_t> replies;
  serve::appendFrame(replies, serve::FrameType::kWelcome,
                     serve::encodeWelcome({serve::kProtocolVersion, 1 << 16}));
  serve::appendFrame(replies, serve::FrameType::kAck, serve::encodeAck(4096));
  serve::appendFrame(replies, serve::FrameType::kStats,
                     serve::encodeStats({{"segments", "12"}, {"stored", "3"}}));
  serve::appendFrame(replies, serve::FrameType::kError, serve::encodeError("bad config"));
  writeSeed(out / "serve", "seed_replies.bin", replies);

  // reduction_config: one spelling per accepted shape.
  writeSeed(out / "reduction_config", "seed_wave.txt", strBytes("avgWave@0.2"));
  writeSeed(out / "reduction_config", "seed_iter_k.txt", strBytes("iter_k@3"));
  writeSeed(out / "reduction_config", "seed_default.txt", strBytes("Euclidean"));
  return 0;
}
