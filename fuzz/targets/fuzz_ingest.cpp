#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/reduction_session.hpp"
#include "fuzz/fuzz_targets.hpp"
#include "serve/feeder.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_io.hpp"

namespace tracered::fuzz {

namespace {

/// What one ingestion path made of the input: TRR1 bytes, or its rejection.
struct Outcome {
  bool accepted = false;
  std::vector<std::uint8_t> trr;
  std::string error;

  bool operator==(const Outcome& o) const {
    return accepted == o.accepted && (!accepted || trr == o.trr);
  }
  std::string describe() const {
    return accepted ? "accepted (" + std::to_string(trr.size()) + " TRR1 bytes)"
                    : "rejected (" + error + ")";
  }
};

/// Runs one path; the documented rejection types count as a rejection,
/// anything else escapes as a finding.
template <class Fn>
Outcome run(Fn&& reduce) {
  Outcome o;
  try {
    o.trr = serializeReducedTrace(reduce().reduced);
    o.accepted = true;
  } catch (const std::runtime_error& e) {
    o.error = e.what();
  } catch (const std::logic_error& e) {
    o.error = e.what();
  }
  return o;
}

/// The cube's cells as bytes (metric, call site, raw per-rank values), or
/// the rejection message: equal strings mean bit-identical analyses.
template <class Fn>
std::string analysisOf(Fn&& analyze) {
  try {
    std::string out;
    for (const analysis::CubeCell& c : analyze().cells()) {
      out += std::to_string(static_cast<int>(c.metric)) + ":" + std::to_string(c.callsite) + "=";
      out.append(reinterpret_cast<const char*>(c.perRank.data()),
                 c.perRank.size() * sizeof(double));
    }
    return "accepted " + out;
  } catch (const std::runtime_error& e) {
    return std::string("rejected (") + e.what() + ")";
  } catch (const std::logic_error& e) {
    return std::string("rejected (") + e.what() + ")";
  }
}

}  // namespace

int runIngest(const std::uint8_t* data, std::size_t size) {
  const core::ReductionConfig config = core::ReductionConfig::fromName("avgWave@0.2");
  const std::string& path = writeScratchFile(data, size);

  // Library batch path: materialize, segment, reduce.
  const Outcome batch = run([&] {
    const Trace trace = TraceFileReader(path).readAll();
    core::ReductionSession session(trace.names(), config);
    return session.reduce(segmentTrace(trace));
  });

  // `tracered reduce`: the chunked reader feeding a session.
  const Outcome streaming = run([&] {
    TraceFileReader reader(path);
    core::ReductionSession session(reader.names(), config);
    reader.streamRecords([&](Rank rank, const RawRecord& rec) { session.feed(rank, rec); },
                         [&](Rank rank) { session.ensureRank(rank); });
    return session.finish();
  });

  // `tracered serve`: network-sized pushes; the first byte picks the chunk
  // size so the fuzzer explores push-boundary placements.
  const std::size_t chunk = size != 0 ? static_cast<std::size_t>(data[0] % 64) + 1 : 1;
  const Outcome served = run([&] {
    serve::TraceStreamFeeder feeder(config);
    for (std::size_t off = 0; off < size; off += chunk)
      feeder.push(data + off, std::min(chunk, size - off));
    return feeder.finishStream();
  });

  if (!(batch == streaming) || !(batch == served)) {
    std::fprintf(stderr,
                 "ingest: the ingestion paths disagree\n  batch:     %s\n  streaming: %s\n"
                 "  serve:     %s\n",
                 batch.describe().c_str(), streaming.describe().c_str(),
                 served.describe().c_str());
    std::abort();
  }

  // `tracered analyze`: the decoder->segmenter stream must give the
  // whole-trace analysis's cube bit for bit, or reject with its message.
  const std::string whole = analysisOf([&] {
    return analysis::analyze(segmentTrace(TraceFileReader(path).readAll()));
  });
  const std::string streamed = analysisOf([&] {
    TraceFileReader reader(path);
    return analysis::analyzeStream(reader).cube;
  });
  if (whole != streamed) {
    std::fprintf(stderr,
                 "ingest: the whole-trace and streamed analyses disagree\n"
                 "  whole:    %.200s\n  streamed: %.200s\n",
                 whole.c_str(), streamed.c_str());
    std::abort();
  }
  return 0;
}

}  // namespace tracered::fuzz
