// perfbench_probe — the in-process half of the repository benchmark.
//
// run.py drives this binary; every subcommand prints one JSON object on its
// last stdout line. The probe times the benchmark's own calls into each
// module's public functions (it never reaches inside src/), so a span here is
// "time spent in this call", measured from outside the layer.
//
//   perfbench_probe spin   --threads N
//   perfbench_probe sweep  --in F --threads N --seconds S [--tier off]
//   perfbench_probe layers --in F --threads N --work DIR
//   perfbench_probe merge  --in F --threads N --trm FILE
//   perfbench_probe load   --addr A --schedule FILE --payload KIND=FILE...
//                          --conns N [--trace]
//
// Spans record name, start, end, parent and request id; they are kept in
// memory and written out with the result when the subcommand ends.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/compare.hpp"
#include "core/cross_rank.hpp"
#include "core/reconstruct.hpp"
#include "core/reduction_session.hpp"
#include "serve/client.hpp"
#include "trace/segmenter.hpp"
#include "trace/trace_file.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/executor.hpp"
#include "util/hash.hpp"

namespace tracered::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

double nowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kOrigin).count();
}

// The workload configs every subcommand shares; run.py passes the same
// spellings to the CLI, so in-process and CLI outputs are comparable bytes.
const char* const kReduceConfig = "avgWave@0.2";
const char* const kMergeConfig = "avgWave@0.02";
constexpr std::size_t kMergeShardRanks = 64;  // the CLI's --merge-shard default
// Calibration spin per thread: long enough that thread start-up is noise.
constexpr double kSpinTargetMs = 150.0;
// Sweep set-ups per run; run.py takes the median of both tiers' set-ups.
constexpr int kSweepSetups = 2;

struct Span {
  std::string name;
  double startMs;
  double endMs;
  int parent;
  long req;
};

// Span recorder. Disabled, begin()/end() cost one branch, which is what the
// traced-vs-untraced overhead measurement compares.
class Tracer {
 public:
  bool enabled = false;

  int begin(const std::string& name) {
    if (!enabled) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, nowMs(), 0.0, parent, -1});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void end(int index) {
    if (index < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].endMs = nowMs();
    stack_.pop_back();
  }

  // A finished span recorded by a worker thread (no nesting across threads).
  void add(Span span) {
    if (!enabled) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
  }

  std::string json() const {
    std::ostringstream out;
    out << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "[\"" << s.name << "\"," << fmt(s.startMs) << ','
          << fmt(s.endMs) << ',' << s.parent << ',' << s.req << ']';
    }
    out << ']';
    return out.str();
  }

  static std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return buf;
  }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer gTracer;

class Scoped {
 public:
  explicit Scoped(const std::string& name) : index_(gTracer.begin(name)) {}
  ~Scoped() { gTracer.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  int index_;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string jsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += Tracer::fmt(values[i]);
  }
  return out + "]";
}

void emit(const std::string& body) {
  std::printf("{%s,\"spans\":%s}\n", body.c_str(), gTracer.json().c_str());
}

// ------------------------------------------------------------------ spin --
// Calibration row: the same fixed spin per thread at 1..N threads. Perfect
// scaling keeps the wall constant; speedup_k = k * t1 / t_k.
double spinWall(int threads, std::uint64_t iters) {
  std::atomic<std::uint64_t> sink{0};
  const double t0 = nowMs();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t);
      for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      sink += x;
    });
  for (std::thread& th : pool) th.join();
  return nowMs() - t0;
}

int cmdSpin(const CliArgs& args) {
  const int maxThreads = static_cast<int>(args.getInt("threads", 4));
  std::uint64_t iters = 1u << 20;
  while (spinWall(1, iters) < kSpinTargetMs / 8) iters *= 2;
  iters = static_cast<std::uint64_t>(static_cast<double>(iters) * kSpinTargetMs /
                                     spinWall(1, iters));
  std::vector<int> counts = {1};
  if (maxThreads > 2) counts.push_back(2);
  if (maxThreads > 1) counts.push_back(maxThreads);
  std::string body = "\"walls_ms\":{";
  for (int k : counts)
    body += (k > 1 ? ",\"" : "\"") + std::to_string(k) + "\":" + Tracer::fmt(spinWall(k, iters));
  emit(body + "}");
  return 0;
}

// ----------------------------------------------------------------- sweep --
struct Prepared {
  Trace trace;
  SegmentedTrace segmented;
  analysis::SeverityCube fullCube;
};

Prepared prepare(const std::string& path) {
  Prepared p;
  p.trace = TraceFileReader(path).readAll();
  p.segmented = segmentTrace(p.trace);
  p.fullCube = analysis::analyze(p.segmented);
  return p;
}

struct MethodOutcome {
  std::string method;
  std::uint64_t fnv = 0;
  std::string verdict;
  core::ReductionResult result;
  std::size_t bytes = 0;
};

// The paper's evaluation loop for one method: reduce at its paper threshold,
// serialize, reconstruct, analyze, compare trends against the full trace.
MethodOutcome evaluateMethod(const Prepared& p, core::Method m, util::Executor& pool,
                             core::AccelerationTier tier) {
  MethodOutcome out;
  out.method = core::methodName(m);
  core::ReductionConfig config = core::ReductionConfig::defaults(m).withExecutor(pool);
  config.acceleration = tier;
  core::ReductionSession session(p.trace.names(), config);
  {
    Scoped s("core.match_" + out.method);
    out.result = session.reduce(p.segmented);
  }
  std::vector<std::uint8_t> bytes;
  {
    Scoped s("trace.serialize");
    bytes = serializeReducedTrace(out.result.reduced);
  }
  out.fnv = util::fnv1a64(bytes);
  out.bytes = bytes.size();
  SegmentedTrace rebuilt;
  {
    Scoped s("core.reconstruct");
    rebuilt = core::reconstruct(out.result.reduced);
  }
  analysis::SeverityCube cube;
  {
    Scoped s("analysis.analyze");
    cube = analysis::analyze(rebuilt);
  }
  {
    Scoped s("analysis.compare");
    out.verdict = analysis::verdictName(analysis::compareTrends(p.fullCube, cube).verdict);
  }
  {
    // Releasing the reconstructed trace is part of what reconstruct costs.
    Scoped s("core.reconstruct");
    rebuilt = SegmentedTrace{};
  }
  return out;
}

std::string countersJson(const std::string& key,
                         const std::vector<const core::ReductionResult*>& results) {
  core::ReductionStats stats;
  core::MatchCounters counters;
  for (const core::ReductionResult* r : results) {
    stats.merge(r->stats);
    counters.merge(r->counters);
  }
  std::ostringstream out;
  out << '"' << key << "\":{\"segments\":" << stats.totalSegments
      << ",\"stored_reps\":" << stats.storedSegments
      << ",\"degree_of_matching\":" << Tracer::fmt(stats.degreeOfMatching())
      << ",\"reps_scanned\":" << counters.comparisons
      << ",\"reps_visited\":" << counters.indexVisited
      << ",\"index_prune_rate\":" << Tracer::fmt(counters.indexPruneRate())
      << ",\"pivot_evals\":" << counters.pivotDistEvals << '}';
  return out.str();
}

std::string sweepJson(const std::vector<MethodOutcome>& outcomes) {
  std::string out = "\"methods\":[";
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    out += (i ? "," : "") + ("[\"" + outcomes[i].method + "\",\"" + hex64(outcomes[i].fnv) +
                             "\",\"" + outcomes[i].verdict + "\"," +
                             std::to_string(outcomes[i].bytes) + "]");
  return out + "]";
}

std::vector<MethodOutcome> runSweep(const Prepared& p, util::Executor& pool,
                                    core::AccelerationTier tier = core::AccelerationTier::kIndexed) {
  std::vector<MethodOutcome> outcomes;
  for (core::Method m : core::allMethods())
    outcomes.push_back(evaluateMethod(p, m, pool, tier));
  return outcomes;
}

bool sameOutcomes(const std::vector<MethodOutcome>& a, const std::vector<MethodOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].fnv != b[i].fnv || a[i].verdict != b[i].verdict) return false;
  return true;
}

int cmdSweep(const CliArgs& args) {
  const std::string in = args.get("in");
  const double seconds = args.getDouble("seconds", 5.0);
  util::PooledExecutor pool(static_cast<int>(args.getInt("threads", 1)));
  // `--tier off` runs the literal Sec. 3.1 comparison with no match index
  // or pre-filter: the contrast that bypasses the index.
  const core::AccelerationTier tier = args.get("tier") == "off" ? core::AccelerationTier::kOff
                                                                 : core::AccelerationTier::kIndexed;

  // Set-up is decode + segment + full-trace analysis, repeated so its median
  // is steady; the last preparation is the one the sweeps use.
  std::vector<double> setupMs;
  Prepared p;
  for (int i = 0; i < kSweepSetups; ++i) {
    const double t0 = nowMs();
    p = prepare(in);
    setupMs.push_back(nowMs() - t0);
  }

  // One untimed warm-up sweep, then timed sweeps for `seconds` (at least
  // one); every sweep's outcomes must match the first.
  std::vector<double> sweepMs;
  std::vector<MethodOutcome> first = runSweep(p, pool, tier);
  bool consistent = true;
  const double start = nowMs();
  do {
    const double t0 = nowMs();
    const std::vector<MethodOutcome> outcomes = runSweep(p, pool, tier);
    sweepMs.push_back(nowMs() - t0);
    consistent = consistent && sameOutcomes(first, outcomes);
  } while (nowMs() - start < seconds * 1000.0);

  emit("\"setup_ms\":" + jsonList(setupMs) + ",\"sweep_ms\":" + jsonList(sweepMs) +
       ",\"consistent\":" + (consistent ? "true" : "false") + "," + sweepJson(first));
  return 0;
}

// ----------------------------------------------------------------- merge --
core::MergeResult mergeAt(const ReducedTrace& reduced, util::Executor& pool) {
  core::MergeOptions options;
  options.config = core::ReductionConfig::fromName(kMergeConfig).withExecutor(pool);
  options.shardRanks = kMergeShardRanks;
  core::CrossRankMerger merger(options);
  merger.addTrace(reduced);
  return merger.finish();
}

core::ReductionResult reduceOffline(const Prepared& p, util::Executor& pool) {
  core::ReductionSession session(p.trace.names(),
                                 core::ReductionConfig::fromName(kReduceConfig).withExecutor(pool));
  return session.reduce(p.segmented);
}

// The offline reduction of a whole trace file: the reference the CLI's merge
// output and the daemon's replies are checked against.
core::ReductionResult reduceFile(const std::string& path, util::Executor& pool) {
  Prepared p;
  p.trace = TraceFileReader(path).readAll();
  p.segmented = segmentTrace(p.trace);
  return reduceOffline(p, pool);
}

// The CLI's --merge-out TRM1 must equal the in-process CrossRankMerger
// output at 1 and at N threads.
int cmdMerge(const CliArgs& args) {
  const std::string in = args.get("in");
  util::PooledExecutor pool(static_cast<int>(args.getInt("threads", 1)));
  util::PooledExecutor serial(1);
  const core::ReductionResult reduced = reduceFile(in, pool);
  const std::vector<std::uint8_t> cli = readFile(args.get("trm"));
  const bool nt = serializeMergedTrace(mergeAt(reduced.reduced, pool).merged) == cli;
  const bool one = serializeMergedTrace(mergeAt(reduced.reduced, serial).merged) == cli;
  emit(std::string("\"match_nt\":") + (nt ? "true" : "false") +
       ",\"match_1t\":" + (one ? "true" : "false"));
  return 0;
}

// ---------------------------------------------------------------- layers --
// One streaming pass: stream-decode the file into a session, finish,
// serialize, write. Returns the TRR1 bytes.
std::vector<std::uint8_t> streamingPass(const std::string& in, const std::string& out,
                                        util::Executor& pool) {
  Scoped pass("pass.stream");
  TraceFileReader reader(in);
  core::ReductionSession session(reader.names(),
                                 core::ReductionConfig::fromName(kReduceConfig).withExecutor(pool));
  {
    Scoped s("core.feed_pass");
    reader.streamRecords([&](Rank rank, const RawRecord& rec) { session.feed(rank, rec); },
                         [&](Rank rank) { session.ensureRank(rank); });
  }
  core::ReductionResult result;
  {
    Scoped s("core.finish");
    result = session.finish();
  }
  std::vector<std::uint8_t> bytes;
  {
    Scoped s("trace.serialize");
    bytes = serializeReducedTrace(result.reduced);
  }
  {
    Scoped s("trace.write");
    writeFile(out, bytes);
  }
  return bytes;
}

int cmdLayers(const CliArgs& args) {
  const std::string in = args.get("in");
  const std::string work = args.get("work");
  util::PooledExecutor pool(static_cast<int>(args.getInt("threads", 1)));
  util::PooledExecutor serial(1);
  bool streamMatchesOffline = false;
  bool mergeMatches1t = false;

  // Tracing overhead: the same streaming pass untraced and traced,
  // alternating, three times each.
  std::vector<double> offMs, onMs;
  for (int i = 0; i < 3; ++i)
    for (bool on : {false, true}) {
      gTracer.enabled = on;
      const double t0 = nowMs();
      streamingPass(in, work + "/overhead.trr", pool);
      (on ? onMs : offMs).push_back(nowMs() - t0);
    }
  gTracer.enabled = true;
  gTracer.clear();

  std::size_t records = 0;
  {
    Scoped s("trace.decode_stream");
    TraceFileReader reader(in);
    reader.streamRecords([&](Rank, const RawRecord&) { ++records; });
  }
  const std::vector<std::uint8_t> streamed = streamingPass(in, work + "/stream.trr", pool);

  Prepared p;
  core::ReductionResult offline;
  {
    Scoped pass("pass.offline");
    {
      Scoped s("trace.decode_materialize");
      p.trace = TraceFileReader(in).readAll();
    }
    {
      Scoped s("trace.segment");
      p.segmented = segmentTrace(p.trace);
    }
    {
      Scoped s("core.match");
      offline = reduceOffline(p, pool);
    }
    std::vector<std::uint8_t> bytes;
    {
      Scoped s("trace.serialize");
      bytes = serializeReducedTrace(offline.reduced);
    }
    {
      Scoped s("trace.write");
      writeFile(work + "/offline.trr", bytes);
    }
    streamMatchesOffline = bytes == streamed;
  }

  core::MergeResult merged;
  std::size_t mergedBytes = 0;
  {
    Scoped pass("pass.merge");
    {
      Scoped s("core.merge");
      merged = mergeAt(offline.reduced, pool);
    }
    core::MergeResult mergedSerial;
    {
      Scoped s("core.merge_1t");
      mergedSerial = mergeAt(offline.reduced, serial);
    }
    std::vector<std::uint8_t> bytes;
    {
      Scoped s("trace.serialize");
      bytes = serializeMergedTrace(merged.merged);
    }
    {
      Scoped s("trace.write");
      writeFile(work + "/merged.trm", bytes);
    }
    mergedBytes = bytes.size();
    mergeMatches1t = serializeMergedTrace(mergedSerial.merged) == bytes;
  }

  {
    Scoped s("analysis.analyze_full");
    p.fullCube = analysis::analyze(p.segmented);
  }
  std::vector<MethodOutcome> outcomes;
  {
    Scoped pass("pass.sweep");
    outcomes = runSweep(p, pool);
  }
  std::size_t retained = 0;
  std::vector<const core::ReductionResult*> sweepResults;
  for (const MethodOutcome& o : outcomes) {
    retained += o.verdict == "retained";
    sweepResults.push_back(&o.result);
  }

  std::string body = "\"records\":" + std::to_string(records) +
                     ",\"segments\":" + std::to_string(p.segmented.totalSegments()) +
                     ",\"reduced_bytes\":" + std::to_string(streamed.size()) +
                     ",\"merged_bytes\":" + std::to_string(mergedBytes) +
                     ",\"merge_in_reps\":" + std::to_string(merged.stats.inputRepresentatives) +
                     ",\"merge_out_reps\":" +
                     std::to_string(merged.stats.mergedRepresentatives) +
                     ",\"merge_pivot_evals\":" +
                     std::to_string(merged.stats.counters.pivotDistEvals) +
                     ",\"retained_methods\":" + std::to_string(retained) +
                     ",\"overhead_off_ms\":" + jsonList(offMs) +
                     ",\"overhead_on_ms\":" + jsonList(onMs) + "," + sweepJson(outcomes) + "," +
                     countersJson("counts", {&offline}) + "," +
                     countersJson("sweep_counts", sweepResults) +
                     ",\"stream_matches_offline\":" + (streamMatchesOffline ? "true" : "false") +
                     ",\"merge_matches_1t\":" + (mergeMatches1t ? "true" : "false");
  emit(body);
  return 0;
}

// ------------------------------------------------------------------ load --
// Open-loop serve load: requests are due at scheduled times (ms from the
// phase origin) and at most `conns` are in flight. Each record carries the
// raw timestamps; run.py derives latency (end - scheduled) and generator
// lateness from them.
struct Request {
  double dueMs;
  std::string kind;
};

int cmdLoad(const CliArgs& args) {
  gTracer.enabled = args.getBool("trace");
  const std::string addr = args.get("addr");
  const int conns = static_cast<int>(args.getInt("conns", 1));

  util::PooledExecutor serial(1);
  std::map<std::string, std::vector<std::uint8_t>> payloads, expected;
  for (const std::string& spec : args.getAll("payload")) {
    const std::size_t eq = spec.find('=');
    const std::string kind = spec.substr(0, eq), path = spec.substr(eq + 1);
    payloads[kind] = readFile(path);
    expected[kind] = serializeReducedTrace(reduceFile(path, serial).reduced);
  }

  // One untimed warm-up round trip per payload kind, so the daemon's pool
  // and buffers are up before the schedule's clock starts.
  bool warmupOk = true;
  for (const auto& [kind, data] : payloads)
    warmupOk = serve::reduceRemote(addr, kReduceConfig, data.data(), data.size()).trrBytes ==
                   expected.at(kind) &&
               warmupOk;

  std::vector<Request> schedule;
  {
    std::ifstream in(args.get("schedule"));
    Request r;
    while (in >> r.dueMs >> r.kind) {
      if (payloads.count(r.kind) == 0) throw std::runtime_error("unknown payload " + r.kind);
      schedule.push_back(r);
    }
  }

  struct Record {
    double pick = 0, start = 0, end = 0, finishMs = -1;
    bool ok = false;
  };
  std::vector<Record> records(schedule.size());
  std::vector<std::string> errors;
  std::mutex errorsMutex;
  std::atomic<std::size_t> next{0};
  const double origin = nowMs() + 20.0;  // lets every worker start before t=0

  std::vector<std::thread> workers;
  for (int w = 0; w < conns; ++w)
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < schedule.size(); i = next++) {
        Record& rec = records[i];
        rec.pick = nowMs() - origin;
        const double wait = schedule[i].dueMs - rec.pick;
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
        rec.start = nowMs() - origin;
        try {
          const std::vector<std::uint8_t>& data = payloads.at(schedule[i].kind);
          const serve::RemoteReduceResult reply =
              serve::reduceRemote(addr, kReduceConfig, data.data(), data.size());
          rec.end = nowMs() - origin;
          rec.ok = reply.trrBytes == expected.at(schedule[i].kind);
          for (const auto& [key, value] : reply.statsRows)
            if (key == "reduce wall ms") rec.finishMs = std::stod(value);
          if (!rec.ok) throw std::runtime_error("reply differs from the offline reduction");
        } catch (const std::exception& e) {
          if (rec.end == 0) rec.end = nowMs() - origin;
          std::lock_guard<std::mutex> lock(errorsMutex);
          errors.push_back(e.what());
        }
        gTracer.add({"serve.rtt", origin + rec.start, origin + rec.end, -1,
                     static_cast<long>(i)});
      }
    });
  for (std::thread& t : workers) t.join();

  std::string body = "\"requests\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    body += (i ? "," : "") + ("[\"" + schedule[i].kind + "\"," + Tracer::fmt(schedule[i].dueMs) +
                              "," + Tracer::fmt(r.pick) + "," + Tracer::fmt(r.start) + "," +
                              Tracer::fmt(r.end) + "," + Tracer::fmt(r.finishMs) + "," +
                              (r.ok ? "true" : "false") + "]");
  }
  body += std::string("],\"warmup_ok\":") + (warmupOk ? "true" : "false");
  if (!errors.empty()) std::fprintf(stderr, "perfbench_probe: first error: %s\n", errors[0].c_str());
  emit(body);
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench_probe <spin|sweep|layers|merge|load> ...");
  const std::string cmd = argv[1];
  const CliArgs args(argc - 1, argv + 1, {"trace"});
  if (cmd == "spin") return cmdSpin(args);
  if (cmd == "sweep") return cmdSweep(args);
  if (cmd == "layers") return cmdLayers(args);
  if (cmd == "merge") return cmdMerge(args);
  if (cmd == "load") return cmdLoad(args);
  throw std::invalid_argument("unknown subcommand '" + cmd + "'");
}

}  // namespace
}  // namespace tracered::perfbench

int main(int argc, char** argv) {
  try {
    return tracered::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
}
