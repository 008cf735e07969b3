// tracered analyze — the EXPERT/KOJAK-style diagnosis (Sec. 4.3.4) of any
// on-disk trace: full TRF1/text traces stream through the segmenter, reduced
// TRR1 and merged TRM1 files are analyzed from their exec tables, as the
// traces they reconstruct to (Sec. 4.3.3), so the same command answers
// "what is wrong with this run?" before and after reduction. Output (table
// or JSON) is built from analysis/report rows and is byte-deterministic
// given (trace, flags).
#include <cstdio>
#include <string>

#include "commands.hpp"

#include "analysis/analyzer.hpp"
#include "analysis/report.hpp"
#include "analysis/severity.hpp"
#include "util/table.hpp"

namespace tracered::tools {

namespace {

int runAnalyze(const CliArgs& args) {
  const std::string path = requirePositional(args, 0, "<trace>");
  const bool json = args.getBool("json");
  const std::int64_t top = args.getInt("top", 12);
  if (top < 0) throw UsageError("bad --top (expected a non-negative cell count)");
  analysis::AnalyzerOptions aopts;
  aopts.includeInitFinalize = args.getBool("include-init-finalize");

  const AnalyzedFile in = analyzeFile(path, aopts);
  const analysis::SeverityCube& cube = in.cube;
  const std::vector<analysis::CubeReportRow> rows =
      analysis::cubeReportRows(cube, in.names, static_cast<std::size_t>(top));
  const analysis::CubeCell dom = cube.dominantWait();
  const std::string domCallsite =
      dom.callsite == kInvalidName ? "-" : in.names.name(dom.callsite);

  if (json) {
    std::printf("{\"file\":\"%s\",\"format\":\"%s\",\"ranks\":%d,\"segments\":%zu,",
                jsonEscape(path).c_str(), formatName(in.format), cube.numRanks(),
                in.segments);
    if (dom.callsite == kInvalidName) {
      std::printf("\"dominantMetric\":null,");
    } else {
      std::printf(
          "\"dominantMetric\":\"%s\",\"dominantAbbrev\":\"%s\","
          "\"dominantCallsite\":\"%s\",\"dominantTotalUs\":%.3f,",
          analysis::metricName(dom.metric), analysis::metricAbbrev(dom.metric),
          jsonEscape(domCallsite).c_str(), dom.total());
    }
    std::printf("\"cells\":[");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const analysis::CubeReportRow& r = rows[i];
      std::printf(
          "%s{\"metric\":\"%s\",\"abbrev\":\"%s\",\"callsite\":\"%s\","
          "\"totalUs\":%.3f,\"maxRankUs\":%.3f,\"perRank\":\"%s\"}",
          i == 0 ? "" : ",", analysis::metricName(r.metric),
          analysis::metricAbbrev(r.metric), jsonEscape(r.callsite).c_str(), r.totalUs,
          r.maxRankUs, jsonEscape(r.perRank).c_str());
    }
    std::printf("]}\n");
    return 0;
  }

  TextTable head;
  head.header({"criterion", "value"});
  head.row({"trace", path + " (" + formatName(in.format) + ")"});
  head.row({"ranks", std::to_string(cube.numRanks())});
  head.row({"segments", std::to_string(in.segments)});
  if (dom.callsite == kInvalidName)
    head.row({"dominant wait", "- (no wait severity)"});
  else
    head.row({"dominant wait", std::string(analysis::metricName(dom.metric)) + " @ " +
                                   domCallsite + " (" + fmtF(dom.total() / 1e6, 3) +
                                   " s)"});
  std::printf("%s\n", head.str().c_str());

  TextTable t;
  t.header({"metric", "call site", "total (s)", "per-rank (0-9 vs row max)"});
  for (const analysis::CubeReportRow& r : rows)
    t.row({analysis::metricAbbrev(r.metric), r.callsite, fmtF(r.totalUs / 1e6, 3),
           "[" + r.perRank + "]"});
  std::printf("%s", t.str().c_str());
  return 0;
}

}  // namespace

CliCommand makeAnalyzeCommand() {
  CliCommand c;
  c.name = "analyze";
  c.usage = "analyze <trace> [--json] [--top <n>] [--include-init-finalize]";
  c.summary = "diagnose a trace file with the severity-cube analysis (Sec. 4.3.4)";
  c.flags = {
      {"json", "", "emit one JSON object instead of tables"},
      {"top", "<n>", "cube cells to show, by total severity (default 12; 0 = all)"},
      {"include-init-finalize", "",
       "count MPI_Init/MPI_Finalize skew as Wait-at-Barrier severity"},
  };
  c.run = runAnalyze;
  return c;
}

}  // namespace tracered::tools
