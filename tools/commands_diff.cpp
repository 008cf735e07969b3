// tracered diff — the detection loop's gate, in two modes selected by what
// the second operand is (or forced with --mode):
//
//   quality    <full> <reduced|merged>: does the reduced trace still support
//              the full trace's diagnosis? compareTrends (Sec. 4.3.4) with a
//              retained/degraded/lost verdict; exit 0/0/1.
//   regression <run-A> <run-B>: did run B get worse than run A? Cube
//              subtraction per (metric, call-site) cell with configurable
//              thresholds; exit 1 iff a wait-metric cell regressed.
//
// Both modes map their thresholds from TrendCompareOptions flags, analyze
// either operand through the shared any-format analyzeFile (one operand at
// a time, so peak memory is the larger analysis, not both), and render from
// analysis/report rows — byte-deterministic given (traces, flags).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "commands.hpp"

#include "analysis/analyzer.hpp"
#include "analysis/compare.hpp"
#include "analysis/report.hpp"
#include "util/table.hpp"

namespace tracered::tools {

namespace {

/// The TrendCompareOptions surface as flags; shared by both modes (the
/// regression mode uses the severity tolerance and significance floor).
analysis::TrendCompareOptions trendOptionsFromFlags(const CliArgs& args) {
  analysis::TrendCompareOptions opts;
  opts.severityTolerance = args.getDouble("severity-tolerance", opts.severityTolerance);
  opts.degradedTolerance = args.getDouble("degraded-tolerance", opts.degradedTolerance);
  opts.correlationMin = args.getDouble("correlation-min", opts.correlationMin);
  opts.cvNonUniform = args.getDouble("cv-nonuniform", opts.cvNonUniform);
  opts.spuriousFraction = args.getDouble("spurious-fraction", opts.spuriousFraction);
  opts.insignificantFraction =
      args.getDouble("insignificant-fraction", opts.insignificantFraction);
  opts.negativeFraction = args.getDouble("negative-fraction", opts.negativeFraction);
  opts.significanceFloorUs =
      args.getDouble("significance-floor-us", opts.significanceFloorUs);
  opts.execDisparityFraction =
      args.getDouble("exec-disparity-fraction", opts.execDisparityFraction);
  const std::pair<const char*, double> nonNegative[] = {
      {"severity-tolerance", opts.severityTolerance},
      {"degraded-tolerance", opts.degradedTolerance},
      {"cv-nonuniform", opts.cvNonUniform},
      {"spurious-fraction", opts.spuriousFraction},
      {"insignificant-fraction", opts.insignificantFraction},
      {"negative-fraction", opts.negativeFraction},
      {"significance-floor-us", opts.significanceFloorUs},
      {"exec-disparity-fraction", opts.execDisparityFraction},
  };
  for (const auto& [flag, value] : nonNegative) {
    if (!(value >= 0.0))
      throw UsageError(std::string("bad --") + flag + " (expected a value >= 0)");
  }
  if (!(opts.correlationMin >= -1.0) || !(opts.correlationMin <= 1.0))
    throw UsageError("bad --correlation-min (expected a value in [-1, 1])");
  return opts;
}

const char* jsonBool(bool b) { return b ? "true" : "false"; }

int runQuality(const std::string& fullPath, const AnalyzedFile& full,
               const std::string& reducedPath, const AnalyzedFile& reduced,
               const analysis::TrendCompareOptions& opts, bool json) {
  const analysis::SeverityCube& fullCube = full.cube;
  // The two files may have interned their name tables in different orders;
  // compare in the full trace's name space.
  StringTable names = full.names;
  const analysis::SeverityCube reducedCube =
      analysis::remapCallsites(reduced.cube, reduced.names, names);
  const analysis::TrendComparison trends =
      analysis::compareTrends(fullCube, reducedCube, opts);
  const std::string callsite = trends.dominantCallsite == kInvalidName
                                   ? "-"
                                   : names.name(trends.dominantCallsite);

  if (json) {
    std::printf(
        "{\"mode\":\"quality\",\"full\":\"%s\",\"reduced\":\"%s\",\"ranks\":%d,"
        "\"verdict\":\"%s\",\"reason\":\"%s\",\"dominantMetric\":\"%s\","
        "\"dominantAbbrev\":\"%s\",\"dominantCallsite\":\"%s\","
        "\"severityFullUs\":%.3f,\"severityReducedUs\":%.3f,\"relError\":%.6f,"
        "\"correlation\":%.6f,\"dominantChanged\":%s,\"disparityLost\":%s,"
        "\"spuriousDiagnosis\":%s,\"negativeDiagnosis\":%s}\n",
        jsonEscape(fullPath).c_str(), jsonEscape(reducedPath).c_str(),
        fullCube.numRanks(), analysis::verdictName(trends.verdict),
        jsonEscape(trends.reason).c_str(), analysis::metricName(trends.dominantMetric),
        analysis::metricAbbrev(trends.dominantMetric), jsonEscape(callsite).c_str(),
        trends.fullTotal, trends.reducedTotal, trends.relError, trends.correlation,
        jsonBool(trends.dominantChanged), jsonBool(trends.disparityLost),
        jsonBool(trends.spuriousDiagnosis), jsonBool(trends.negativeDiagnosis));
  } else {
    TextTable t;
    t.header({"criterion", "value"});
    t.row({"mode", "quality (full vs reduced)"});
    t.row({"full trace", fullPath + " (" + formatName(full.format) + ")"});
    t.row({"reduced trace", reducedPath + " (" + formatName(reduced.format) + ")"});
    for (const auto& [k, v] : analysis::trendReportRows(trends, names)) t.row({k, v});
    std::printf("%s", t.str().c_str());
  }
  return trends.verdict == analysis::Verdict::kLost ? 1 : 0;
}

int runRegression(const std::string& basePath, const AnalyzedFile& base,
                  const std::string& candPath, const AnalyzedFile& cand,
                  const analysis::TrendCompareOptions& opts, bool json) {
  const analysis::SeverityCube& baseCube = base.cube;
  const analysis::SeverityCube& candCube = cand.cube;
  const analysis::RegressionOptions ropts{opts.severityTolerance,
                                          opts.significanceFloorUs};
  const std::vector<analysis::DeltaReportRow> rows =
      analysis::deltaReportRows(baseCube, base.names, candCube, cand.names, ropts);
  std::size_t regressions = 0;
  for (const analysis::DeltaReportRow& r : rows) regressions += r.regression ? 1 : 0;

  if (json) {
    std::printf(
        "{\"mode\":\"regression\",\"baseline\":\"%s\",\"candidate\":\"%s\","
        "\"ranks\":%d,\"severityToleranceUsed\":%.6f,\"significanceFloorUs\":%.3f,"
        "\"regressions\":%zu,\"cells\":[",
        jsonEscape(basePath).c_str(), jsonEscape(candPath).c_str(), baseCube.numRanks(),
        ropts.severityTolerance, ropts.significanceFloorUs, regressions);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const analysis::DeltaReportRow& r = rows[i];
      std::printf(
          "%s{\"metric\":\"%s\",\"abbrev\":\"%s\",\"callsite\":\"%s\","
          "\"baselineUs\":%.3f,\"candidateUs\":%.3f,\"deltaUs\":%.3f,"
          "\"relDelta\":%.6f,\"regression\":%s}",
          i == 0 ? "" : ",", analysis::metricName(r.metric),
          analysis::metricAbbrev(r.metric), jsonEscape(r.callsite).c_str(), r.baselineUs,
          r.candidateUs, r.deltaUs, r.relDelta, jsonBool(r.regression));
    }
    std::printf("]}\n");
  } else {
    TextTable head;
    head.header({"criterion", "value"});
    head.row({"mode", "regression (run A vs run B)"});
    head.row({"baseline", basePath + " (" + formatName(base.format) + ")"});
    head.row({"candidate", candPath + " (" + formatName(cand.format) + ")"});
    head.row({"regressions", std::to_string(regressions)});
    std::printf("%s\n", head.str().c_str());

    TextTable t;
    t.header({"metric", "call site", "A (s)", "B (s)", "delta (s)", "delta %", "flag"});
    for (const analysis::DeltaReportRow& r : rows)
      t.row({analysis::metricAbbrev(r.metric), r.callsite, fmtF(r.baselineUs / 1e6, 3),
             fmtF(r.candidateUs / 1e6, 3), fmtF(r.deltaUs / 1e6, 3),
             fmtF(100.0 * r.relDelta, 1), r.regression ? "REGRESSION" : ""});
    std::printf("%s", t.str().c_str());
  }
  return regressions > 0 ? 1 : 0;
}

int runDiff(const CliArgs& args) {
  const std::string pathA = requirePositional(args, 0, "<full | run-A trace>");
  const std::string pathB = requirePositional(args, 1, "<reduced | run-B trace>");
  const bool json = args.getBool("json");
  const std::string mode = args.get("mode", "auto");
  if (mode != "auto" && mode != "quality" && mode != "regression")
    throw UsageError("bad --mode '" + mode +
                     "' (expected 'auto', 'quality', or 'regression')");
  const analysis::TrendCompareOptions opts = trendOptionsFromFlags(args);
  analysis::AnalyzerOptions aopts;
  aopts.includeInitFinalize = args.getBool("include-init-finalize");

  const AnalyzedFile a = analyzeFile(pathA, aopts);
  const AnalyzedFile b = analyzeFile(pathB, aopts);

  // Auto mode: a reduced/merged second operand is a reduction of the first
  // (quality question); a full second operand is another run (regression
  // question).
  const bool quality =
      mode == "quality" ||
      (mode == "auto" && (b.format == TraceFileFormat::kReducedBinary ||
                          b.format == TraceFileFormat::kMergedBinary));
  if (quality) return runQuality(pathA, a, pathB, b, opts, json);
  return runRegression(pathA, a, pathB, b, opts, json);
}

}  // namespace

CliCommand makeDiffCommand() {
  CliCommand c;
  c.name = "diff";
  c.usage = "diff <full|run-A> <reduced|run-B> [--json] [--mode <m>] [thresholds]";
  c.summary = "quality-gate a reduction, or detect regressions between two runs";
  c.flags = {
      {"json", "", "emit one JSON object instead of tables"},
      {"mode", "<m>", "auto|quality|regression (default auto: reduced/merged "
                      "second operand selects quality)"},
      {"include-init-finalize", "",
       "count MPI_Init/MPI_Finalize skew as Wait-at-Barrier severity"},
      {"severity-tolerance", "<f>",
       "relative severity error/worsening tolerated (default 0.25)"},
      {"degraded-tolerance", "<f>",
       "quality: relative error above which the verdict is lost (default 0.75)"},
      {"correlation-min", "<f>",
       "quality: minimum per-rank profile correlation (default 0.90)"},
      {"cv-nonuniform", "<f>",
       "quality: coefficient of variation above which a profile is shaped "
       "(default 0.25)"},
      {"spurious-fraction", "<f>",
       "quality: reduced cell vs dominant fraction that counts as spurious "
       "(default 0.50)"},
      {"insignificant-fraction", "<f>",
       "quality: 'insignificant in full' bound for spurious cells (default 0.10)"},
      {"negative-fraction", "<f>",
       "quality: underestimation marked as a negative diagnosis (default 0.25)"},
      {"significance-floor-us", "<f>",
       "total severity below which a cell is no problem (default 1000)"},
      {"exec-disparity-fraction", "<f>",
       "quality: exec-time cells at least this fraction of total are "
       "shape-checked (default 0.20)"},
  };
  c.run = runDiff;
  return c;
}

}  // namespace tracered::tools
