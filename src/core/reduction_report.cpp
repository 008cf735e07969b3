#include "core/reduction_report.hpp"

#include "trace/trace_io.hpp"
#include "util/table.hpp"

namespace tracered::core {

ReportRows reductionReportRows(const ReductionConfig& config,
                               const ReductionResult& result, std::size_t records,
                               std::size_t fullBytes) {
  const std::size_t reducedBytes = reducedTraceSize(result.reduced);
  ReportRows rows;
  rows.emplace_back("config", config.toString());
  rows.emplace_back("ranks", std::to_string(result.reduced.ranks.size()));
  rows.emplace_back("records", std::to_string(records));
  rows.emplace_back("segments", std::to_string(result.stats.totalSegments));
  rows.emplace_back("stored", std::to_string(result.stats.storedSegments));
  rows.emplace_back("matches", std::to_string(result.stats.matches));
  rows.emplace_back("degree of matching", fmtF(result.stats.degreeOfMatching(), 3));
  rows.emplace_back("full trace bytes", fullBytes == 0 ? "-" : fmtBytes(fullBytes));
  rows.emplace_back("reduced bytes", fmtBytes(reducedBytes));
  rows.emplace_back("file %", fullBytes == 0
                                  ? "-"
                                  : fmtPct(100.0 * static_cast<double>(reducedBytes) /
                                           static_cast<double>(fullBytes)));
  return rows;
}

ReportRows matchCounterRows(const MatchCounters& counters, const std::string& prefix) {
  ReportRows rows;
  rows.emplace_back(prefix + "reps scanned", std::to_string(counters.comparisons));
  rows.emplace_back(prefix + "reps visited (exact)", std::to_string(counters.indexVisited));
  rows.emplace_back(prefix + "index pruned", std::to_string(counters.indexPruned));
  rows.emplace_back(prefix + "index prune rate", fmtPct(100.0 * counters.indexPruneRate()));
  rows.emplace_back(prefix + "pivot distance evals", std::to_string(counters.pivotDistEvals));
  return rows;
}

ReportRows mergeReportRows(const MergeOptions& options, const MergeResult& result) {
  ReportRows rows;
  rows.emplace_back("merge config", options.config.toString());
  rows.emplace_back("merge shard ranks", std::to_string(options.shardRanks));
  rows.emplace_back("merge input reps", std::to_string(result.stats.inputRepresentatives));
  rows.emplace_back("merge output reps", std::to_string(result.stats.mergedRepresentatives));
  rows.emplace_back("merge ratio", fmtF(result.stats.mergeRatio(), 3));
  rows.emplace_back("merged bytes", fmtBytes(mergedTraceSize(result.merged)));
  return rows;
}

}  // namespace tracered::core
