// The reduction report: the (criterion, value) rows every front end shows
// for one completed reduction.
//
// `tracered reduce` prints these rows as a table, and the serve daemon sends
// the SAME rows back in its STATS frame — one definition, so the remote
// path's report can never drift from the batch path's (tested: a remote
// reduce and a local reduce of the same file produce identical rows).
// Everything here is deterministic given (config, result, records,
// fullBytes); non-deterministic extras (wall-clock ms, input path, mode)
// are appended by the caller.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/cross_rank.hpp"
#include "core/reducer.hpp"
#include "core/reduction_config.hpp"

namespace tracered::core {

using ReportRows = std::vector<std::pair<std::string, std::string>>;

/// The summary rows: config, ranks, records, segments, stored, matches,
/// degree of matching, byte counts and file %. `fullBytes` of 0 means the
/// full-trace size is unknown (rows render as "-").
ReportRows reductionReportRows(const ReductionConfig& config,
                               const ReductionResult& result, std::size_t records,
                               std::size_t fullBytes);

/// The matching-cost instrumentation rows behind `--stats`: representatives
/// scanned / index behavior (docs/CLI.md documents each).
/// `prefix` labels the rows ("merge " for the merge stage's counters, so they
/// never collide with the reduction's own rows in one table).
ReportRows matchCounterRows(const MatchCounters& counters, const std::string& prefix = "");

/// The cross-rank merge-stage rows behind `--merge`: merge config, shard
/// size, representatives in/out, merge ratio, merged-trace bytes. With
/// `--stats`, callers append matchCounterRows(result.stats.counters,
/// "merge ") after these.
ReportRows mergeReportRows(const MergeOptions& options, const MergeResult& result);

}  // namespace tracered::core
