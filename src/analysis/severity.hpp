// Severity cube: the KOJAK/EXPERT result model (Sec. 4.3.4, Fig. 4).
//
// EXPERT produces, for every (performance metric, code location, process)
// triple, a severity value — the time lost to that inefficiency pattern at
// that location on that process. CUBE visualizes the cube; the Song et al.
// experiment algebra subtracts cubes to compare experiments. We implement
// the subset the paper's evaluation uses.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/string_table.hpp"
#include "util/time_types.hpp"

namespace tracered::analysis {

/// Performance metrics. The wait metrics mirror the KOJAK pattern names the
/// paper abbreviates in its charts (LS, LR, ER, LB, WB, NN); the time
/// metrics provide the execution-time context (e.g. the do_work disparity of
/// dyn_load_balance shows up in kExecutionTime).
enum class Metric {
  kExecutionTime,   ///< Inclusive time per (function, rank).
  kLateSender,      ///< Blocking receive waiting for a late send. "LS"
  kLateReceiver,    ///< Synchronous send waiting for a late receive. "LR"
  kEarlyReduce,     ///< N-to-1 root waiting before the first sender. "ER"
  kLateBroadcast,   ///< 1-to-N non-root waiting for a late root. "LB"
  kWaitAtBarrier,   ///< Barrier imbalance wait. "WB"
  kWaitAtNxN,       ///< Other N-to-N imbalance wait. "NN"
};

/// All metrics, display helpers.
const std::vector<Metric>& allMetrics();
const char* metricName(Metric m);    ///< "Late Sender", ...
const char* metricAbbrev(Metric m);  ///< "LS", ...
/// True for the wait/inefficiency metrics (everything but execution time).
bool isWaitMetric(Metric m);

/// One (metric, code location) row of the cube with its per-rank severities.
struct CubeCell {
  Metric metric = Metric::kExecutionTime;
  NameId callsite = kInvalidName;
  std::vector<double> perRank;  ///< Severity per rank, µs.

  double total() const;
};

/// The severity cube.
class SeverityCube {
 public:
  explicit SeverityCube(int numRanks = 0) : numRanks_(numRanks) {}

  int numRanks() const { return numRanks_; }

  /// Accumulates `us` onto (metric, callsite, rank).
  void add(Metric metric, NameId callsite, Rank rank, double us);

  /// Accumulates a whole per-rank profile onto (metric, callsite); an absent
  /// cell takes `perRank` as is. Throws std::invalid_argument unless
  /// perRank.size() == numRanks().
  void addProfile(Metric metric, NameId callsite, std::vector<double> perRank);

  /// Per-rank profile for a cell (zeros if absent).
  std::vector<double> profile(Metric metric, NameId callsite) const;

  /// Total severity of a cell.
  double total(Metric metric, NameId callsite) const;

  /// Total severity summed over all callsites of a metric.
  double metricTotal(Metric metric) const;

  /// All cells in deterministic (metric, callsite) order.
  std::vector<CubeCell> cells() const;

  /// The dominant wait-metric cell (highest total severity); callsite ==
  /// kInvalidName in the result if the cube has no wait severity at all.
  CubeCell dominantWait() const;

  /// Song-et-al.-style experiment algebra: this - other (cell-wise). Ranks
  /// must agree. Negative values mean "other" had more severity.
  SeverityCube diff(const SeverityCube& other) const;

 private:
  using Key = std::pair<Metric, NameId>;
  int numRanks_;
  std::map<Key, std::vector<double>> cells_;
};

}  // namespace tracered::analysis
