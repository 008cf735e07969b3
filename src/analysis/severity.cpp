#include "analysis/severity.hpp"

#include <stdexcept>
#include <utility>

namespace tracered::analysis {

const std::vector<Metric>& allMetrics() {
  static const std::vector<Metric> kAll = {
      Metric::kExecutionTime, Metric::kLateSender,    Metric::kLateReceiver,
      Metric::kEarlyReduce,   Metric::kLateBroadcast, Metric::kWaitAtBarrier,
      Metric::kWaitAtNxN,
  };
  return kAll;
}

const char* metricName(Metric m) {
  switch (m) {
    case Metric::kExecutionTime: return "Execution Time";
    case Metric::kLateSender: return "Late Sender";
    case Metric::kLateReceiver: return "Late Receiver";
    case Metric::kEarlyReduce: return "Early Reduce";
    case Metric::kLateBroadcast: return "Late Broadcast";
    case Metric::kWaitAtBarrier: return "Wait at Barrier";
    case Metric::kWaitAtNxN: return "Wait at NxN";
  }
  return "unknown";
}

const char* metricAbbrev(Metric m) {
  switch (m) {
    case Metric::kExecutionTime: return "EX";
    case Metric::kLateSender: return "LS";
    case Metric::kLateReceiver: return "LR";
    case Metric::kEarlyReduce: return "ER";
    case Metric::kLateBroadcast: return "LB";
    case Metric::kWaitAtBarrier: return "WB";
    case Metric::kWaitAtNxN: return "NN";
  }
  return "??";
}

bool isWaitMetric(Metric m) { return m != Metric::kExecutionTime; }

double CubeCell::total() const {
  double s = 0.0;
  for (double v : perRank) s += v;
  return s;
}

void SeverityCube::add(Metric metric, NameId callsite, Rank rank, double us) {
  auto& v = cells_[{metric, callsite}];
  if (v.empty()) v.assign(static_cast<std::size_t>(numRanks_), 0.0);
  v.at(static_cast<std::size_t>(rank)) += us;
}

void SeverityCube::addProfile(Metric metric, NameId callsite, std::vector<double> perRank) {
  if (perRank.size() != static_cast<std::size_t>(numRanks_))
    throw std::invalid_argument("SeverityCube::addProfile: rank count mismatch");
  const auto [it, inserted] = cells_.try_emplace({metric, callsite}, std::move(perRank));
  if (inserted) return;
  for (std::size_t r = 0; r < perRank.size(); ++r) it->second[r] += perRank[r];
}

std::vector<double> SeverityCube::profile(Metric metric, NameId callsite) const {
  const auto it = cells_.find({metric, callsite});
  if (it == cells_.end()) return std::vector<double>(static_cast<std::size_t>(numRanks_), 0.0);
  return it->second;
}

double SeverityCube::total(Metric metric, NameId callsite) const {
  const auto it = cells_.find({metric, callsite});
  if (it == cells_.end()) return 0.0;
  double s = 0.0;
  for (double v : it->second) s += v;
  return s;
}

double SeverityCube::metricTotal(Metric metric) const {
  double s = 0.0;
  for (const auto& [key, v] : cells_) {
    if (key.first != metric) continue;
    for (double x : v) s += x;
  }
  return s;
}

std::vector<CubeCell> SeverityCube::cells() const {
  std::vector<CubeCell> out;
  out.reserve(cells_.size());
  for (const auto& [key, v] : cells_) {
    CubeCell c;
    c.metric = key.first;
    c.callsite = key.second;
    c.perRank = v;
    out.push_back(std::move(c));
  }
  return out;
}

CubeCell SeverityCube::dominantWait() const {
  CubeCell best;
  best.callsite = kInvalidName;
  double bestTotal = 0.0;
  for (const auto& [key, v] : cells_) {
    if (!isWaitMetric(key.first)) continue;
    double s = 0.0;
    for (double x : v) s += x;
    if (best.callsite == kInvalidName || s > bestTotal) {
      best.metric = key.first;
      best.callsite = key.second;
      best.perRank = v;
      bestTotal = s;
    }
  }
  return best;
}

SeverityCube SeverityCube::diff(const SeverityCube& other) const {
  if (numRanks_ != other.numRanks_)
    throw std::invalid_argument("SeverityCube::diff: rank count mismatch");
  SeverityCube out(numRanks_);
  for (const auto& [key, v] : cells_) {
    for (std::size_t r = 0; r < v.size(); ++r)
      out.add(key.first, key.second, static_cast<Rank>(r), v[r]);
  }
  for (const auto& [key, v] : other.cells_) {
    for (std::size_t r = 0; r < v.size(); ++r)
      out.add(key.first, key.second, static_cast<Rank>(r), -v[r]);
  }
  return out;
}

}  // namespace tracered::analysis
