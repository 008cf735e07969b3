#include "analysis/analyzer.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "trace/segmenter.hpp"
#include "trace/trace_codec.hpp"

namespace tracered::analysis {

namespace {

constexpr std::size_t kMetricCount = static_cast<std::size_t>(Metric::kWaitAtNxN) + 1;

/// Call sites below this get a slot in the dense column map.
constexpr NameId kDenseCallsites = 1u << 16;

/// The largest table a hint reserves up front (32 MiB of entries): beyond
/// it a row grows on demand, so a hostile section header cannot claim
/// memory its records never fill.
constexpr std::size_t kMaxKeptReserve = std::size_t{1} << 20;

/// isP2P / isCollective by op, tabulated once so the per-event loop makes
/// no calls.
enum : std::uint8_t { kP2P = 1, kCollective = 2 };
const std::array<std::uint8_t, static_cast<std::size_t>(OpKind::kOther) + 1> kOpClass = [] {
  std::array<std::uint8_t, static_cast<std::size_t>(OpKind::kOther) + 1> t{};
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto op = static_cast<OpKind>(i);
    t[i] = isP2P(op) ? kP2P : isCollective(op) ? kCollective : 0;
  }
  return t;
}();

std::uint8_t opClass(OpKind op) {
  const auto i = static_cast<std::size_t>(op);
  return i < kOpClass.size() ? kOpClass[i] : 0;
}

bool isP2PKept(OpKind op) { return opClass(op) == kP2P; }

/// The events the pairing and collective passes need: point-to-point events
/// with a peer, and collectives. A negative peer names no rank (unset), so
/// it pairs with nothing.
bool isKept(const EventInterval& e) {
  const std::uint8_t c = opClass(e.op);
  return c == kP2P ? e.msg.peer >= 0 : c == kCollective;
}

std::size_t keptEventCount(std::span<const EventInterval> events) {
  return static_cast<std::size_t>(std::count_if(events.begin(), events.end(), isKept));
}

double clampWait(double wait, double duration) {
  return std::max(0.0, std::min(wait, duration));
}

/// `to - from` in µs, wrapping like the timestamps themselves.
double elapsed(TimeUs from, TimeUs to) { return static_cast<double>(codec::wrapSub(to, from)); }

}  // namespace

/// Rank ids need not be dense (sparse traces keep their ids), so the cube
/// and the per-rank tables are indexed by row; message peers and collective
/// roots name rank ids and go through this map.
class Analyzer::RankRows {
 public:
  explicit RankRows(const std::vector<Row>& rows) {
    byId_.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
      byId_.emplace_back(rows[i].rank, static_cast<int>(i));
    std::sort(byId_.begin(), byId_.end());
  }

  /// The row of rank id `rank`; throws when the trace has no such rank.
  int at(Rank rank, const char* role) const {
    const auto it = std::lower_bound(byId_.begin(), byId_.end(), std::pair{rank, 0});
    if (it != byId_.end() && it->first == rank) return it->second;
    throw std::runtime_error(std::string("analyze: ") + role + " rank " +
                             std::to_string(rank) + " is not a rank of the trace");
  }

 private:
  std::vector<std::pair<Rank, int>> byId_;  ///< (rank id, row), by id.
};

Analyzer::Analyzer(const AnalyzerOptions& opts) : opts_(opts) {}

std::size_t Analyzer::addRank(Rank rank, std::size_t keptHint) {
  // The previous row is complete unless its rank is revisited: give back
  // what an upper-bound hint over-reserved (a no-op for exact hints).
  if (!rows_.empty()) rows_.back().kept.shrink_to_fit();
  Row& row = rows_.emplace_back();
  row.rank = rank;
  row.kept.reserve(std::min(keptHint, kMaxKeptReserve));
  return rows_.size() - 1;
}

std::vector<double>& Analyzer::column(Metric metric, NameId callsite) {
  const std::uint64_t key =
      std::uint64_t{callsite} * kMetricCount + static_cast<std::uint64_t>(metric);
  std::uint32_t* slot = nullptr;
  if (callsite < kDenseCallsites) {
    if (key >= denseColumn_.size()) denseColumn_.resize((callsite + 1) * kMetricCount, 0);
    slot = &denseColumn_[key];
  } else {
    slot = &sparseColumn_[key];
  }
  if (*slot == 0) {
    columns_.push_back({metric, callsite, std::vector<double>(rows_.size(), 0.0)});
    *slot = static_cast<std::uint32_t>(columns_.size());
  }
  return columns_[*slot - 1].perRow;
}

void Analyzer::onSegment(std::size_t row, TimeUs absStart,
                         std::span<const EventInterval> events) {
  Row& r = rows_.at(row);
  ++segments_;
  for (const EventInterval& e : events) {
    // Wrapping arithmetic, as the segmenter rebased with: hostile traces can
    // span more than INT64_MAX microseconds, and signed overflow is UB.
    const TimeUs start = codec::wrapAdd(absStart, e.start);
    const TimeUs end = codec::wrapAdd(absStart, e.end);
    std::vector<double>& exec = column(Metric::kExecutionTime, e.name);
    if (row >= exec.size()) exec.resize(row + 1, 0.0);
    exec[row] += elapsed(start, end);

    if (!isKept(e)) continue;
    const bool p2p = isP2PKept(e.op);
    r.kept.push_back({start, end, e.name, p2p ? e.msg.peer : e.msg.root, e.msg.tag, e.op});
    ++(p2p ? r.p2p : r.collectives);
  }
}

SeverityCube Analyzer::finish() {
  if (finished_) throw std::logic_error("Analyzer::finish: already finished");
  finished_ = true;
  const RankRows ids(rows_);
  pairMessages(ids);
  alignCollectives(ids);
  const std::size_t numRows = rows_.size();
  rows_ = {};

  SeverityCube cube(static_cast<int>(numRows));
  for (Column& c : columns_) {
    c.perRow.resize(numRows, 0.0);
    cube.addProfile(c.metric, c.callsite, std::move(c.perRow));
  }
  columns_.clear();
  return cube;
}

// --- Point-to-point patterns ---------------------------------------------
void Analyzer::pairMessages(const RankRows& ids) {
  // Every kept point-to-point event, keyed by its channel (src row, dst
  // row, tag). A channel's sends all come from one row and its receives
  // from another, so sorting by (channel, kind, feed order) lays each
  // channel out as its sends then its receives, both in FIFO order.
  struct Ref {
    int src = 0;
    int dst = 0;
    std::int32_t tag = 0;
    bool recv = false;
    std::size_t seq = 0;
    const Kept* ev = nullptr;
  };
  std::size_t total = 0;
  for (const Row& r : rows_) total += r.p2p;
  std::vector<Ref> refs;
  refs.reserve(total);
  for (std::size_t row = 0; row < rows_.size(); ++row) {
    for (const Kept& k : rows_[row].kept) {
      if (!isP2PKept(k.op)) continue;
      const int peer = ids.at(k.rank, "message peer");
      const bool recv = k.op == OpKind::kRecv;
      const int self = static_cast<int>(row);
      refs.push_back({recv ? peer : self, recv ? self : peer, k.tag, recv, refs.size(), &k});
    }
  }
  const auto channelOf = [](const Ref& r) { return std::tie(r.src, r.dst, r.tag); };
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return std::tie(a.src, a.dst, a.tag, a.recv, a.seq) <
           std::tie(b.src, b.dst, b.tag, b.recv, b.seq);
  });

  for (std::size_t first = 0; first < refs.size();) {
    std::size_t last = first;
    while (last < refs.size() && channelOf(refs[last]) == channelOf(refs[first])) ++last;
    std::size_t recvs = first;
    while (recvs < last && !refs[recvs].recv) ++recvs;
    const std::size_t n = std::min(recvs - first, last - recvs);
    for (std::size_t k = 0; k < n; ++k) {
      const Ref& send = refs[first + k];
      const Ref& recv = refs[recvs + k];
      const Kept& s = *send.ev;
      const Kept& r = *recv.ev;
      // Late Sender: the receive sat blocked until the send started.
      const double lsWait = elapsed(r.start, s.start);
      if (lsWait > 0.0)
        column(Metric::kLateSender, r.name)[static_cast<std::size_t>(recv.dst)] +=
            clampWait(lsWait, elapsed(r.start, r.end));
      // Late Receiver: a synchronous send sat blocked until the receive
      // was posted.
      if (s.op == OpKind::kSsend) {
        const double lrWait = elapsed(s.start, r.start);
        if (lrWait > 0.0)
          column(Metric::kLateReceiver, s.name)[static_cast<std::size_t>(send.src)] +=
              clampWait(lrWait, elapsed(s.start, s.end));
      }
    }
    first = last;
  }
}

// --- Collective patterns -------------------------------------------------
void Analyzer::alignCollectives(const RankRows& ids) {
  const int numRanks = static_cast<int>(rows_.size());
  std::size_t minCount = rows_.empty() ? 0 : rows_[0].collectives;
  for (const Row& r : rows_) minCount = std::min(minCount, r.collectives);

  // inst[r] = row r's k-th collective; cursor[r] walks its kept table.
  std::vector<std::size_t> cursor(rows_.size(), 0);
  std::vector<const Kept*> inst(rows_.size(), nullptr);
  for (std::size_t k = 0; k < minCount; ++k) {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      const std::vector<Kept>& table = rows_[r].kept;
      std::size_t& c = cursor[r];
      while (isP2PKept(table[c].op)) ++c;
      inst[r] = &table[c++];
    }

    const OpKind op = inst[0]->op;
    // The root (a rank id) matters only to the rooted collectives; other
    // collectives may carry any value there.
    const Rank rootId = inst[0]->rank;
    const int root =
        (isNto1(op) || is1toN(op)) && rootId >= 0 ? ids.at(rootId, "collective root") : -1;

    TimeUs lastEnter = 0;
    TimeUs lastNonRootEnter = 0;
    bool haveNonRoot = false;
    for (int r = 0; r < numRanks; ++r) {
      const Kept& ev = *inst[static_cast<std::size_t>(r)];
      if (ev.op != op) {
        throw std::runtime_error("analyze: collective sequence mismatch across ranks");
      }
      lastEnter = std::max(lastEnter, ev.start);
      if (r != root) {
        lastNonRootEnter = haveNonRoot ? std::max(lastNonRootEnter, ev.start) : ev.start;
        haveNonRoot = true;
      }
    }

    if (isNxN(op) || ((op == OpKind::kInit || op == OpKind::kFinalize) &&
                      opts_.includeInitFinalize)) {
      const Metric metric =
          (op == OpKind::kBarrier || op == OpKind::kInit || op == OpKind::kFinalize)
              ? Metric::kWaitAtBarrier
              : Metric::kWaitAtNxN;
      for (int r = 0; r < numRanks; ++r) {
        const Kept& ev = *inst[static_cast<std::size_t>(r)];
        const double wait = elapsed(ev.start, lastEnter);
        column(metric, ev.name)[static_cast<std::size_t>(r)] +=
            clampWait(wait, elapsed(ev.start, ev.end));
      }
    } else if (isNto1(op) && root >= 0 && haveNonRoot) {
      // Early Reduce: the root entered before its senders and sat blocked.
      // We charge the root's wait up to the *last* sender's arrival (its
      // actual blocking time); EXPERT's Early Reduce counts only to the
      // first sender, which would hide straggler-driven N-to-1 inefficiency
      // on otherwise balanced programs.
      const Kept& rootEv = *inst[static_cast<std::size_t>(root)];
      const double wait = elapsed(rootEv.start, lastNonRootEnter);
      if (wait > 0.0)
        column(Metric::kEarlyReduce, rootEv.name)[static_cast<std::size_t>(root)] +=
            clampWait(wait, elapsed(rootEv.start, rootEv.end));
    } else if (is1toN(op) && root >= 0) {
      const Kept& rootEv = *inst[static_cast<std::size_t>(root)];
      for (int r = 0; r < numRanks; ++r) {
        if (r == root) continue;
        const Kept& ev = *inst[static_cast<std::size_t>(r)];
        const double wait = elapsed(ev.start, rootEv.start);
        if (wait > 0.0)
          column(Metric::kLateBroadcast, ev.name)[static_cast<std::size_t>(r)] +=
              clampWait(wait, elapsed(ev.start, ev.end));
      }
    }
  }
}

// --- Feeders -------------------------------------------------------------

SeverityCube analyze(const SegmentedTrace& trace, const AnalyzerOptions& opts) {
  Analyzer analyzer(opts);
  for (const RankSegments& rs : trace.ranks) {
    // One kept event per segment is the estimate (a barrier or an exchange
    // per iteration); an exact count would cost a second pass over every
    // segment's events.
    const std::size_t row = analyzer.addRank(rs.rank, rs.segments.size());
    for (const Segment& s : rs.segments) analyzer.onSegment(row, s.absStart, s.events);
  }
  return analyzer.finish();
}

namespace {

/// Feeds one rank's exec table: every execution stamps its representative
/// (from `store`) at the recorded start. `keptPerRep` is keptEventCount per
/// representative; its at() rejects an unknown representative id with
/// reconstruct's std::out_of_range, before anything of the rank is fed.
void walkExecs(Analyzer& analyzer, Rank rank, const std::vector<Segment>& store,
               const std::vector<std::size_t>& keptPerRep,
               const std::vector<SegmentExec>& execs) {
  std::size_t keptHint = 0;
  for (const SegmentExec& exec : execs) keptHint += keptPerRep.at(exec.id);
  const std::size_t row = analyzer.addRank(rank, keptHint);
  for (const SegmentExec& exec : execs)
    analyzer.onSegment(row, exec.start, store[exec.id].events);
}

std::vector<std::size_t> keptPerRepresentative(const std::vector<Segment>& store) {
  std::vector<std::size_t> out;
  out.reserve(store.size());
  for (const Segment& s : store) out.push_back(keptEventCount(s.events));
  return out;
}

}  // namespace

SeverityCube analyze(const ReducedTrace& reduced, const AnalyzerOptions& opts) {
  Analyzer analyzer(opts);
  for (const RankReduced& rr : reduced.ranks)
    walkExecs(analyzer, rr.rank, rr.stored, keptPerRepresentative(rr.stored), rr.execs);
  return analyzer.finish();
}

SeverityCube analyze(const MergedReducedTrace& merged, const AnalyzerOptions& opts) {
  Analyzer analyzer(opts);
  const std::vector<std::size_t> keptPerRep = keptPerRepresentative(merged.sharedStore);
  for (std::size_t r = 0; r < merged.execs.size(); ++r) {
    // Hand-built traces without rankIds label rows by position, as
    // reconstructMerged does.
    const Rank rank = r < merged.rankIds.size() ? merged.rankIds[r] : static_cast<Rank>(r);
    walkExecs(analyzer, rank, merged.sharedStore, keptPerRep, merged.execs[r]);
  }
  return analyzer.finish();
}

StreamAnalysis analyzeStream(TraceFileReader& reader, const AnalyzerOptions& opts) {
  Analyzer analyzer(opts);
  const StringTable& names = reader.names();
  // Per row: its Segmenter, created on the rank's first record as
  // segmentRank would (a binary trace holds one at a time, since its
  // sections are whole ranks), and the first error its records raised.
  // Segmenter errors wait until the whole file has decoded and are then
  // raised in row order, so a decode error anywhere wins, as it does when
  // the trace is read whole first: every input gets that path's message.
  struct RankState {
    std::unique_ptr<Segmenter> segmenter;
    std::exception_ptr error;
  };
  std::vector<RankState> ranks;
  const auto close = [](RankState& state) {
    if (state.segmenter && !state.error) {
      try {
        state.segmenter->finish();
      } catch (const std::runtime_error&) {
        state.error = std::current_exception();
      }
    }
    state.segmenter.reset();
  };
  const bool text = reader.format() == TraceFileFormat::kText;
  if (text) {
    ranks.resize(reader.numRanks());
    for (std::size_t r = 0; r < reader.numRanks(); ++r) analyzer.addRank(static_cast<Rank>(r));
  }
  reader.streamRecords(
      [&](Rank rank, const RawRecord& rec) {
        const std::size_t row = text ? static_cast<std::size_t>(rank) : ranks.size() - 1;
        RankState& state = ranks[row];
        if (state.error) return;
        if (!state.segmenter) state.segmenter = std::make_unique<Segmenter>(rank, names);
        const Segment* seg = nullptr;
        try {
          seg = state.segmenter->push(rec);
        } catch (const std::runtime_error&) {
          state.error = std::current_exception();
          return;
        }
        if (seg != nullptr) analyzer.onSegment(row, seg->absStart, seg->events);
      },
      [&](Rank rank) {
        if (text) return;  // every declared rank already has its row
        if (!ranks.empty()) close(ranks.back());
        // Each event takes an enter and an exit record: an upper bound,
        // trimmed when the next section begins.
        analyzer.addRank(rank, static_cast<std::size_t>(reader.sectionRecordsLeft() / 2));
        ranks.emplace_back();
      });
  for (RankState& state : ranks) {
    close(state);
    if (state.error) std::rethrow_exception(state.error);
  }

  StreamAnalysis out;
  out.segments = analyzer.segments();
  out.cube = analyzer.finish();
  return out;
}

}  // namespace tracered::analysis
