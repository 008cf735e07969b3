#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/compare.hpp"
#include "analysis/render.hpp"
#include "analysis/report.hpp"
#include "core/reconstruct.hpp"
#include "fuzz/fuzz_targets.hpp"
#include "trace/trace_io.hpp"

namespace tracered::fuzz {

namespace {

/// What one analysis path made of a reduced trace: a cube, or the class
/// and message of its rejection.
struct Outcome {
  std::optional<analysis::SeverityCube> cube;
  std::string errorClass;
  std::string error;

  bool operator==(const Outcome& o) const {
    if (cube.has_value() != o.cube.has_value()) return false;
    if (!cube) return errorClass == o.errorClass && error == o.error;
    if (cube->numRanks() != o.cube->numRanks()) return false;
    const std::vector<analysis::CubeCell> a = cube->cells();
    const std::vector<analysis::CubeCell> b = o.cube->cells();
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].metric != b[i].metric || a[i].callsite != b[i].callsite ||
          a[i].perRank.size() != b[i].perRank.size() ||
          std::memcmp(a[i].perRank.data(), b[i].perRank.data(),
                      a[i].perRank.size() * sizeof(double)) != 0)
        return false;
    }
    return true;
  }
  std::string describe() const {
    return cube ? "accepted (" + std::to_string(cube->cells().size()) + " cells)"
                : "rejected (" + errorClass + ": " + error + ")";
  }
};

/// Runs one path; the documented rejection types count as a rejection
/// (out-of-range rank / representative ids are std::logic_errors, and
/// inconsistent collective sequences std::runtime_errors), anything else
/// escapes as a finding.
template <class Fn>
Outcome run(Fn&& analyze) {
  Outcome o;
  try {
    o.cube = analyze();
  } catch (const std::runtime_error& e) {
    o.errorClass = typeid(e).name();
    o.error = e.what();
  } catch (const std::logic_error& e) {
    o.errorClass = typeid(e).name();
    o.error = e.what();
  }
  return o;
}

}  // namespace

int runAnalyze(const std::uint8_t* data, std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);

  // The `tracered analyze <file.trr>` surface: TRR1 bytes -> severity-cube
  // analysis -> comparison + report rendering. Differential: the exec-table
  // walk the CLI runs must agree with analyzing the reconstruction, on the
  // verdict, the rejection's class and message, and every cell's bits.
  std::optional<ReducedTrace> reduced;
  try {
    reduced = deserializeReducedTrace(bytes);
  } catch (const std::runtime_error&) {
  } catch (const std::logic_error&) {
  }
  if (!reduced) return 0;

  // Reconstruction is multiplicative (execs x events per representative): a
  // few hundred accepted bytes can legally demand gigabytes. That is an
  // input-size property, not a defect; bound the expansion so the harness
  // probes the analysis logic instead of the allocator.
  std::size_t expandedEvents = 0;
  for (const RankReduced& r : reduced->ranks) {
    std::size_t maxEvents = 0;
    for (const Segment& s : r.stored) maxEvents = std::max(maxEvents, s.events.size());
    expandedEvents += r.execs.size() * (maxEvents + 1);
  }
  if (expandedEvents > (1u << 20)) return 0;

  const Outcome walked = run([&] { return analysis::analyze(*reduced); });
  const Outcome expanded = run([&] { return analysis::analyze(core::reconstruct(*reduced)); });
  if (!(walked == expanded)) {
    std::fprintf(stderr,
                 "analyze: the exec-table walk and the reconstruction disagree\n"
                 "  walk:        %s\n  reconstruct: %s\n",
                 walked.describe().c_str(), expanded.describe().c_str());
    std::abort();
  }
  if (!walked.cube) return 0;

  // Every downstream consumer of a cube must be total on whatever analyze
  // accepts: the self-comparison (rank counts agree by construction), the
  // CUBE-style rendering, and the CLI report rows.
  const analysis::SeverityCube& cube = *walked.cube;
  (void)analysis::compareTrends(cube, cube);
  (void)analysis::renderCube(cube, reduced->names, 8);
  (void)analysis::cubeReportRows(cube, reduced->names, 8);
  return 0;
}

}  // namespace tracered::fuzz
