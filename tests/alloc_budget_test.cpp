// Allocation budget of the per-segment hot path: once a rank's
// representatives are stored, streaming more segments that match them must
// not touch the heap — no segment copies, no per-candidate feature vectors,
// no wavelet temporaries, no measurement temporaries. The binary replaces
// the global operator new with a counting one and streams the matching half
// of a repetitive trace through ReductionSession.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "core/methods.hpp"
#include "core/reduction_config.hpp"
#include "core/reduction_session.hpp"
#include "trace/string_table.hpp"

namespace {
std::atomic<std::size_t> gNewCalls{0};
}  // namespace

// Array and sized forms forward here by default; the aligned forms are not
// used by the reduction path. Not inlined: GCC would otherwise see free()
// applied to operator new's result at the inlined call sites and warn.
[[gnu::noinline]] void* operator new(std::size_t size) {
  gNewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tracered::core {
namespace {

constexpr std::size_t kVariants = 4;        // distinct segment timings
constexpr std::size_t kWarmSegments = 400;  // stores every representative
constexpr std::size_t kCountedSegments = 20000;

/// The records of segment `i` of a repetitive stream: variant i % kVariants
/// (a compute event of variant-specific length, a send, a barrier), always
/// the same relative timings, so every repetition matches its variant's
/// representative under every method and threshold.
std::vector<RawRecord> segmentRecords(StringTable& names, std::size_t i) {
  const TimeUs base = static_cast<TimeUs>(i) * 10000;
  const TimeUs work = 500 * static_cast<TimeUs>(1 + i % kVariants);
  std::vector<RawRecord> out;
  const auto rec = [&](RecordKind kind, const char* name, TimeUs t, OpKind op = OpKind::kCompute,
                       MsgInfo msg = {}) {
    RawRecord r;
    r.kind = kind;
    r.op = op;
    r.name = names.intern(name);
    r.time = base + t;
    r.msg = msg;
    out.push_back(r);
  };
  MsgInfo send;
  send.peer = 1;
  send.tag = 7;
  send.bytes = 4096;
  send.comm = 0;
  MsgInfo barrier;
  barrier.comm = 0;
  rec(RecordKind::kSegBegin, "main.1", 0);
  rec(RecordKind::kEnter, "do_work", 1);
  rec(RecordKind::kExit, "do_work", 1 + work);
  rec(RecordKind::kEnter, "MPI_Send", 2 + work, OpKind::kSend, send);
  rec(RecordKind::kExit, "MPI_Send", 40 + work);
  rec(RecordKind::kEnter, "MPI_Barrier", 41 + work, OpKind::kBarrier, barrier);
  rec(RecordKind::kExit, "MPI_Barrier", 90 + work);
  rec(RecordKind::kSegEnd, "main.1", 91 + work);
  return out;
}

struct Budget {
  std::size_t allocations = 0;  ///< operator new calls in the counted half.
  std::size_t storedWarm = 0;   ///< Representatives after the warm half alone.
  std::size_t stored = 0;       ///< Representatives after both halves.
  std::size_t total = 0;
};

Budget streamSecondHalf(Method method, AccelerationTier tier) {
  StringTable names;
  // Records are built up front so only the session's own work is counted.
  std::vector<RawRecord> warm;
  std::vector<RawRecord> counted;
  for (std::size_t i = 0; i < kWarmSegments + kCountedSegments; ++i)
    for (const RawRecord& r : segmentRecords(names, i))
      (i < kWarmSegments ? warm : counted).push_back(r);

  ReductionConfig config{.method = method, .threshold = defaultThreshold(method)};
  config.acceleration = tier;
  Budget b;
  {
    ReductionSession warmOnly(names, config);
    for (const RawRecord& r : warm) warmOnly.feed(0, r);
    b.storedWarm = warmOnly.finish().stats.storedSegments;
  }

  ReductionSession session(names, config);
  for (const RawRecord& r : warm) session.feed(0, r);
  const std::size_t before = gNewCalls.load();
  for (const RawRecord& r : counted) session.feed(0, r);
  b.allocations = gNewCalls.load() - before;

  const ReductionResult result = session.finish();
  b.stored = result.stats.storedSegments;
  b.total = result.stats.totalSegments;
  return b;
}

class AllocBudget
    : public ::testing::TestWithParam<std::tuple<Method, AccelerationTier>> {};

TEST_P(AllocBudget, MatchingSegmentsStreamWithoutAllocating) {
  const auto [method, tier] = GetParam();
  const Budget b = streamSecondHalf(method, tier);
  // The second half stored nothing: every representative came from the
  // warm half.
  ASSERT_EQ(b.total, kWarmSegments + kCountedSegments);
  ASSERT_EQ(b.stored, b.storedWarm);
  ASSERT_GE(b.stored, 1u);
  // What remains is amortized growth of the rank's execution table (a
  // handful of doublings over the counted half).
  EXPECT_LT(b.allocations, kCountedSegments / 100)
      << b.allocations << " allocations for " << kCountedSegments << " segments";
}

std::string paramName(
    const ::testing::TestParamInfo<std::tuple<Method, AccelerationTier>>& info) {
  const auto [method, tier] = info.param;
  return std::string(methodName(method)) +
         (tier == AccelerationTier::kOff ? "_unindexed" : "_indexed");
}

INSTANTIATE_TEST_SUITE_P(
    HotPath, AllocBudget,
    ::testing::Combine(::testing::Values(Method::kAvgWave, Method::kEuclidean,
                                         Method::kIterAvg),
                       ::testing::Values(AccelerationTier::kOff, AccelerationTier::kIndexed)),
    paramName);

}  // namespace
}  // namespace tracered::core
