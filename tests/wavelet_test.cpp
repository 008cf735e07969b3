// Unit tests for the wavelet transforms, including the paper's Fig. 3
// worked example.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "core/similarity.hpp"
#include "util/rng.hpp"
#include "wavelet/wavelet.hpp"

namespace tracered::wavelet {
namespace {

TEST(Wavelet, NextPow2) {
  EXPECT_EQ(nextPow2(0), 1u);
  EXPECT_EQ(nextPow2(1), 1u);
  EXPECT_EQ(nextPow2(2), 2u);
  EXPECT_EQ(nextPow2(3), 4u);
  EXPECT_EQ(nextPow2(5), 8u);
  EXPECT_EQ(nextPow2(8), 8u);
  EXPECT_EQ(nextPow2(9), 16u);
  EXPECT_EQ(nextPow2(1000), 1024u);
}

TEST(Wavelet, PadToPow2KeepsPrefixAndZeroPads) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6};
  const std::vector<double> padded = padToPow2(v);
  ASSERT_EQ(padded.size(), 8u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_DOUBLE_EQ(padded[i], v[i]);
  EXPECT_DOUBLE_EQ(padded[6], 0.0);
  EXPECT_DOUBLE_EQ(padded[7], 0.0);
}

TEST(Wavelet, PadToPow2NoopOnPow2) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_EQ(padToPow2(v), v);
}

TEST(Wavelet, AvgStepPairsAveragesAndDifferences) {
  std::vector<double> v = {4, 2, 8, 6};
  std::vector<double> scratch(2);
  avgStep(v, 4, scratch);
  // trends: (4+2)/2, (8+6)/2 ; details: (4-2)/2, (8-6)/2
  EXPECT_DOUBLE_EQ(v[0], 3);
  EXPECT_DOUBLE_EQ(v[1], 7);
  EXPECT_DOUBLE_EQ(v[2], 1);
  EXPECT_DOUBLE_EQ(v[3], 1);
}

TEST(Wavelet, HaarIsAvgTimesSqrt2PerLevel) {
  std::vector<double> a = {4, 2, 8, 6};
  std::vector<double> h = a;
  std::vector<double> scratch(2);
  avgStep(a, 4, scratch);
  haarStep(h, 4, scratch);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(h[i], a[i] * std::sqrt(2.0), 1e-12);
}

// The paper's Fig. 3 example: the average transform of segment s0's padded
// time-stamp vector [0,1,20,21,49,50,0,0].
TEST(Wavelet, Fig3AvgTransformS0) {
  const std::vector<double> s0 = {0, 1, 20, 21, 49, 50, 0, 0};
  const std::vector<double> t = avgTransform(s0);
  ASSERT_EQ(t.size(), 8u);
  EXPECT_DOUBLE_EQ(t[0], 17.625);  // the paper's "largest element 17.625"
  EXPECT_DOUBLE_EQ(t[1], -7.125);
  EXPECT_DOUBLE_EQ(t[2], -10.0);
  EXPECT_DOUBLE_EQ(t[3], 24.75);
  EXPECT_DOUBLE_EQ(t[4], -0.5);
  EXPECT_DOUBLE_EQ(t[5], -0.5);
  EXPECT_DOUBLE_EQ(t[6], -0.5);
  EXPECT_DOUBLE_EQ(t[7], 0.0);
}

// Fig. 3's step-2 trends for s2 are (9, 24.25).
TEST(Wavelet, Fig3AvgStep2TrendsS2) {
  std::vector<double> v = {0, 1, 17, 18, 48, 49, 0, 0};
  std::vector<double> scratch(4);
  avgStep(v, 8, scratch);
  avgStep(v, 4, scratch);
  EXPECT_DOUBLE_EQ(v[0], 9.0);
  EXPECT_DOUBLE_EQ(v[1], 24.25);
}

// The paper's comparison of s0 and s2: Euclidean distance between the
// average transforms is ~1.9, under the allowed 0.2 * 17.625 = 3.525.
TEST(Wavelet, Fig3ComparisonDistance) {
  const std::vector<double> t0 = avgTransform({0, 1, 20, 21, 49, 50, 0, 0});
  const std::vector<double> t2 = avgTransform({0, 1, 17, 18, 48, 49, 0, 0});
  const double dist = euclideanDistance(t0, t2);
  EXPECT_NEAR(dist, 1.9, 0.05);
  EXPECT_LT(dist, 0.2 * 17.625);
}

TEST(Wavelet, AvgInverseRoundTrips) {
  SplitMix64 rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> v(16);
    for (auto& x : v) x = rng.nextDouble() * 1000.0;
    const std::vector<double> back = avgInverse(avgTransform(v));
    ASSERT_EQ(back.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(back[i], v[i], 1e-9);
  }
}

TEST(Wavelet, HaarInverseRoundTrips) {
  SplitMix64 rng(9);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> v(32);
    for (auto& x : v) x = rng.nextDouble() * 1000.0 - 500.0;
    const std::vector<double> back = haarInverse(haarTransform(v));
    ASSERT_EQ(back.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(back[i], v[i], 1e-9);
  }
}

// The orthonormal Haar transform preserves Euclidean distances; the average
// transform does not (it shrinks them). This is exactly the property the
// paper cites when predicting avgWave is a (slightly) less strict test.
TEST(Wavelet, HaarPreservesEuclideanDistanceAvgShrinksIt) {
  SplitMix64 rng(11);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> a(16), b(16);
    for (auto& x : a) x = rng.nextDouble() * 100.0;
    for (auto& x : b) x = rng.nextDouble() * 100.0;
    const double d = euclideanDistance(a, b);
    const double dh = euclideanDistance(haarTransform(a), haarTransform(b));
    const double da = euclideanDistance(avgTransform(a), avgTransform(b));
    EXPECT_NEAR(dh, d, 1e-9 * (1.0 + d));
    EXPECT_LE(da, d + 1e-9);
  }
}

TEST(Wavelet, TransformIsLinear) {
  SplitMix64 rng(13);
  std::vector<double> a(8), b(8);
  for (auto& x : a) x = rng.nextDouble();
  for (auto& x : b) x = rng.nextDouble();
  std::vector<double> sum(8);
  for (std::size_t i = 0; i < 8; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto ta = avgTransform(a);
  const auto tb = avgTransform(b);
  const auto tsum = avgTransform(sum);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(tsum[i], 2.0 * ta[i] + 3.0 * tb[i], 1e-9);
}

TEST(Wavelet, ConstantSignalHasZeroDetails) {
  const std::vector<double> t = avgTransform(std::vector<double>(8, 5.0));
  EXPECT_DOUBLE_EQ(t[0], 5.0);
  for (std::size_t i = 1; i < t.size(); ++i) EXPECT_DOUBLE_EQ(t[i], 0.0);
}

TEST(Wavelet, RejectsNonPow2) {
  EXPECT_THROW(avgTransform({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(haarTransform({1, 2, 3, 4, 5}), std::invalid_argument);
}

TEST(Wavelet, EuclideanDistanceBasics) {
  using V = std::vector<double>;
  EXPECT_DOUBLE_EQ(euclideanDistance(V{0, 0}, V{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(euclideanDistance(V{1, 1}, V{1, 1}), 0.0);
  EXPECT_THROW(euclideanDistance(V{1}, V{1, 2}), std::invalid_argument);
}

// Reference kernels: the two-array formulation (one temporary per level)
// the in-place transforms replace. The in-place kernels must reproduce it
// bit for bit, since stored features and every match decision derive from
// these coefficients.
namespace reference {

constexpr double kSqrt2 = 1.4142135623730951;

template <typename Pair>
std::vector<double> forward(std::vector<double> v, Pair pair) {
  for (std::size_t len = v.size(); len >= 2; len /= 2) {
    std::vector<double> tmp(len);
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < half; ++i) pair(v[2 * i], v[2 * i + 1], tmp[i], tmp[half + i]);
    for (std::size_t i = 0; i < len; ++i) v[i] = tmp[i];
  }
  return v;
}

template <typename Unpair>
std::vector<double> inverse(std::vector<double> v, Unpair unpair) {
  for (std::size_t len = 2; len <= v.size(); len *= 2) {
    std::vector<double> tmp(len);
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < half; ++i) unpair(v[i], v[half + i], tmp[2 * i], tmp[2 * i + 1]);
    for (std::size_t i = 0; i < len; ++i) v[i] = tmp[i];
  }
  return v;
}

std::vector<double> avg(std::vector<double> v) {
  return forward(std::move(v), [](double a, double b, double& t, double& d) {
    t = (a + b) / 2.0;
    d = (a - b) / 2.0;
  });
}
std::vector<double> haar(std::vector<double> v) {
  return forward(std::move(v), [](double a, double b, double& t, double& d) {
    t = (a + b) / kSqrt2;
    d = (a - b) / kSqrt2;
  });
}
std::vector<double> avgInv(std::vector<double> v) {
  return inverse(std::move(v), [](double t, double d, double& a, double& b) {
    a = t + d;
    b = t - d;
  });
}
std::vector<double> haarInv(std::vector<double> v) {
  return inverse(std::move(v), [](double t, double d, double& a, double& b) {
    a = (t + d) / kSqrt2;
    b = (t - d) / kSqrt2;
  });
}

}  // namespace reference

void expectBitIdentical(const std::vector<double>& got, const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
}

// In place with one half-length scratch == the two-array reference, at
// every power-of-two length from 1 to twice the feature buffers' inline
// bound (so the lengths the matching path sends to the heap are covered).
TEST(Wavelet, InPlaceTransformsMatchReferenceBitForBit) {
  SplitMix64 rng(17);
  for (std::size_t len = 1; len <= 2 * core::kFeatureInlineDoubles; len *= 2) {
    SCOPED_TRACE(len);
    std::vector<double> in(len);
    for (auto& x : in) x = rng.nextDouble() * 2000.0 - 1000.0;
    std::vector<double> scratch(len / 2);

    std::vector<double> v = in;
    avgTransform(std::span<double>(v), scratch);
    expectBitIdentical(v, reference::avg(in));
    avgInverse(std::span<double>(v), scratch);
    expectBitIdentical(v, reference::avgInv(reference::avg(in)));

    v = in;
    haarTransform(std::span<double>(v), scratch);
    expectBitIdentical(v, reference::haar(in));
    haarInverse(std::span<double>(v), scratch);
    expectBitIdentical(v, reference::haarInv(reference::haar(in)));

    // The vector-returning forms run the same kernels.
    expectBitIdentical(avgTransform(in), reference::avg(in));
    expectBitIdentical(haarTransform(in), reference::haar(in));
    expectBitIdentical(avgInverse(in), reference::avgInv(in));
    expectBitIdentical(haarInverse(in), reference::haarInv(in));
  }
}

TEST(Wavelet, InPlaceTransformRejectsNonPow2) {
  std::vector<double> v(6, 1.0);
  std::vector<double> scratch(3);
  EXPECT_THROW(avgTransform(std::span<double>(v), scratch), std::invalid_argument);
  EXPECT_THROW(haarInverse(std::span<double>(v), scratch), std::invalid_argument);
}

}  // namespace
}  // namespace tracered::wavelet
