#include "wavelet/wavelet.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace tracered::wavelet {

namespace {

constexpr double kSqrt2 = 1.4142135623730951;

bool isPow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void requirePow2(std::size_t n, const char* who) {
  if (!isPow2(n))
    throw std::invalid_argument(std::string(who) + ": length must be a power of two");
}

// One forward level in place. Trend i lands at i, which only pairs 0..i
// have been read from, so trends overwrite consumed inputs; details would
// overwrite unread pairs, so they wait in scratch and are copied behind the
// trends. Each output is the same expression as the textbook two-array
// step, so results are bit-identical to it.
template <typename Pair>
void forwardStep(std::span<double> v, std::size_t len, std::span<double> scratch,
                 Pair pair) {
  assert(len % 2 == 0 && len <= v.size() && scratch.size() >= len / 2);
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const double a = v[2 * i];
    const double b = v[2 * i + 1];
    pair(a, b, v[i], scratch[i]);
  }
  for (std::size_t i = 0; i < half; ++i) v[half + i] = scratch[i];
}

// One inverse level in place: details move to scratch, then pairs are
// rebuilt from the top down, where slots 2i and 2i+1 hold only trends
// already consumed.
template <typename Pair>
void inverseStep(std::span<double> v, std::size_t len, std::span<double> scratch,
                 Pair pair) {
  assert(len % 2 == 0 && len <= v.size() && scratch.size() >= len / 2);
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < half; ++i) scratch[i] = v[half + i];
  for (std::size_t i = half; i-- > 0;) {
    const double t = v[i];
    pair(t, scratch[i], v[2 * i], v[2 * i + 1]);
  }
}

// Lambdas, not functions: each has its own type, so every step template is
// instantiated per transform with the pair arithmetic inlined.
constexpr auto avgPair = [](double a, double b, double& trend, double& detail) {
  trend = (a + b) / 2.0;
  detail = (a - b) / 2.0;
};

constexpr auto haarPair = [](double a, double b, double& trend, double& detail) {
  trend = (a + b) / kSqrt2;
  detail = (a - b) / kSqrt2;
};

constexpr auto avgUnpair = [](double t, double d, double& a, double& b) {
  a = t + d;
  b = t - d;
};

constexpr auto haarUnpair = [](double t, double d, double& a, double& b) {
  a = (t + d) / kSqrt2;
  b = (t - d) / kSqrt2;
};

template <typename Pair>
void pyramid(std::span<double> v, std::span<double> scratch, Pair pair) {
  requirePow2(v.size(), "wavelet transform");
  for (std::size_t len = v.size(); len >= 2; len /= 2) forwardStep(v, len, scratch, pair);
}

template <typename Unpair>
void inversePyramid(std::span<double> v, std::span<double> scratch, Unpair unpair) {
  requirePow2(v.size(), "wavelet inverse");
  for (std::size_t len = 2; len <= v.size(); len *= 2) inverseStep(v, len, scratch, unpair);
}

template <typename Transform>
std::vector<double> withScratch(std::vector<double> v, Transform transform) {
  std::vector<double> scratch(v.size() / 2);
  transform(std::span<double>(v), std::span<double>(scratch));
  return v;
}

}  // namespace

std::size_t nextPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

std::vector<double> padToPow2(std::vector<double> v) {
  v.resize(nextPow2(v.size()), 0.0);
  return v;
}

void avgStep(std::span<double> v, std::size_t len, std::span<double> scratch) {
  forwardStep(v, len, scratch, avgPair);
}

void haarStep(std::span<double> v, std::size_t len, std::span<double> scratch) {
  forwardStep(v, len, scratch, haarPair);
}

void avgTransform(std::span<double> v, std::span<double> scratch) {
  pyramid(v, scratch, avgPair);
}

void haarTransform(std::span<double> v, std::span<double> scratch) {
  pyramid(v, scratch, haarPair);
}

void avgInverse(std::span<double> v, std::span<double> scratch) {
  inversePyramid(v, scratch, avgUnpair);
}

void haarInverse(std::span<double> v, std::span<double> scratch) {
  inversePyramid(v, scratch, haarUnpair);
}

std::vector<double> avgTransform(std::vector<double> v) {
  return withScratch(std::move(v), [](auto x, auto s) { avgTransform(x, s); });
}

std::vector<double> haarTransform(std::vector<double> v) {
  return withScratch(std::move(v), [](auto x, auto s) { haarTransform(x, s); });
}

std::vector<double> avgInverse(std::vector<double> v) {
  return withScratch(std::move(v), [](auto x, auto s) { avgInverse(x, s); });
}

std::vector<double> haarInverse(std::vector<double> v) {
  return withScratch(std::move(v), [](auto x, auto s) { haarInverse(x, s); });
}

double euclideanDistance(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("euclideanDistance: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace tracered::wavelet
