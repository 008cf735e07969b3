// Discrete wavelet transforms used by the avgWave / haarWave similarity
// methods (Sec. 3.2.1, Fig. 3).
//
// Both transforms iteratively decompose a signal of (power-of-two) length L
// into L/2 trend values and L/2 fluctuation values, then recurse on the
// trends. The output layout is the standard pyramid:
//
//   [ overall trend | coarsest details | ... | finest details ]
//
// avgWave: trend = (a+b)/2,      detail = (a-b)/2
// haarWave: trend = (a+b)/sqrt2, detail = (a-b)/sqrt2   (orthonormal Haar)
//
// The Haar variant is exactly the average variant with every level's outputs
// multiplied by sqrt(2), as the paper notes; it preserves the Euclidean
// distance between signals, the average transform does not.
//
// The transforms run in place over a caller-owned span with one caller-owned
// scratch span of at least half the length, so the matching hot path can
// transform segment vectors without allocating. The vector-returning
// overloads are conveniences over the same kernels.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tracered::wavelet {

/// Smallest power of two >= n (and >= 1).
std::size_t nextPow2(std::size_t n);

/// Zero-pads `v` at the end to the next power-of-two length. Per the paper,
/// the vector is padded to "the next power of two after the number of time
/// stamps", i.e. strictly larger when already a power of two is NOT required;
/// we pad only when needed.
std::vector<double> padToPow2(std::vector<double> v);

/// One decomposition level of the average transform over v[0, len), in
/// place: first half trends, second half details. Requires even `len` <=
/// v.size() and scratch.size() >= len / 2.
void avgStep(std::span<double> v, std::size_t len, std::span<double> scratch);

/// One decomposition level of the Haar transform; same contract as avgStep.
void haarStep(std::span<double> v, std::size_t len, std::span<double> scratch);

/// Full pyramid decomposition with the average transform, in place.
/// Requires a power-of-two length (throws std::invalid_argument otherwise)
/// and scratch.size() >= v.size() / 2.
void avgTransform(std::span<double> v, std::span<double> scratch);

/// Full pyramid decomposition with the orthonormal Haar transform, in place.
void haarTransform(std::span<double> v, std::span<double> scratch);

/// Inverse of avgTransform, in place (exact up to floating point).
void avgInverse(std::span<double> v, std::span<double> scratch);

/// Inverse of haarTransform, in place.
void haarInverse(std::span<double> v, std::span<double> scratch);

/// Vector-returning forms of the four transforms (they allocate their own
/// scratch). Require power-of-two length (use padToPow2 first).
std::vector<double> avgTransform(std::vector<double> v);
std::vector<double> haarTransform(std::vector<double> v);
std::vector<double> avgInverse(std::vector<double> v);
std::vector<double> haarInverse(std::vector<double> v);

/// Euclidean (L2) distance between two equal-length vectors.
double euclideanDistance(std::span<const double> a, std::span<const double> b);

}  // namespace tracered::wavelet
