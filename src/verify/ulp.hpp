// ULP-distance helpers for differential kernel testing (DESIGN.md §11).
//
// Two code paths that compute the same arithmetic agree bit for bit. The
// build never contracts a*b+c on its own (-ffp-contract=off), and the packed
// GEMM and the scalar reference both compute the same explicit std::fma
// chain, so kPacked against kReference, serial against pool-parallel and
// Debug against Release are all 0 ULP. Units-in-the-last-place is still the
// right metric where two paths really regroup a sum: it is scale-free, and a
// bound of "N ULP" means "the last log2(N) bits of the mantissa", independent
// of magnitude.
//
// Header-only on purpose: the serving predict path (LD_VERIFY_DIFF=1) needs
// the comparison without pulling the whole ld_verify library into ld_serving.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

namespace ld::verify {

/// Fused single-timestep inference (LstmNetwork::forward_one) vs the layered
/// reference forward, end to end through a serving predict. The fused step
/// accumulates the W and U contributions into one running sum instead of two
/// separately-summed GEMV results added once, and that regrouping compounds
/// through T recurrent steps of squashing nonlinearities. It is the one
/// documented bound. Only meaningful on well-scaled (trained, positive)
/// predictions: under catastrophic cancellation a tiny absolute difference
/// spans thousands of ULPs.
inline constexpr std::uint64_t kFusedPredictUlpBound = 65536;

/// Distance in representable doubles between a and b. 0 means bit-identical
/// (or +0.0 vs -0.0). NaN against a number, or mismatched infinities, is
/// UINT64_MAX; two NaNs count as agreement (both paths failed identically).
/// Values of opposite sign are measured through zero.
[[nodiscard]] inline std::uint64_t ulp_distance(double a, double b) noexcept {
  if (std::isnan(a) || std::isnan(b)) return a != a && b != b ? 0 : ~0ULL;
  if (std::isinf(a) || std::isinf(b)) return a == b ? 0 : ~0ULL;
  // Map the doubles onto a monotone integer line: non-negative floats keep
  // their bit pattern, negative floats are reflected below zero.
  const auto to_ordered = [](double v) -> std::int64_t {
    const auto bits = std::bit_cast<std::int64_t>(v);
    return bits >= 0 ? bits : std::numeric_limits<std::int64_t>::min() - bits;
  };
  const std::int64_t oa = to_ordered(a), ob = to_ordered(b);
  return oa >= ob ? static_cast<std::uint64_t>(oa) - static_cast<std::uint64_t>(ob)
                  : static_cast<std::uint64_t>(ob) - static_cast<std::uint64_t>(oa);
}

/// Largest element-wise ULP distance; UINT64_MAX on length mismatch.
[[nodiscard]] inline std::uint64_t max_ulp_distance(std::span<const double> a,
                                                    std::span<const double> b) noexcept {
  if (a.size() != b.size()) return ~0ULL;
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, ulp_distance(a[i], b[i]));
  return worst;
}

}  // namespace ld::verify
