// ULP-distance helpers for differential kernel testing (DESIGN.md §11).
//
// Floating-point results from two mathematically equivalent code paths
// (scalar reference vs. blocked/packed, serial vs. pool-parallel) differ, if
// at all, only through rounding — and because every kernel in this project
// sums in the same ascending-k order, the divergence is bounded by how the
// compiler contracts FMAs and vectorizes each loop. Units-in-the-last-place
// is the right metric for that: it is scale-free, and a bound of "N ULP"
// means "the last log2(N) bits of the mantissa", independent of magnitude.
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

/// Documented agreement bounds, enforced by verify_test (DifferentialGemm /
/// DifferentialLstm). Both paths sum each output element over k in ascending
/// order, so the only divergence sources are FMA contraction and
/// vectorization choices. Caveat: an ULP bound is only meaningful when the
/// result is well away from zero — under catastrophic cancellation (signed
/// inputs summing to ~0) a few-ULP absolute difference spans thousands of
/// ULPs, so the differential tests use positive operands whose dot products
/// cannot cancel. The bounds below hold on such data with headroom for other
/// compilers/architectures.
inline constexpr std::uint64_t kGemmUlpBound = 16;    ///< one GEMM call
inline constexpr std::uint64_t kLstmUlpBound = 1024;  ///< a full recurrent forward pass
inline constexpr std::uint64_t kPredictUlpBound = 4096;  ///< multi-step serving forecast

/// One packed GEMM call (kPacked, serial or ThreadPool-parallel) vs the
/// scalar reference. The micro-tile keeps the ascending-k single-pass order,
/// so divergence is still just FMA contraction — but the tile's explicit
/// std::fma chain can differ from whatever the compiler contracted in the
/// reference loop, so the bound gets headroom over kGemmUlpBound.
inline constexpr std::uint64_t kSimdGemmUlpBound = 64;

/// Fused single-timestep inference (LstmNetwork::forward_one) vs the layered
/// reference forward, end to end through a serving predict. The fused step
/// accumulates the W and U contributions into one running sum instead of two
/// separately-summed GEMV results added once, and that regrouping compounds
/// through T recurrent steps of squashing nonlinearities — hence a larger
/// bound than kPredictUlpBound. Only meaningful on well-scaled (trained,
/// positive) predictions, like the other bounds.
inline constexpr std::uint64_t kFusedPredictUlpBound = 65536;

/// Accuracy guardrail for int8 row-quantized inference (LD_QUANT): the
/// fig9-style test MAPE under quantization may exceed the fp64 MAPE by at
/// most this many percentage points on the golden workloads. Quantization is
/// a deliberate approximation, so it is bounded in model-quality units, not
/// ULPs. Pinned from measurement: observed deltas are < 0.2 pp (see
/// verify_test QuantizedInference).
inline constexpr double kQuantMapeTolerancePp = 1.0;

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
