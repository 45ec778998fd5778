// Internal interface of the packed GEMM (DESIGN.md §12), the production
// kernel behind KernelMode::kPacked. Only matrix.cpp includes this.
//
// Packing layout:
//  - B is packed once per call into zero-padded panels of kNr columns, the
//    panel of columns [j0, j0+kNr) at bp + j0*k, element (p, jj) at
//    panel[p*kNr + jj]. A last panel with at most kNr/2 live columns is
//    packed kNr/2 wide instead (and multiplied by a half-width tile).
//  - A is packed per row-panel of kMr rows, p-major: ap[p*kMr + ii] feeds C
//    row i0+ii at reduction step p. Edge panels (m % kMr) are zero-padded to
//    the full kMr so the micro-tile never branches on the row count; only
//    the live `mi` rows are written back.
//
// Arithmetic contract: the micro-tile computes every C element as
// acc = std::fma(a, b, acc) over ascending p starting from acc = 0, then
// c += acc. Every C element is owned by exactly one micro-tile, so results
// are bit-identical for any ThreadPool size (the row-panel partition changes
// where a panel runs, never its arithmetic), for any tile shape, and for any
// ISA the compiler targets — std::fma rounds once wherever it runs.
#pragma once

#include <cstddef>

namespace ld::tensor::simd {

/// Micro-tile shape: kMr C rows x kNr C cols (the B panel width). Tuned for
/// wall clock only; the shape never changes a result bit.
inline constexpr std::size_t kMr = 8;
inline constexpr std::size_t kNr = 16;

/// Below this m*n*k the packing overhead costs more than the micro-tile
/// saves, so matrix.cpp runs the plain reference loops instead (pinned by
/// BM_GemmTiny; see bench/perf_micro.cpp). They compute the same std::fma
/// chain, so the crossover never changes a result bit.
inline constexpr std::size_t kSimdMinFlops = 512;

/// Above this m*n*k, row panels are distributed over ThreadPool::global()
/// (B is packed serially first; never nested inside a pool worker).
inline constexpr std::size_t kParallelMinFlops = std::size_t{1} << 22;

/// Operand forms the entry points pack from (all produce C += op(A) · op(B)):
///  - gemm:      A (m x k) row-major,      B (k x n) row-major
///  - gemm_at_b: A stored (k x m) = A^T,   B (k x n) row-major
///  - gemm_a_bt: A (m x k) row-major,      B stored (n x k) = B^T
void gemm(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
          std::size_t n);
void gemm_at_b(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
               std::size_t n);
void gemm_a_bt(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
               std::size_t n);

}  // namespace ld::tensor::simd
