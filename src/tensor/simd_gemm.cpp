// The packed GEMM: packs operands into the panel layout described in
// simd_gemm.hpp, walks row panels (optionally over the global ThreadPool)
// and runs one portable micro-tile per kMr x kNr block of C.
#include "tensor/simd_gemm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.hpp"

namespace ld::tensor::simd {

namespace {

// Per-thread pack scratch. The B pack belongs to the thread that dispatched
// the GEMM (workers read it through a captured pointer); the A pack is
// per-row-panel and lives on whichever thread runs that panel. Two distinct
// slots so a dispatching thread that also executes panels never aliases.
thread_local std::vector<double> t_bpack;
thread_local std::vector<double> t_apack;

// Width of the packed B panel that starts `jw` live columns before the end
// of B: kNr, except that a tail at most half a panel wide (n = 1 in the LSTM
// input and head layers) is packed and multiplied at half width. Only the
// last panel can be narrow, so panel j0 always starts at bpack + j0 * k.
constexpr std::size_t panel_width(std::size_t jw) { return jw <= kNr / 2 ? kNr / 2 : kNr; }

// C[0..mi) x [0..jw) += packed-A panel · packed-B panel of width NR. The full
// kMr x NR block accumulates in `acc` (the zero padding of both packs keeps
// the dead lanes at zero), one std::fma per element and reduction step, and
// only the live block is written back. The loop order is what lets the
// compiler keep `acc` in vector registers: the short ii loop unrolls away,
// leaving the jj loop to vectorize into one broadcast-FMA per row. With ii
// outside jj, GCC unrolls both loops before vectorizing and emits scalar
// FMAs, which ran BM_Gemm about 8x slower.
template <std::size_t NR>
void tile(const double* __restrict ap, const double* __restrict bp, double* __restrict c,
          std::size_t ldc, std::size_t k, std::size_t mi, std::size_t jw) {
  double acc[kMr][NR] = {};
  for (std::size_t p = 0; p < k; ++p) {
    const double* brow = bp + p * NR;
    const double* acol = ap + p * kMr;
    for (std::size_t jj = 0; jj < NR; ++jj) {
      const double b = brow[jj];
      for (std::size_t ii = 0; ii < kMr; ++ii)
        acc[ii][jj] = std::fma(acol[ii], b, acc[ii][jj]);
    }
  }
  for (std::size_t ii = 0; ii < mi; ++ii)
    for (std::size_t jj = 0; jj < jw; ++jj) c[ii * ldc + jj] += acc[ii][jj];
}

// B (k x n row-major) -> zero-padded panels of panel_width() columns.
void pack_b_rows(const double* b, double* dst, std::size_t k, std::size_t n) {
  for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
    const std::size_t jw = std::min(kNr, n - j0);
    const std::size_t w = panel_width(jw);
    double* panel = dst + j0 * k;
    for (std::size_t p = 0; p < k; ++p) {
      const double* src = b + p * n + j0;
      double* prow = panel + p * w;
      for (std::size_t jj = 0; jj < jw; ++jj) prow[jj] = src[jj];
      for (std::size_t jj = jw; jj < w; ++jj) prow[jj] = 0.0;
    }
  }
}

// B stored transposed (n x k; logical B = store^T) -> same panel layout.
void pack_b_cols(const double* b, double* dst, std::size_t k, std::size_t n) {
  for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
    const std::size_t jw = std::min(kNr, n - j0);
    const std::size_t w = panel_width(jw);
    double* panel = dst + j0 * k;
    for (std::size_t jj = 0; jj < jw; ++jj) {
      const double* brow = b + (j0 + jj) * k;  // contiguous in the store
      for (std::size_t p = 0; p < k; ++p) panel[p * w + jj] = brow[p];
    }
    for (std::size_t jj = jw; jj < w; ++jj)
      for (std::size_t p = 0; p < k; ++p) panel[p * w + jj] = 0.0;
  }
}

// A (m x k row-major) rows [i0, i0+mi) -> p-major panel zero-padded to kMr
// rows, so the micro-tile always computes a full register block and the
// padding rows are simply never stored.
void pack_a_rows(const double* a, double* ap, std::size_t i0, std::size_t mi,
                 std::size_t k) {
  for (std::size_t ii = 0; ii < mi; ++ii) {
    const double* arow = a + (i0 + ii) * k;
    for (std::size_t p = 0; p < k; ++p) ap[p * kMr + ii] = arow[p];
  }
  for (std::size_t ii = mi; ii < kMr; ++ii)
    for (std::size_t p = 0; p < k; ++p) ap[p * kMr + ii] = 0.0;
}

// A stored transposed (k x m; logical A = store^T): the panel source is
// already column-contiguous, so packing is a strided row copy.
void pack_a_cols(const double* a, double* ap, std::size_t i0, std::size_t mi,
                 std::size_t k, std::size_t m) {
  for (std::size_t p = 0; p < k; ++p) {
    const double* acol = a + p * m + i0;
    double* prow = ap + p * kMr;
    for (std::size_t ii = 0; ii < mi; ++ii) prow[ii] = acol[ii];
    for (std::size_t ii = mi; ii < kMr; ++ii) prow[ii] = 0.0;
  }
}

enum class AForm { kRows, kCols };

// Shared panel walk. B is already packed (pointer valid for the whole call);
// each row panel packs its own A slice into the executing thread's scratch
// and sweeps the packed B panels. Row panels are independent — each C element
// belongs to exactly one panel and accumulates in ascending-p order inside
// the micro-tile — so distributing them over the pool cannot change results.
void drive(const double* a, double* c, std::size_t m, std::size_t k, std::size_t n,
           AForm aform, const double* bpack) {
  const std::size_t row_panels = (m + kMr - 1) / kMr;
  const auto run_panel = [&](std::size_t rp) {
    std::vector<double>& apack = t_apack;
    if (apack.size() < k * kMr) apack.resize(k * kMr);
    const std::size_t i0 = rp * kMr;
    const std::size_t mi = std::min(kMr, m - i0);
    if (aform == AForm::kRows)
      pack_a_rows(a, apack.data(), i0, mi, k);
    else
      pack_a_cols(a, apack.data(), i0, mi, k, m);
    for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
      const std::size_t jw = std::min(kNr, n - j0);
      const double* bp = bpack + j0 * k;
      double* ct = c + i0 * n + j0;
      if (panel_width(jw) == kNr)
        tile<kNr>(apack.data(), bp, ct, n, k, mi, jw);
      else
        tile<kNr / 2>(apack.data(), bp, ct, n, k, mi, jw);
    }
  };
  ThreadPool& pool = ThreadPool::global();
  if (m * n * k >= kParallelMinFlops && pool.concurrency() > 1 &&
      !ThreadPool::in_worker()) {
    pool.parallel_for(0, row_panels, run_panel);
  } else {
    for (std::size_t rp = 0; rp < row_panels; ++rp) run_panel(rp);
  }
}

double* bpack_for(std::size_t k, std::size_t n) {
  const std::size_t size = (n + kNr - 1) / kNr * kNr * k;
  if (t_bpack.size() < size) t_bpack.resize(size);
  return t_bpack.data();
}

}  // namespace

void gemm(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
          std::size_t n) {
  double* bp = bpack_for(k, n);
  pack_b_rows(b, bp, k, n);
  drive(a, c, m, k, n, AForm::kRows, bp);
}

void gemm_at_b(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
               std::size_t n) {
  double* bp = bpack_for(k, n);
  pack_b_rows(b, bp, k, n);
  drive(a, c, m, k, n, AForm::kCols, bp);
}

void gemm_a_bt(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
               std::size_t n) {
  double* bp = bpack_for(k, n);
  pack_b_cols(b, bp, k, n);
  drive(a, c, m, k, n, AForm::kRows, bp);
}

}  // namespace ld::tensor::simd
