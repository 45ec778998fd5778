#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/simd_gemm.hpp"

namespace ld::tensor {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::fill(double value) noexcept {
  for (double& v : data_) v = value;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (double& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }

namespace {
thread_local KernelMode t_kernel_mode = KernelMode::kPacked;

// Reference kernels: the textbook serial loops the blocked/packed kernels
// are differentially tested against. Deliberately free of packing, tiling
// and OpenMP so a miscompiled or mis-blocked fast path cannot hide — the
// only thing they share with the fast path is the ascending-k summation
// order per C element.
void gemm_reference(const double* a, const double* b, double* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t p = 0; p < k; ++p) sum += arow[p] * b[p * n + j];
      crow[j] += sum;
    }
  }
}

void gemm_at_b_reference(const double* a, const double* b, double* c, std::size_t m,
                         std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t p = 0; p < k; ++p) sum += a[p * m + i] * b[p * n + j];
      crow[j] += sum;
    }
  }
}

void gemm_a_bt_reference(const double* a, const double* b, double* c, std::size_t m,
                         std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* brow = b + j * k;
      double sum = 0.0;
      for (std::size_t p = 0; p < k; ++p) sum += arow[p] * brow[p];
      crow[j] += sum;
    }
  }
}

// Register-blocked kernels: MI x kNr C tiles accumulate in registers over the
// full k extent before a single write-back, so B rows are reused MI times and
// the inner loop is branch-free FMAs on contiguous loads. MI is a template
// parameter so every loop has a compile-time trip count -- the accumulators
// must stay in registers, not spill to the stack. Every C element is owned by
// exactly one tile (and one OpenMP thread) and sums over p in ascending
// order, so results are bit-identical for any thread count.
constexpr std::size_t kMr = 4;  // C rows per micro-tile
constexpr std::size_t kNr = 8;  // C cols per micro-tile

// Extra tail elements on every packed A panel. The vectorizer may widen the
// panel's strided A loads into full vector loads whose last iteration touches
// a bounded distance past the logical extent; the slack keeps those reads
// inside the allocation (the lanes are discarded, only the fault matters).
constexpr std::size_t kPackSlack = 64;

// One MI-row panel of C += P * B, where P is an A panel packed p-major
// (pack[p * MI + ii] holds the element feeding C row ii at reduction step p).
// The packed layout is mandatory, not just faster: it makes every A access a
// gap-free contiguous load, so the vectorizer never emits the over-reading
// strided load groups it produces for in-place stride-m reads of A^T.
template <std::size_t MI>
void gemm_panel(const double* __restrict a, const double* __restrict b,
                double* __restrict c, std::size_t k, std::size_t n) {
  std::size_t j0 = 0;
  for (; j0 + kNr <= n; j0 += kNr) {
    double acc[MI][kNr] = {};
    const double* bp = b + j0;
    const double* ap = a;
    for (std::size_t p = 0; p < k; ++p, bp += n, ap += MI) {
      for (std::size_t ii = 0; ii < MI; ++ii) {
        const double av = ap[ii];
        for (std::size_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += av * bp[jj];
      }
    }
    for (std::size_t ii = 0; ii < MI; ++ii) {
      double* crow = c + ii * n + j0;
      for (std::size_t jj = 0; jj < kNr; ++jj) crow[jj] += acc[ii][jj];
    }
  }
  for (; j0 < n; ++j0) {  // n % kNr remainder columns
    double acc[MI] = {};
    const double* ap = a;
    for (std::size_t p = 0; p < k; ++p, ap += MI) {
      const double bv = b[p * n + j0];
      for (std::size_t ii = 0; ii < MI; ++ii) acc[ii] += ap[ii] * bv;
    }
    for (std::size_t ii = 0; ii < MI; ++ii) c[ii * n + j0] += acc[ii];
  }
}

// Dispatch the m % kMr edge panels to narrower instantiations.
void gemm_panel_edge(std::size_t mi, const double* a, const double* b, double* c,
                     std::size_t k, std::size_t n) {
  switch (mi) {
    case 1: gemm_panel<1>(a, b, c, k, n); break;
    case 2: gemm_panel<2>(a, b, c, k, n); break;
    case 3: gemm_panel<3>(a, b, c, k, n); break;
    default: gemm_panel<4>(a, b, c, k, n); break;
  }
}

// C += A * B  (A: m x k row-major, B: k x n row-major). Each panel of A is
// packed p-major (pack[p * mi + ii]) so the kernel reads it contiguously —
// strided reads straight from A's rows defeat the vectorizer and run ~4x
// slower. The O(k * mi) packing cost amortizes over the n-wide tile sweep.
void gemm(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
          std::size_t n) {
#pragma omp parallel for if (m * n * k > 1u << 16)
  for (std::size_t i0 = 0; i0 < m; i0 += kMr) {
    const std::size_t mi = std::min(kMr, m - i0);
    std::vector<double> pack(k * mi + kPackSlack);
    for (std::size_t ii = 0; ii < mi; ++ii) {
      const double* arow = a + (i0 + ii) * k;
      for (std::size_t p = 0; p < k; ++p) pack[p * mi + ii] = arow[p];
    }
    gemm_panel_edge(mi, pack.data(), b, c + i0 * n, k, n);
  }
}

// C += A^T * B  (A: k x m, B: k x n, C: m x n) without materializing A^T:
// the panel source is already column-contiguous in A, so packing is a
// row-by-row copy.
void gemm_at_b(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
               std::size_t n) {
#pragma omp parallel for if (m * n * k > 1u << 16)
  for (std::size_t i0 = 0; i0 < m; i0 += kMr) {
    const std::size_t mi = std::min(kMr, m - i0);
    std::vector<double> pack(k * mi + kPackSlack);
    for (std::size_t p = 0; p < k; ++p) {
      const double* acol = a + p * m + i0;
      for (std::size_t ii = 0; ii < mi; ++ii) pack[p * mi + ii] = acol[ii];
    }
    gemm_panel_edge(mi, pack.data(), b, c + i0 * n, k, n);
  }
}

// Mode that actually runs for a problem of m*n*k multiply-adds: below the
// crossover size the packed kernel delegates to the reference loop, whose
// lack of packing overhead wins on tiny shapes (pinned by BM_GemmTiny).
KernelMode effective_mode(std::size_t flops) {
  const KernelMode mode = t_kernel_mode;
  if (mode == KernelMode::kPacked && flops < simd::kSimdMinFlops)
    return KernelMode::kReference;
  return mode;
}
}  // namespace

KernelMode kernel_mode() noexcept { return t_kernel_mode; }
void set_kernel_mode(KernelMode mode) noexcept { t_kernel_mode = mode; }

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  matmul_into(a, b, c, /*accumulate=*/true);  // c starts zeroed
  return c;
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: inner dim mismatch");
  if (c.rows() != a.rows() || c.cols() != b.cols())
    throw std::invalid_argument("matmul: output shape mismatch");
  if (!accumulate) c.fill(0.0);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  switch (effective_mode(m * k * n)) {
    case KernelMode::kReference:
      gemm_reference(a.data(), b.data(), c.data(), m, k, n);
      break;
    case KernelMode::kBlocked:
      gemm(a.data(), b.data(), c.data(), m, k, n);
      break;
    case KernelMode::kPacked:
      simd::gemm(a.data(), b.data(), c.data(), m, k, n);
      break;
  }
}

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_at_b: dim mismatch");
  if (c.rows() != a.cols() || c.cols() != b.cols())
    throw std::invalid_argument("matmul_at_b: output shape mismatch");
  if (!accumulate) c.fill(0.0);
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  switch (effective_mode(m * k * n)) {
    case KernelMode::kReference:
      gemm_at_b_reference(a.data(), b.data(), c.data(), m, k, n);
      break;
    case KernelMode::kBlocked:
      gemm_at_b(a.data(), b.data(), c.data(), m, k, n);
      break;
    case KernelMode::kPacked:
      simd::gemm_at_b(a.data(), b.data(), c.data(), m, k, n);
      break;
  }
}

void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_a_bt: dim mismatch");
  if (c.rows() != a.rows() || c.cols() != b.rows())
    throw std::invalid_argument("matmul_a_bt: output shape mismatch");
  if (!accumulate) c.fill(0.0);
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  switch (effective_mode(m * k * n)) {
    case KernelMode::kReference:
      gemm_a_bt_reference(a.data(), b.data(), c.data(), m, k, n);
      return;
    case KernelMode::kBlocked:
      break;  // inline blocked loops below
    case KernelMode::kPacked:
      simd::gemm_a_bt(a.data(), b.data(), c.data(), m, k, n);
      return;
  }
#pragma omp parallel for if (m * n * k > 1u << 16)
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.data() + i * k;
    double* crow = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* brow = b.data() + j * k;
      double sum = 0.0;
      for (std::size_t p = 0; p < k; ++p) sum += arow[p] * brow[p];
      crow[j] += sum;
    }
  }
}

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  if (a.cols() != x.size()) throw std::invalid_argument("matvec: dim mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * a.cols();
    double sum = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) sum += arow[j] * x[j];
    y[i] = sum;
  }
  return y;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double norm2(std::span<const double> v) { return std::sqrt(dot(v, v)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace ld::tensor
