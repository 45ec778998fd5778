#include "tensor/matrix.hpp"

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

// Reference kernels: the textbook serial loops the packed kernel is
// differentially tested against. Deliberately free of packing, tiling and
// threads so a miscompiled or mis-blocked fast path cannot hide. They compute
// the packed tile's documented chain, sum = std::fma(a, b, sum) over
// ascending p from 0, then c += sum, so the two modes agree bit for bit.
void gemm_reference(const double* a, const double* b, double* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t p = 0; p < k; ++p) sum = std::fma(arow[p], b[p * n + j], sum);
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
      for (std::size_t p = 0; p < k; ++p) sum = std::fma(a[p * m + i], b[p * n + j], sum);
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
      for (std::size_t p = 0; p < k; ++p) sum = std::fma(arow[p], brow[p], sum);
      crow[j] += sum;
    }
  }
}

// Whether a problem of m*n*k multiply-adds runs the reference loop: always
// under kReference, and below the crossover size under kPacked too, because
// the reference loop's lack of packing overhead wins on tiny shapes (pinned
// by BM_GemmTiny). Both loops give the same bits, so this is speed only.
bool use_reference(std::size_t flops) {
  return t_kernel_mode == KernelMode::kReference || flops < simd::kSimdMinFlops;
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
  if (use_reference(m * k * n))
    gemm_reference(a.data(), b.data(), c.data(), m, k, n);
  else
    simd::gemm(a.data(), b.data(), c.data(), m, k, n);
}

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_at_b: dim mismatch");
  if (c.rows() != a.cols() || c.cols() != b.cols())
    throw std::invalid_argument("matmul_at_b: output shape mismatch");
  if (!accumulate) c.fill(0.0);
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  if (use_reference(m * k * n))
    gemm_at_b_reference(a.data(), b.data(), c.data(), m, k, n);
  else
    simd::gemm_at_b(a.data(), b.data(), c.data(), m, k, n);
}

void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_a_bt: dim mismatch");
  if (c.rows() != a.rows() || c.cols() != b.rows())
    throw std::invalid_argument("matmul_a_bt: output shape mismatch");
  if (!accumulate) c.fill(0.0);
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (use_reference(m * k * n))
    gemm_a_bt_reference(a.data(), b.data(), c.data(), m, k, n);
  else
    simd::gemm_a_bt(a.data(), b.data(), c.data(), m, k, n);
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
