// Dense row-major matrix and the kernels the rest of the library is built on.
//
// Double precision throughout: the traces span six orders of magnitude
// (Azure JARs of ~10 vs Wikipedia JARs of millions) and the GP solver needs
// the headroom. GEMM packs its operands into register-sized panels and
// splits row panels over the ThreadPool; sizes in this project are
// small-to-medium (hundreds), so cache blocking is deliberately simple.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace ld::tensor {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<double> flat() noexcept { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const double> flat() const noexcept {
    return {data_.data(), data_.size()};
  }

  void fill(double value) noexcept;
  [[nodiscard]] Matrix transposed() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  [[nodiscard]] static Matrix identity(std::size_t n);

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator+(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator-(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator*(Matrix a, double s);

/// Which GEMM implementation the matmul entry points dispatch to
/// (DESIGN.md §12):
///  - kPacked: the production kernel and every thread's default. Operands
///    are packed into panels and swept by one portable micro-tile that
///    accumulates each C element with std::fma (src/tensor/simd_gemm.*),
///    ThreadPool-parallel above a size threshold, falling back to the
///    reference loop below a crossover size.
///    The golden gates run it too.
///  - kReference: plain serial triple loop (no packing, no threads, no
///    tiling), the oracle for differential testing (src/verify/).
/// Both modes compute each C element as the same std::fma chain over
/// ascending k, so they agree bit for bit (verify_test asserts 0 ULP) for
/// any thread count and in every build type.
enum class KernelMode { kPacked, kReference };

/// Per-thread kernel selection (dispatch happens on the calling thread,
/// before any ThreadPool region, so the mode never races with worker
/// threads). New threads start at kPacked.
[[nodiscard]] KernelMode kernel_mode() noexcept;
void set_kernel_mode(KernelMode mode) noexcept;

/// RAII kernel-mode switch for differential tests and LD_VERIFY_DIFF.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode mode) : previous_(kernel_mode()) {
    set_kernel_mode(mode);
  }
  ~ScopedKernelMode() { set_kernel_mode(previous_); }
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  KernelMode previous_;
};

/// C = A * B (throws on shape mismatch).
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// C += A * B into an existing output (no allocation).
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate = false);

/// C += A^T * B.
void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate = false);

/// C += A * B^T.
void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate = false);

/// y = A * x.
[[nodiscard]] std::vector<double> matvec(const Matrix& a, std::span<const double> x);

/// Dot product.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
[[nodiscard]] double norm2(std::span<const double> v);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

}  // namespace ld::tensor
