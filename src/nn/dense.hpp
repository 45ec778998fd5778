// Fully-connected output head (the layer "T" of Fig. 3): maps the final
// hidden state h_{i-1} to the scalar prediction P_i.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace ld::nn {

class DenseLayer {
 public:
  DenseLayer(std::size_t input_size, std::size_t output_size, Rng& rng);

  [[nodiscard]] std::size_t input_size() const noexcept { return input_size_; }
  [[nodiscard]] std::size_t output_size() const noexcept { return output_size_; }

  /// y = x W + b, x is (B x input_size); result (B x output_size). Linear
  /// activation — regression output. Copies x into the caller's `cache_x`
  /// for backward.
  [[nodiscard]] tensor::Matrix forward(const tensor::Matrix& x, tensor::Matrix& cache_x) const;

  /// Given dL/dy and the `cache_x` of the matching forward, accumulate
  /// dW/db and return dL/dx.
  [[nodiscard]] tensor::Matrix backward(const tensor::Matrix& dy, const tensor::Matrix& cache_x);

  /// Read-only views for the fused inference path (nn/network.cpp), which
  /// evaluates the head as a dot product without a Matrix temporary.
  [[nodiscard]] const tensor::Matrix& weights() const noexcept { return w_; }
  [[nodiscard]] std::span<const double> bias() const noexcept {
    return {b_.data(), b_.size()};
  }

  void zero_grad() noexcept;
  [[nodiscard]] std::vector<std::span<double>> parameters();
  [[nodiscard]] std::vector<std::span<const double>> parameters() const;
  [[nodiscard]] std::vector<std::span<double>> gradients();
  [[nodiscard]] std::size_t parameter_count() const noexcept;

 private:
  std::size_t input_size_, output_size_;
  tensor::Matrix w_;   // (input x output)
  std::vector<double> b_;
  tensor::Matrix dw_;
  std::vector<double> db_;
};

}  // namespace ld::nn
