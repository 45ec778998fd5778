#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

namespace ld::nn {

DenseLayer::DenseLayer(std::size_t input_size, std::size_t output_size, Rng& rng)
    : input_size_(input_size),
      output_size_(output_size),
      w_(input_size, output_size),
      b_(output_size, 0.0),
      dw_(input_size, output_size),
      db_(output_size, 0.0) {
  if (input_size == 0 || output_size == 0)
    throw std::invalid_argument("DenseLayer: zero-sized layer");
  const double limit = std::sqrt(6.0 / static_cast<double>(input_size + output_size));
  for (double& v : w_.flat()) v = rng.uniform(-limit, limit);
}

tensor::Matrix DenseLayer::forward(const tensor::Matrix& x, tensor::Matrix& cache_x) const {
  if (x.cols() != input_size_) throw std::invalid_argument("DenseLayer::forward: shape");
  cache_x = x;
  tensor::Matrix y(x.rows(), output_size_);
  tensor::matmul_into(x, w_, y, /*accumulate=*/false);
  for (std::size_t r = 0; r < y.rows(); ++r)
    for (std::size_t c = 0; c < output_size_; ++c) y(r, c) += b_[c];
  return y;
}

tensor::Matrix DenseLayer::backward(const tensor::Matrix& dy, const tensor::Matrix& cache_x) {
  if (dy.cols() != output_size_ || dy.rows() != cache_x.rows())
    throw std::invalid_argument("DenseLayer::backward: shape");
  tensor::matmul_at_b_into(cache_x, dy, dw_, /*accumulate=*/true);
  for (std::size_t r = 0; r < dy.rows(); ++r)
    for (std::size_t c = 0; c < output_size_; ++c) db_[c] += dy(r, c);
  tensor::Matrix dx(dy.rows(), input_size_);
  tensor::matmul_a_bt_into(dy, w_, dx, /*accumulate=*/false);
  return dx;
}

void DenseLayer::zero_grad() noexcept {
  dw_.fill(0.0);
  for (double& v : db_) v = 0.0;
}

std::vector<std::span<double>> DenseLayer::parameters() {
  return {w_.flat(), {b_.data(), b_.size()}};
}

std::vector<std::span<const double>> DenseLayer::parameters() const {
  return {w_.flat(), {b_.data(), b_.size()}};
}

std::vector<std::span<double>> DenseLayer::gradients() {
  return {dw_.flat(), {db_.data(), db_.size()}};
}

std::size_t DenseLayer::parameter_count() const noexcept { return w_.size() + b_.size(); }

}  // namespace ld::nn
