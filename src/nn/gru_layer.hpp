// GRU layer (Cho et al., 2014) — the most common LSTM variant in the cloud
// workload-prediction literature the paper surveys. Same fused-gate design
// and exact-BPTT contract as LstmLayer:
//   z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)        (update gate)
//   r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)        (reset gate)
//   g_t = act(W_g x_t + U_g (r_t ⊙ h_{t-1}) + b_g)    (candidate)
//   h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ g_t
// Fused blocks in [z, r, g] order.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/layer_cache.hpp"
#include "tensor/matrix.hpp"

namespace ld::nn {

class GruLayer {
 public:
  GruLayer(std::size_t input_size, std::size_t hidden_size, Rng& rng,
           Activation activation = Activation::kTanh);

  [[nodiscard]] std::size_t input_size() const noexcept { return input_size_; }
  [[nodiscard]] std::size_t hidden_size() const noexcept { return hidden_size_; }

  /// Same contracts as LstmLayer's; cache.state holds r_t ⊙ h_{t-1}.
  const std::vector<tensor::Matrix>& forward(const std::vector<tensor::Matrix>& inputs,
                                             RecurrentCache& cache) const;
  [[nodiscard]] std::vector<tensor::Matrix> backward(const std::vector<tensor::Matrix>& dh_out,
                                                     const RecurrentCache& cache);

  void zero_grad() noexcept;
  [[nodiscard]] std::vector<std::span<double>> parameters();
  [[nodiscard]] std::vector<std::span<const double>> parameters() const;
  [[nodiscard]] std::vector<std::span<double>> gradients();
  [[nodiscard]] std::size_t parameter_count() const noexcept;

  void pack();  ///< as LstmLayer::pack

  /// Fused single-sample inference step — same contract as
  /// LstmLayer::step_fused. GRU has no cell state, so `c` is ignored (kept
  /// for a uniform call shape); `scratch` must hold >= 4*hidden_size
  /// elements (3H gate pre-activations + H for r ⊙ h).
  template <typename T>
  void step_fused(const T* x, T* h, T* c, T* scratch) const;

 private:
  std::size_t input_size_, hidden_size_;
  Activation activation_;
  tensor::Matrix w_;       // (3H x I)
  tensor::Matrix u_;       // (3H x H); the g-block row multiplies (r ⊙ h)
  std::vector<double> b_;  // (3H)
  tensor::Matrix dw_, du_;
  std::vector<double> db_;

  // Packed weights for step_fused (see nn/packed_weights.hpp).
  std::vector<double> wt_, ut_;    // transposed (I x 3H), (H x 3H)
  std::vector<float> wtq_, utq_;   // int8 row-quantized, dequantized
  std::vector<float> bq_;
};

}  // namespace ld::nn
