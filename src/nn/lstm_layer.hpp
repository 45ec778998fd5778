// A single LSTM layer with fused gate weights and exact BPTT gradients.
//
// Implements the cell of Fig. 4 in the paper:
//   i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)
//   f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)
//   o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)
//   g_t = tanh  (W_g x_t + U_g h_{t-1} + b_g)
//   C_t = f_t ⊙ C_{t-1} + i_t ⊙ g_t
//   h_t = o_t ⊙ tanh(C_t)
//
// The four gate weight blocks are fused into single (4H x I) / (4H x H)
// matrices in [i, f, g, o] order so the per-timestep work is two GEMMs.
// Forward caches everything needed for an exact backward pass (verified
// against finite differences in tests/nn_gradcheck_test.cpp).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/layer_cache.hpp"
#include "tensor/matrix.hpp"

namespace ld::nn {

class LstmLayer {
 public:
  /// `activation` selects the function used for the candidate gate g_t and
  /// the cell output (the two tanh positions of the classic cell); kTanh is
  /// the paper's configuration.
  LstmLayer(std::size_t input_size, std::size_t hidden_size, Rng& rng,
            Activation activation = Activation::kTanh);

  [[nodiscard]] std::size_t input_size() const noexcept { return input_size_; }
  [[nodiscard]] std::size_t hidden_size() const noexcept { return hidden_size_; }

  /// Forward over a full sequence into the caller's `cache`. `inputs[t]` is
  /// a (B x input_size) matrix; returns cache.h, h_t for every t as
  /// (B x hidden_size) matrices. State starts at 0 (stateless between
  /// batches, as in the paper's fixed-window formulation).
  const std::vector<tensor::Matrix>& forward(const std::vector<tensor::Matrix>& inputs,
                                             RecurrentCache& cache) const;

  /// Backward through time over the `cache` of the matching forward.
  /// `dh_out[t]` is dL/dh_t flowing from the layer above (zero matrices
  /// where a timestep output is unused). Accumulates weight gradients
  /// internally and returns dL/dx_t for each timestep.
  [[nodiscard]] std::vector<tensor::Matrix> backward(const std::vector<tensor::Matrix>& dh_out,
                                                     const RecurrentCache& cache);

  void zero_grad() noexcept;

  /// Flat views over parameters and their gradients (W, U, b concatenated),
  /// consumed by the optimizer.
  [[nodiscard]] std::vector<std::span<double>> parameters();
  [[nodiscard]] std::vector<std::span<const double>> parameters() const;
  [[nodiscard]] std::vector<std::span<double>> gradients();
  [[nodiscard]] std::size_t parameter_count() const noexcept;

  /// Build the transposed (and int8 row-quantized) weight panels
  /// step_fused reads. Call once the weights are final.
  void pack();

  /// Fused single-sample inference step (DESIGN.md §12): advances the
  /// recurrent state one timestep — all four gate GEMVs, biases and
  /// activations in one pass over the packed transposed weights, with no
  /// Matrix temporaries. `x` has input_size elements; `h` and `c` hold the
  /// hidden/cell state (hidden_size each) and are updated in place;
  /// `scratch` must hold >= 4*hidden_size elements. T=double computes on the
  /// exact weights; T=float on the int8 row-quantized weights (LD_QUANT).
  /// Reads the panels of the last pack(), not the live weights.
  template <typename T>
  void step_fused(const T* x, T* h, T* c, T* scratch) const;

 private:
  std::size_t input_size_, hidden_size_;
  Activation activation_ = Activation::kTanh;
  tensor::Matrix w_;          // (4H x I) input weights
  tensor::Matrix u_;          // (4H x H) recurrent weights
  std::vector<double> b_;     // (4H) bias, forget block initialized to 1
  tensor::Matrix dw_, du_;
  std::vector<double> db_;

  // Packed weights for step_fused (see nn/packed_weights.hpp).
  std::vector<double> wt_, ut_;    // transposed (I x 4H), (H x 4H)
  std::vector<float> wtq_, utq_;   // int8 row-quantized, dequantized
  std::vector<float> bq_;          // bias in float for the quant path
};

}  // namespace ld::nn
