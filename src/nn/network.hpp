// LstmNetwork: stacked LSTM layers plus a dense regression head — the model
// "A = (M, T)" that LoadDynamics trains per hyperparameter configuration.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "nn/dense.hpp"
#include "nn/gru_layer.hpp"
#include "nn/lstm_layer.hpp"
#include "tensor/matrix.hpp"

namespace ld::nn {

/// Recurrent cell family. kLstm is the paper's model; kGru is the common
/// variant its related-work section surveys.
enum class CellType { kLstm, kGru };

[[nodiscard]] std::string cell_type_name(CellType cell);
[[nodiscard]] CellType cell_type_from_name(const std::string& name);

struct LstmNetworkConfig {
  std::size_t input_size = 1;   ///< features per timestep (1 = scalar JAR)
  std::size_t hidden_size = 32; ///< size of the cell memory vector C (paper's s)
  std::size_t num_layers = 1;   ///< stacked recurrent layers
  std::size_t output_size = 1;  ///< head outputs (>1 = direct multi-step forecasting)
  CellType cell = CellType::kLstm;
  Activation activation = Activation::kTanh;  ///< cell activation (Section V)
  double dropout = 0.0;         ///< inter-layer inverted dropout rate [0, 1)
};

class LstmNetwork {
 public:
  LstmNetwork(LstmNetworkConfig config, std::uint64_t seed);

  /// Activations of one layered forward pass. The const forward overloads
  /// write only here, so concurrent callers each pass their own.
  struct ForwardCaches {
    std::vector<RecurrentCache> layers;
    tensor::Matrix head_x;
  };

  [[nodiscard]] const LstmNetworkConfig& config() const noexcept { return config_; }

  /// Forward a batch of univariate windows: x is (B x T) where each row is a
  /// window <J_{i-n}..J_{i-1}>. Returns B scalar predictions. Requires
  /// input_size == 1 and output_size == 1 (the paper's configuration).
  /// Always runs the layered path. This training form fills the network's
  /// own caches for backward() and applies dropout in training mode.
  [[nodiscard]] std::vector<double> forward(const tensor::Matrix& x);
  /// Inference form of forward(x): no dropout, caches are the caller's.
  [[nodiscard]] std::vector<double> forward(const tensor::Matrix& x,
                                            ForwardCaches& caches) const;

  /// Fused single-window inference (DESIGN.md §12): advances every layer one
  /// timestep at a time via step_fused — no Matrix temporaries, no per-step
  /// GEMM dispatch — then applies the dense head as a dot product. Honors
  /// quantized_inference_enabled() by running the recurrent stack in float
  /// over int8 row-quantized weights (the head stays fp64). Scratch is
  /// thread-local, so concurrent calls are safe. Reads the weight panels of
  /// the last pack() and throws std::logic_error when the weights changed
  /// since. TrainedModel::predict_next dispatches here when the packed
  /// kernel is selected (TrainedModel::fused_predict_live), so kBlocked and
  /// kReference keep the layered path bit-identical to pre-fused behavior.
  /// Requires 1-in/1-out.
  [[nodiscard]] double forward_one(std::span<const double> window) const;

  /// General form: `sequence[t]` is a (B x input_size) feature matrix —
  /// supports exogenous features (multivariate forecasting) and multi-step
  /// heads. Returns the head output (B x output_size). Training and
  /// inference forms as for forward(x).
  [[nodiscard]] tensor::Matrix forward_sequence(const std::vector<tensor::Matrix>& sequence);
  [[nodiscard]] tensor::Matrix forward_sequence(const std::vector<tensor::Matrix>& sequence,
                                                ForwardCaches& caches) const;

  /// Backward from dL/dy (length B). Must follow a training-form forward().
  void backward(std::span<const double> dy);

  /// General backward from a (B x output_size) gradient; pairs with
  /// forward_sequence.
  void backward_matrix(const tensor::Matrix& dy);

  void zero_grad() noexcept;

  /// Register all layer parameters with an optimizer. Handing out mutable
  /// views marks the fused-inference panels stale until the next pack().
  [[nodiscard]] std::vector<std::span<double>> parameters();
  [[nodiscard]] std::vector<std::span<double>> gradients();
  [[nodiscard]] std::size_t parameter_count() const noexcept;

  /// Snapshot/restore all weights (used by the trainer to keep the best
  /// validation model).
  [[nodiscard]] std::vector<double> save_weights() const;
  void load_weights(std::span<const double> weights);

  /// Pack every layer's fused-inference weight panels. Call once the weights
  /// are final (TrainedModel does, after training and on restore).
  void pack();

  /// Training mode enables inter-layer dropout; inference mode (default)
  /// disables it (inverted dropout — no inference-time rescaling needed).
  void set_training(bool training) noexcept { training_ = training; }
  [[nodiscard]] bool is_training() const noexcept { return training_; }

 private:
  using RecurrentLayer = std::variant<LstmLayer, GruLayer>;

  /// The one layered forward kernel; draws dropout masks only when given a
  /// `dropout_rng`.
  tensor::Matrix run_forward(const std::vector<tensor::Matrix>& sequence,
                             ForwardCaches& caches, Rng* dropout_rng,
                             std::vector<tensor::Matrix>* masks) const;
  template <typename T>
  double forward_one_impl(std::span<const double> window, std::vector<T>& hbuf,
                          std::vector<T>& cbuf, std::vector<T>& scratch) const;

  LstmNetworkConfig config_;
  std::vector<RecurrentLayer> layers_;
  DenseLayer head_;
  bool training_ = false;
  bool packed_ = false;  ///< fused panels match the weights
  Rng dropout_rng_{0xd801u};
  // The training forward's caches, read by backward.
  ForwardCaches caches_;
  // One mask per non-final layer, shared across timesteps (variational
  // dropout style), shape (B x H); empty when dropout is inactive.
  std::vector<tensor::Matrix> dropout_masks_;
};

/// Process-wide toggle for int8 row-quantized fused inference. Resolved from
/// LD_QUANT=1 on first query; `ld_serve --quant` and tests override it
/// explicitly. Only affects forward_one — training and batched forward
/// always run fp64.
[[nodiscard]] bool quantized_inference_enabled();
void set_quantized_inference(bool enabled);

}  // namespace ld::nn
