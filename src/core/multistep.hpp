// Direct multi-step forecasting (the "interval(s)" of the paper's problem
// definition): one LSTM with an H-wide head predicts J_{i..i+H-1} in one
// shot, avoiding the error accumulation of recursively feeding predictions
// back (TrainedModel::predict_horizon). bench/ablation_multistep compares
// the two strategies.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hyperparameters.hpp"
#include "core/model.hpp"
#include "nn/network.hpp"
#include "nn/scaler.hpp"

namespace ld::core {

class DirectMultiStepModel {
 public:
  /// Train on `train` with early stopping against `validation`; forecasts
  /// `horizon` steps at once. Hyperparameters have the same meaning as for
  /// TrainedModel.
  DirectMultiStepModel(std::span<const double> train, std::span<const double> validation,
                       std::size_t horizon, const Hyperparameters& hp,
                       const ModelTrainingConfig& config, std::uint64_t seed);

  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }
  [[nodiscard]] const Hyperparameters& hyperparameters() const noexcept { return hp_; }
  [[nodiscard]] double validation_mape() const noexcept { return validation_mape_; }

  /// Forecast the next `horizon()` JARs from the end of `history`.
  [[nodiscard]] std::vector<double> predict(std::span<const double> history) const;

 private:
  /// Builds (X, Y) where each row pairs a window with its next H values.
  void gather_batch(std::span<const double> scaled, std::span<const std::size_t> indices,
                    std::vector<tensor::Matrix>& x_seq, tensor::Matrix& y) const;

  Hyperparameters hp_;
  std::size_t horizon_;
  std::size_t window_ = 0;
  nn::MinMaxScaler scaler_;
  std::shared_ptr<nn::LstmNetwork> network_;
  double validation_mape_ = 0.0;
};

}  // namespace ld::core
