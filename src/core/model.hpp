// TrainedModel: a fitted LSTM predictor "A = (M, T)" (Fig. 3) bundled with
// its scaler and hyperparameters — the artifact step 4 of the workflow
// selects and step 5 uses for prediction.
#pragma once

#include <cstdint>
#include <memory>

#include "core/hyperparameters.hpp"
#include "nn/network.hpp"
#include "nn/scaler.hpp"
#include "nn/trainer.hpp"
#include "tensor/matrix.hpp"
#include "timeseries/predictor.hpp"

namespace ld::core {

struct ModelTrainingConfig {
  nn::TrainerConfig trainer;             ///< epochs / patience / learning rate
  std::size_t max_train_windows = 4000;  ///< cap dataset size (most recent windows)
};

/// Everything needed to reconstruct a trained model without retraining.
struct ModelSnapshot {
  Hyperparameters hyperparameters;
  std::size_t effective_window = 0;
  double scaler_min = 0.0;
  double scaler_max = 1.0;
  double validation_mape = 0.0;
  std::vector<double> weights;
};

class TrainedModel final : public ts::Predictor {
 public:
  /// Train a model with the given hyperparameters on `train`, early-stopping
  /// against `validation` (validation also provides the workflow's
  /// cross-validation MAPE). `validation` may be empty -> trains the full
  /// epoch budget and reports training MSE-based MAPE instead.
  TrainedModel(std::span<const double> train, std::span<const double> validation,
               const Hyperparameters& hp, const ModelTrainingConfig& config,
               std::uint64_t seed);

  TrainedModel(const TrainedModel&) = default;
  TrainedModel& operator=(const TrainedModel&) = delete;

  [[nodiscard]] const Hyperparameters& hyperparameters() const noexcept { return hp_; }
  /// Cross-validation MAPE computed during construction (step 2 of Fig. 6).
  [[nodiscard]] double validation_mape() const noexcept { return validation_mape_; }
  [[nodiscard]] const nn::TrainResult& training_result() const noexcept { return train_result_; }

  // ts::Predictor interface. The model is fixed after construction (the
  // paper's offline protocol); fit() is a no-op.
  void fit(std::span<const double>) override {}
  [[nodiscard]] double predict_next(std::span<const double> history) const override;
  [[nodiscard]] std::string name() const override { return "loaddynamics_lstm"; }
  [[nodiscard]] std::unique_ptr<Predictor> clone() const override {
    return std::make_unique<TrainedModel>(*this);
  }

  /// Whether predict_next on the calling thread takes the fused
  /// single-timestep path (nn::LstmNetwork::forward_one): exactly when the
  /// packed production kernel is selected. kReference keeps the layered
  /// path, which LD_VERIFY_DIFF shadows.
  [[nodiscard]] static bool fused_predict_live() noexcept {
    return tensor::kernel_mode() == tensor::KernelMode::kPacked;
  }

  /// Recursive multi-step forecast: each step feeds the previous prediction
  /// back as input.
  [[nodiscard]] std::vector<double> predict_horizon(std::span<const double> history,
                                                    std::size_t steps) const;

  /// One-step-ahead predictions for each point of `series` starting at
  /// `start` (teacher-forced walk-forward, as in the paper's testing).
  [[nodiscard]] std::vector<double> predict_series(std::span<const double> series,
                                                   std::size_t start) const;

  /// Persistence (see core/serialization.hpp for the file format).
  [[nodiscard]] ModelSnapshot snapshot() const;
  [[nodiscard]] static std::shared_ptr<TrainedModel> restore(const ModelSnapshot& snapshot);

 private:
  TrainedModel() = default;  // used by restore()
  Hyperparameters hp_;
  nn::MinMaxScaler scaler_;
  // Fixed once the weights are final (and packed); inference is const and
  // thread-safe, so copies and clones share it.
  std::shared_ptr<const nn::LstmNetwork> network_;
  nn::TrainResult train_result_;
  double validation_mape_ = 0.0;
  std::size_t effective_window_ = 0;  ///< history length after data clamping
};

}  // namespace ld::core
