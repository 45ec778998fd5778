// AdaptiveLoadDynamics — the "Online Adaptive Modeling" extension the paper
// sketches as future work (Section V).
//
// Wraps a LoadDynamics-trained model with a drift monitor: recent one-step
// forecasts are scored against the actuals once they become known, and when
// the rolling error degrades well past the model's cross-validation error
// (a previously-unobserved pattern), the predictor retrains itself on the
// up-to-date history. The retrain warm-starts from the incumbent
// hyperparameters and explores a few fresh configurations, so adaptation
// stays orders of magnitude cheaper than the initial search.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "core/loaddynamics.hpp"
#include "timeseries/predictor.hpp"

namespace ld::core {

/// Drift-detection knobs shared by AdaptiveLoadDynamics and the serving
/// layer's per-workload monitors (see serving/service.hpp).
struct DriftConfig {
  std::size_t monitor_window = 24;    ///< recent forecasts scored for drift
  std::size_t min_scored = 8;         ///< don't judge drift on fewer samples
  double degradation_factor = 2.5;    ///< drift when recent MAPE > factor * baseline
  double absolute_mape_floor = 15.0;  ///< ...and above this floor (%), so tiny
                                      ///< baselines don't trigger on noise
  std::size_t cooldown = 24;          ///< min intervals between retrains
  /// Also retrain when a mean-shift changepoint lands in the recent window —
  /// catches regime changes the error monitor is slow to notice (e.g. shifts
  /// the old model happens to track for a while).
  bool changepoint_trigger = false;
  std::size_t changepoint_window = 256;  ///< history suffix scanned per check
};

struct DriftDecision {
  bool should_retrain = false;
  bool changepoint = false;    ///< the trigger was a changepoint, not the error
  double recent_mape = -1.0;   ///< -1 = fewer than min_scored forecasts scored
};

/// Scores logged one-step forecasts against the actuals once they arrive and
/// decides when the model has drifted. Steps are *absolute* observation
/// indices: pass `first_step` when `history` is a trimmed tail of the full
/// series (the serving layer caps per-workload history), or leave it 0 when
/// `history` starts at the beginning (AdaptiveLoadDynamics).
class DriftMonitor {
 public:
  DriftMonitor() = default;
  explicit DriftMonitor(DriftConfig config) : config_(config) {}

  /// Log the one-step forecast of the value at absolute index `step`.
  void record(std::size_t step, double prediction);

  /// MAPE of logged forecasts whose actuals are already inside `history`
  /// (covering absolute steps [first_step, first_step + history.size())).
  /// Returns -1 when fewer than `min_scored` forecasts could be scored.
  [[nodiscard]] double recent_mape(std::span<const double> history,
                                   std::size_t first_step = 0) const;

  /// Full drift decision as of "now" = first_step + history.size().
  [[nodiscard]] DriftDecision evaluate(std::span<const double> history, double baseline_mape,
                                       std::size_t last_fit_step,
                                       std::size_t first_step = 0) const;

  void reset() { log_.clear(); }
  [[nodiscard]] std::size_t logged() const noexcept { return log_.size(); }
  [[nodiscard]] const DriftConfig& config() const noexcept { return config_; }

 private:
  DriftConfig config_;
  struct Logged {
    std::size_t step;
    double prediction;
  };
  std::deque<Logged> log_;
};

struct AdaptiveConfig {
  LoadDynamicsConfig base;            ///< used for the initial fit
  DriftConfig drift;                  ///< when the monitor calls a retrain
  std::size_t refresh_candidates = 3; ///< random configs tried per retrain
                                      ///< (plus the incumbent hyperparameters)
  double validation_fraction = 0.25;  ///< history tail used as CV on retrain
  std::size_t retrain_history_cap = 120;  ///< warm retrains use only this many
                                          ///< recent intervals (0 = all), so the
                                          ///< new pattern dominates the fit
};

/// One warm retrain round, shared by AdaptiveLoadDynamics and the serving
/// layer's background retrain worker: train the incumbent hyperparameters
/// plus `refresh_candidates` random probes on the (capped) recent history and
/// return the lowest-validation-MAPE model. `retrain_index` seeds the probe
/// RNG so successive retrains explore fresh configurations deterministically.
/// Returns nullptr when every candidate training failed; throws
/// std::invalid_argument when the history is too short to split.
[[nodiscard]] std::shared_ptr<TrainedModel> warm_retrain(std::span<const double> history,
                                                         const Hyperparameters& incumbent,
                                                         const AdaptiveConfig& config,
                                                         std::size_t retrain_index);

class AdaptiveLoadDynamics final : public ts::Predictor {
 public:
  explicit AdaptiveLoadDynamics(AdaptiveConfig config);
  AdaptiveLoadDynamics(const AdaptiveLoadDynamics&) = default;

  /// Initial self-optimized fit (full LoadDynamics workflow). The last
  /// `validation_fraction` of `history` is used for cross-validation.
  void fit(std::span<const double> history) override;

  /// One-step forecast; transparently monitors drift and retrains when the
  /// recent error degrades (mutable internal state, like an online system).
  [[nodiscard]] double predict_next(std::span<const double> history) const override;

  [[nodiscard]] std::string name() const override { return "loaddynamics_adaptive"; }
  [[nodiscard]] std::unique_ptr<Predictor> clone() const override {
    return std::make_unique<AdaptiveLoadDynamics>(*this);
  }

  [[nodiscard]] std::size_t retrain_count() const noexcept { return retrains_; }
  [[nodiscard]] double baseline_mape() const noexcept { return baseline_mape_; }
  [[nodiscard]] const Hyperparameters& current_hyperparameters() const;

 private:
  void refit(std::span<const double> history, bool full_search) const;

  AdaptiveConfig config_;
  mutable std::shared_ptr<TrainedModel> model_;
  mutable double baseline_mape_ = 0.0;
  mutable std::size_t last_fit_step_ = 0;
  mutable std::size_t retrains_ = 0;
  mutable DriftMonitor monitor_;
};

}  // namespace ld::core
