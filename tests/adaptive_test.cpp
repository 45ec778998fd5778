// AdaptiveLoadDynamics: drift detection, cooldown, and the headline
// behaviour — recovering accuracy after a regime change that a frozen model
// cannot handle (the paper's Section V motivation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/metrics.hpp"
#include "core/adaptive.hpp"

namespace {

using namespace ld::core;

AdaptiveConfig quick_adaptive() {
  AdaptiveConfig cfg;
  cfg.base.space = HyperparameterSpace::reduced();
  cfg.base.space.history_max = 24;
  cfg.base.space.cell_max = 12;
  cfg.base.space.layers_max = 1;
  cfg.base.max_iterations = 5;
  cfg.base.initial_random = 3;
  cfg.base.training.trainer.max_epochs = 15;
  cfg.base.training.trainer.learning_rate = 1e-2;
  cfg.drift.monitor_window = 16;
  cfg.drift.min_scored = 6;
  cfg.drift.cooldown = 16;
  cfg.drift.degradation_factor = 2.0;
  cfg.drift.absolute_mape_floor = 12.0;
  return cfg;
}

/// Seasonal series whose level jumps 3x at `break_at` — a regime change.
std::vector<double> regime_series(std::size_t n, std::size_t break_at) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double level = i < break_at ? 100.0 : 300.0;
    out[i] = level +
             0.3 * level * std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 12.0);
  }
  return out;
}

/// Flat level + deterministic noise jumping 3x at `break_at`. Unlike the
/// seasonal regime_series, the pre-break segment is homogeneous, so the
/// binary-segmentation changepoint detector fires only at the real break.
std::vector<double> noisy_step_series(std::size_t n, std::size_t break_at) {
  std::vector<double> out(n);
  std::uint64_t state = 12345;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double noise =
        static_cast<double>(state >> 11) / static_cast<double>(1ULL << 53) - 0.5;
    const double level = i < break_at ? 100.0 : 300.0;
    out[i] = level * (1.0 + 0.1 * noise);
  }
  return out;
}

TEST(Adaptive, ChangepointTriggerRetrainsEvenWhenErrorMonitorIsDisabled) {
  const std::size_t break_at = 330;
  const auto series = noisy_step_series(460, break_at);

  AdaptiveConfig cfg = quick_adaptive();
  // Disable the error-drift trigger entirely so only the changepoint
  // detector can queue a retrain.
  cfg.drift.degradation_factor = 1e9;
  cfg.drift.absolute_mape_floor = 1e9;
  cfg.drift.cooldown = 32;
  cfg.drift.changepoint_trigger = true;
  cfg.drift.changepoint_window = 128;

  AdaptiveLoadDynamics with_trigger(cfg);
  with_trigger.fit(std::span<const double>(series).subspan(0, 300));
  for (std::size_t t = 300; t < 420; ++t)
    (void)with_trigger.predict_next(std::span<const double>(series).subspan(0, t));
  EXPECT_GE(with_trigger.retrain_count(), 1u)
      << "mean shift must fire the changepoint trigger";

  // Control: same stream, trigger off -> the disabled error monitor alone
  // must never retrain.
  cfg.drift.changepoint_trigger = false;
  AdaptiveLoadDynamics without_trigger(cfg);
  without_trigger.fit(std::span<const double>(series).subspan(0, 300));
  for (std::size_t t = 300; t < 420; ++t)
    (void)without_trigger.predict_next(std::span<const double>(series).subspan(0, t));
  EXPECT_EQ(without_trigger.retrain_count(), 0u);
}

TEST(Adaptive, PredictsWithoutDriftAndNeverRetrains) {
  const auto series = regime_series(400, 10000);  // no break
  AdaptiveLoadDynamics adaptive(quick_adaptive());
  adaptive.fit(std::span<const double>(series).subspan(0, 300));
  for (std::size_t t = 300; t < 400; ++t) {
    const auto hist = std::span<const double>(series).subspan(0, t);
    const double p = adaptive.predict_next(hist);
    EXPECT_TRUE(std::isfinite(p));
  }
  EXPECT_EQ(adaptive.retrain_count(), 0u)
      << "stationary workload must not trigger retraining";
}

TEST(Adaptive, DetectsRegimeChangeAndRecovers) {
  const std::size_t break_at = 330;
  const auto series = regime_series(500, break_at);

  AdaptiveLoadDynamics adaptive(quick_adaptive());
  adaptive.fit(std::span<const double>(series).subspan(0, 300));
  const double baseline = adaptive.baseline_mape();

  std::vector<double> preds;
  for (std::size_t t = 300; t < 500; ++t) {
    const auto hist = std::span<const double>(series).subspan(0, t);
    preds.push_back(adaptive.predict_next(hist));
  }
  EXPECT_GE(adaptive.retrain_count(), 1u) << "3x level jump must register as drift";

  // After adaptation, the tail should be predicted decently again.
  const std::span<const double> tail_actual(series.data() + 440, 60);
  const std::span<const double> tail_preds(preds.data() + 140, 60);
  const double tail_mape = ld::metrics::mape(tail_actual, tail_preds);
  EXPECT_LT(tail_mape, std::max(5.0 * baseline, 25.0))
      << "adaptive model should recover after the regime change";
}

TEST(Adaptive, FrozenModelIsWorseAfterRegimeChange) {
  const std::size_t break_at = 330;
  const auto series = regime_series(500, break_at);
  const AdaptiveConfig cfg = quick_adaptive();

  // Frozen: plain LoadDynamics fit, never retrained.
  const LoadDynamics framework(cfg.base);
  const FitResult fit = framework.fit(std::span<const double>(series).subspan(0, 240),
                                      std::span<const double>(series).subspan(240, 60));
  const auto frozen_preds = fit.predictor().predict_series(series, 360);

  AdaptiveLoadDynamics adaptive(cfg);
  adaptive.fit(std::span<const double>(series).subspan(0, 300));
  std::vector<double> adaptive_preds;
  for (std::size_t t = 300; t < 500; ++t) {
    const auto hist = std::span<const double>(series).subspan(0, t);
    adaptive_preds.push_back(adaptive.predict_next(hist));
  }

  const std::span<const double> tail(series.data() + 440, 60);
  const std::span<const double> frozen_tail(frozen_preds.data() + 80, 60);
  const std::span<const double> adaptive_tail(adaptive_preds.data() + 140, 60);
  EXPECT_LT(ld::metrics::mape(tail, adaptive_tail), ld::metrics::mape(tail, frozen_tail));
}

TEST(Adaptive, CooldownLimitsRetrainRate) {
  const auto series = regime_series(460, 320);
  AdaptiveConfig cfg = quick_adaptive();
  cfg.drift.cooldown = 1000;  // effectively one retrain max in this window
  AdaptiveLoadDynamics adaptive(cfg);
  adaptive.fit(std::span<const double>(series).subspan(0, 300));
  for (std::size_t t = 300; t < 460; ++t) {
    const auto hist = std::span<const double>(series).subspan(0, t);
    (void)adaptive.predict_next(hist);
  }
  EXPECT_LE(adaptive.retrain_count(), 1u);
}

TEST(Adaptive, UsageErrors) {
  AdaptiveConfig bad = quick_adaptive();
  bad.drift.monitor_window = 0;
  EXPECT_THROW(AdaptiveLoadDynamics{bad}, std::invalid_argument);

  AdaptiveLoadDynamics unfitted(quick_adaptive());
  const std::vector<double> series{1.0, 2.0};
  EXPECT_THROW((void)unfitted.predict_next(series), std::logic_error);
  EXPECT_THROW((void)unfitted.current_hyperparameters(), std::logic_error);
}

}  // namespace
