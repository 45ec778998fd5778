// Example: online adaptive prediction (the paper's Section V extension).
//
// Simulates a workload whose pattern changes drastically mid-stream (a 3x
// level jump plus a different seasonality), runs a frozen LoadDynamics model
// and the AdaptiveLoadDynamics variant side by side, and shows how the
// adaptive predictor detects the drift, retrains itself, and recovers.
//
// Usage: ./build/examples/adaptive_online [--seed 7]
#include <cmath>
#include <cstdio>
#include <numbers>

#include "common/cli.hpp"
#include "common/metrics.hpp"
#include "core/adaptive.hpp"
#include "core/loaddynamics.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace ld;
  const cli::Args args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  // A workload that changes identity at t = 480: level x3, period 24 -> 16.
  const std::size_t total = 720, fit_until = 440, break_at = 480;
  std::vector<double> series(total);
  for (std::size_t i = 0; i < total; ++i) {
    const bool before = i < break_at;
    const double level = before ? 200.0 : 600.0;
    const double period = before ? 24.0 : 16.0;
    series[i] = level + 0.3 * level *
                            std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / period);
  }

  core::AdaptiveConfig cfg;
  cfg.base.space = core::HyperparameterSpace::reduced();
  cfg.base.max_iterations = 8;
  cfg.base.training.trainer.max_epochs = 25;
  cfg.base.training.trainer.learning_rate = 1e-2;
  cfg.base.seed = seed;
  cfg.drift.monitor_window = 16;
  cfg.drift.cooldown = 16;

  // Frozen reference: plain LoadDynamics, never retrained after fit.
  const core::LoadDynamics frozen_framework(cfg.base);
  const std::span<const double> all(series);
  const core::FitResult frozen = frozen_framework.fit(
      all.subspan(0, fit_until - 80), all.subspan(fit_until - 80, 80));

  core::AdaptiveLoadDynamics adaptive(cfg);
  adaptive.fit(all.subspan(0, fit_until));
  std::printf("initial predictor %s (validation MAPE %.1f%%)\n",
              adaptive.current_hyperparameters().to_string().c_str(),
              adaptive.baseline_mape());

  std::vector<double> frozen_preds, adaptive_preds;
  for (std::size_t t = fit_until; t < total; ++t) {
    const auto hist = all.subspan(0, t);
    frozen_preds.push_back(frozen.predictor().predict_next(hist));
    adaptive_preds.push_back(adaptive.predict_next(hist));
  }
  std::printf("drift retrains triggered: %zu (final predictor %s)\n",
              adaptive.retrain_count(),
              adaptive.current_hyperparameters().to_string().c_str());

  auto window_mape = [&](const std::vector<double>& preds, std::size_t from, std::size_t to) {
    const std::span<const double> actual(series.data() + fit_until + from, to - from);
    const std::span<const double> predicted(preds.data() + from, to - from);
    return metrics::mape(actual, predicted);
  };
  const std::size_t rel_break = break_at - fit_until;
  std::printf("\n%-26s%12s%12s\n", "phase", "frozen %", "adaptive %");
  std::printf("%-26s%12.1f%12.1f\n", "before the pattern change",
              window_mape(frozen_preds, 0, rel_break), window_mape(adaptive_preds, 0, rel_break));
  std::printf("%-26s%12.1f%12.1f\n", "transition (first 64)",
              window_mape(frozen_preds, rel_break, rel_break + 64),
              window_mape(adaptive_preds, rel_break, rel_break + 64));
  std::printf("%-26s%12.1f%12.1f\n", "after adaptation",
              window_mape(frozen_preds, rel_break + 64, total - fit_until),
              window_mape(adaptive_preds, rel_break + 64, total - fit_until));
  std::printf(
      "\nThe adaptive variant should match the frozen model before the change and\n"
      "be substantially more accurate after it.\n");
  return 0;
}
