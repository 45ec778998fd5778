#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "fault/watchdog.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "timeseries/changepoint.hpp"

namespace ld::core {

void DriftMonitor::record(std::size_t step, double prediction) {
  log_.push_back({step, prediction});
  while (log_.size() > config_.monitor_window) log_.pop_front();
}

double DriftMonitor::recent_mape(std::span<const double> history,
                                 std::size_t first_step) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (const Logged& entry : log_) {
    if (entry.step < first_step) continue;  // actual trimmed away
    const std::size_t offset = entry.step - first_step;
    if (offset >= history.size()) continue;  // actual not known yet
    const double actual = history[offset];
    if (std::abs(actual) < 1e-12) continue;
    sum += std::abs((entry.prediction - actual) / actual);
    ++count;
  }
  if (count < config_.min_scored) return -1.0;  // not enough evidence
  return 100.0 * sum / static_cast<double>(count);
}

DriftDecision DriftMonitor::evaluate(std::span<const double> history, double baseline_mape,
                                     std::size_t last_fit_step,
                                     std::size_t first_step) const {
  DriftDecision decision;
  decision.recent_mape = recent_mape(history, first_step);
  const std::size_t now = first_step + history.size();
  const bool cooled_down = now >= last_fit_step + config_.cooldown;
  bool drift = decision.recent_mape >= 0.0 &&
               decision.recent_mape > std::max(config_.degradation_factor * baseline_mape,
                                               config_.absolute_mape_floor);
  if (!drift && config_.changepoint_trigger && cooled_down) {
    const std::size_t scan = std::min(history.size(), config_.changepoint_window);
    drift = ts::recent_changepoint(history.subspan(history.size() - scan),
                                   config_.monitor_window);
    decision.changepoint = drift;
  }
  decision.should_retrain = drift && cooled_down;
  return decision;
}

std::shared_ptr<TrainedModel> warm_retrain(std::span<const double> history_full,
                                           const Hyperparameters& incumbent,
                                           const AdaptiveConfig& config,
                                           std::size_t retrain_index) {
  LD_TRACE_SPAN("retrain.warm");
  // Warm retrains deliberately forget the distant past: after a drastic
  // pattern change, old-regime samples would dominate the loss and the new
  // pattern would never be learned.
  std::span<const double> history = history_full;
  if (config.retrain_history_cap > 0 && history.size() > config.retrain_history_cap)
    history = history.subspan(history.size() - config.retrain_history_cap);

  const auto n_val = std::max<std::size_t>(
      4, static_cast<std::size_t>(config.validation_fraction *
                                  static_cast<double>(history.size())));
  if (history.size() < n_val + 12)
    throw std::invalid_argument("warm_retrain: history too short to fit");
  const std::span<const double> train = history.subspan(0, history.size() - n_val);
  const std::span<const double> validation = history.subspan(history.size() - n_val);

  // The incumbent hyperparameters plus a few random probes.
  const HyperparameterSpace space = config.base.space.clamped_to_data(train.size());
  const auto search_space = space.to_search_space();
  Rng rng(config.base.seed + 0xada0 + retrain_index);

  std::vector<Hyperparameters> candidates{incumbent};
  for (std::size_t i = 0; i < config.refresh_candidates; ++i)
    candidates.push_back(
        space.from_values(search_space.to_values(search_space.sample_unit(rng))));

  // The retrain window is small by design, so give each candidate a longer
  // epoch budget and ensure the batch size still yields several gradient
  // updates per epoch — otherwise the refit would barely move the weights.
  ModelTrainingConfig training = config.base.training;
  training.trainer.max_epochs *= 3;
  training.trainer.patience *= 2;
  const std::size_t batch_cap = std::max<std::size_t>(8, train.size() / 8);

  std::shared_ptr<TrainedModel> best;
  for (Hyperparameters hp : candidates) {
    LD_TRACE_SPAN("retrain.candidate");
    hp.batch_size = std::min(hp.batch_size, batch_cap);
    try {
      auto model = std::make_shared<TrainedModel>(train, validation, hp, training,
                                                  config.base.seed + retrain_index);
      if (!best || model->validation_mape() < best->validation_mape())
        best = std::move(model);
    } catch (const fault::CancelledError&) {
      throw;  // a watchdog cancelled the whole retrain, not just this candidate
    } catch (const std::exception& e) {
      log::warn("adaptive retrain: ", hp.to_string(), " failed: ", e.what());
    }
  }
  return best;
}

AdaptiveLoadDynamics::AdaptiveLoadDynamics(AdaptiveConfig config) : config_(std::move(config)) {
  if (config_.drift.monitor_window == 0 || config_.validation_fraction <= 0.0 ||
      config_.validation_fraction >= 1.0)
    throw std::invalid_argument("AdaptiveLoadDynamics: bad monitor/validation config");
  monitor_ = DriftMonitor(config_.drift);
}

const Hyperparameters& AdaptiveLoadDynamics::current_hyperparameters() const {
  if (!model_) throw std::logic_error("AdaptiveLoadDynamics: not fitted");
  return model_->hyperparameters();
}

void AdaptiveLoadDynamics::refit(std::span<const double> history_full, bool full_search) const {
  if (full_search || !model_) {
    const auto n_val = std::max<std::size_t>(
        4, static_cast<std::size_t>(config_.validation_fraction *
                                    static_cast<double>(history_full.size())));
    if (history_full.size() < n_val + 12)
      throw std::invalid_argument("AdaptiveLoadDynamics: history too short to fit");
    const std::span<const double> train = history_full.subspan(0, history_full.size() - n_val);
    const std::span<const double> validation = history_full.subspan(history_full.size() - n_val);
    const LoadDynamics framework(config_.base);
    FitResult fit = framework.fit(train, validation);
    model_ = fit.model;
    baseline_mape_ = fit.best_record().validation_mape;
  } else {
    auto best = warm_retrain(history_full, model_->hyperparameters(), config_, retrains_);
    if (best) {
      model_ = std::move(best);
      baseline_mape_ = model_->validation_mape();
    }
  }
  last_fit_step_ = history_full.size();
  monitor_.reset();
}

void AdaptiveLoadDynamics::fit(std::span<const double> history) {
  refit(history, /*full_search=*/true);
  retrains_ = 0;
}

double AdaptiveLoadDynamics::predict_next(std::span<const double> history) const {
  if (history.empty()) throw std::invalid_argument("AdaptiveLoadDynamics: empty history");
  if (!model_) throw std::logic_error("AdaptiveLoadDynamics: predict before fit");

  const DriftDecision drift = monitor_.evaluate(history, baseline_mape_, last_fit_step_);
  if (drift.changepoint) log::info("adaptive: changepoint detected in recent window");
  if (drift.should_retrain) {
    obs::MetricsRegistry::global().counter("ld_adaptive_drift_total").inc();
    LD_TRACE_INSTANT("adaptive.drift");
    log::info("adaptive: drift detected (recent MAPE ", drift.recent_mape, "% vs baseline ",
              baseline_mape_, "%), retraining");
    refit(history, /*full_search=*/false);
    ++retrains_;
  }

  const double prediction = model_->predict_next(history);
  monitor_.record(history.size(), prediction);
  return prediction;
}

}  // namespace ld::core
