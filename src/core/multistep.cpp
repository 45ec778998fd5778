#include "core/multistep.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/loss.hpp"

namespace ld::core {

void DirectMultiStepModel::gather_batch(std::span<const double> scaled,
                                        std::span<const std::size_t> indices,
                                        std::vector<tensor::Matrix>& x_seq,
                                        tensor::Matrix& y) const {
  const std::size_t b = indices.size();
  x_seq.assign(window_, tensor::Matrix(b, 1));
  y = tensor::Matrix(b, horizon_);
  for (std::size_t r = 0; r < b; ++r) {
    const std::size_t start = indices[r];
    for (std::size_t t = 0; t < window_; ++t) x_seq[t](r, 0) = scaled[start + t];
    for (std::size_t h = 0; h < horizon_; ++h) y(r, h) = scaled[start + window_ + h];
  }
}

DirectMultiStepModel::DirectMultiStepModel(std::span<const double> train,
                                           std::span<const double> validation,
                                           std::size_t horizon, const Hyperparameters& hp,
                                           const ModelTrainingConfig& config,
                                           std::uint64_t seed)
    : hp_(hp), horizon_(horizon) {
  if (horizon_ == 0) throw std::invalid_argument("DirectMultiStepModel: horizon > 0");
  if (train.size() < horizon_ + 8)
    throw std::invalid_argument("DirectMultiStepModel: training set too small");

  // A direct H-step head needs at least H-plus context; widen short windows
  // tuned for one-step prediction.
  window_ = std::max(hp.history_length, 2 * horizon_);
  window_ = std::min(window_, train.size() - horizon_ - 2);
  if (window_ == 0) window_ = 1;

  scaler_.fit(train);
  const std::vector<double> scaled = scaler_.transform(train);
  const std::size_t samples = scaled.size() - window_ - horizon_ + 1;

  network_ = std::make_shared<nn::LstmNetwork>(
      nn::LstmNetworkConfig{.input_size = 1,
                            .hidden_size = hp.cell_size,
                            .num_layers = hp.num_layers,
                            .output_size = horizon_,
                            .activation = hp.activation,
                            .dropout = hp.dropout},
      seed);

  // Inline trainer (the vector-target shape differs from nn::train's
  // scalar-target pipeline): Adam + clipping + simple epoch loop.
  nn::Adam adam({.learning_rate = hp.learning_rate > 0.0
                     ? hp.learning_rate
                     : config.trainer.learning_rate});
  {
    auto params = network_->parameters();
    auto grads = network_->gradients();
    for (std::size_t i = 0; i < params.size(); ++i) adam.attach(params[i], grads[i]);
  }
  Rng rng(seed ^ 0x351eedULL);
  const std::size_t batch_size = std::max<std::size_t>(1, std::min(hp.batch_size, samples));
  std::vector<tensor::Matrix> x_seq;
  tensor::Matrix y, dy;

  for (std::size_t epoch = 0; epoch < config.trainer.max_epochs; ++epoch) {
    const auto order = rng.permutation(samples);
    network_->set_training(true);
    for (std::size_t start = 0; start < order.size(); start += batch_size) {
      const std::size_t count = std::min(batch_size, order.size() - start);
      gather_batch(scaled, {order.data() + start, count}, x_seq, y);
      const tensor::Matrix pred = network_->forward_sequence(x_seq);
      dy = tensor::Matrix(count, horizon_);
      const double scale = 2.0 / static_cast<double>(count * horizon_);
      for (std::size_t r = 0; r < count; ++r)
        for (std::size_t h = 0; h < horizon_; ++h)
          dy(r, h) = scale * (pred(r, h) - y(r, h));
      network_->zero_grad();
      network_->backward_matrix(dy);
      adam.clip_gradients(config.trainer.grad_clip_norm);
      adam.step();
    }
    network_->set_training(false);
  }

  // Validation MAPE: forecast each H-block of the validation span once,
  // non-overlapping, teacher-forced context.
  if (!validation.empty() && validation.size() >= horizon_) {
    std::vector<double> context(train.begin(), train.end());
    std::vector<double> actual, predicted;
    for (std::size_t off = 0; off + horizon_ <= validation.size(); off += horizon_) {
      const std::vector<double> block = predict(context);
      for (std::size_t h = 0; h < horizon_; ++h) {
        actual.push_back(validation[off + h]);
        predicted.push_back(block[h]);
        context.push_back(validation[off + h]);
      }
    }
    validation_mape_ = metrics::mape(actual, predicted);
  }
}

std::vector<double> DirectMultiStepModel::predict(std::span<const double> history) const {
  if (history.empty()) throw std::invalid_argument("DirectMultiStepModel: empty history");
  std::vector<tensor::Matrix> x_seq(window_, tensor::Matrix(1, 1));
  for (std::size_t t = 0; t < window_; ++t) {
    const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(history.size()) -
                               static_cast<std::ptrdiff_t>(window_) +
                               static_cast<std::ptrdiff_t>(t);
    const double v = idx >= 0 ? history[static_cast<std::size_t>(idx)] : history.front();
    x_seq[t](0, 0) = scaler_.transform(v);
  }
  nn::LstmNetwork::ForwardCaches caches;
  const tensor::Matrix out = network_->forward_sequence(x_seq, caches);
  std::vector<double> forecast(horizon_);
  for (std::size_t h = 0; h < horizon_; ++h)
    forecast[h] = std::max(0.0, scaler_.inverse(out(0, h)));
  return forecast;
}

}  // namespace ld::core
