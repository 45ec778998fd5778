#include "mlmodels/ensembles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace ld::ml {

TreeEnsemblePredictor::TreeEnsemblePredictor(EnsembleConfig config) : config_(std::move(config)) {
  if (config_.window == 0) throw std::invalid_argument("TreeEnsemble: window > 0");
  if (config_.kind != EnsembleKind::kDecisionTree && config_.n_trees == 0)
    throw std::invalid_argument("TreeEnsemble: n_trees > 0");
  if (config_.subsample <= 0.0 || config_.subsample > 1.0)
    throw std::invalid_argument("TreeEnsemble: subsample in (0,1]");
}

void TreeEnsemblePredictor::fit_xy(const tensor::Matrix& x, std::span<const double> y) {
  if (x.rows() != y.size() || x.rows() == 0)
    throw std::invalid_argument("TreeEnsemble::fit_xy: bad shapes");
  const std::size_t n = x.rows();
  Rng rng(config_.seed);
  trees_.clear();

  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;

  switch (config_.kind) {
    case EnsembleKind::kDecisionTree: {
      trees_.resize(1);
      trees_[0].fit(x, y, all, config_.tree, rng);
      break;
    }
    case EnsembleKind::kRandomForest:
    case EnsembleKind::kExtraTrees: {
      TreeConfig tc = config_.tree;
      if (tc.feature_subset == 0) {
        // Default mtry: ceil(D / 3), the standard regression-forest choice.
        tc.feature_subset = std::max<std::size_t>(1, (x.cols() + 2) / 3);
      }
      tc.random_thresholds = config_.kind == EnsembleKind::kExtraTrees;
      trees_.resize(config_.n_trees);
      const auto sample_size =
          static_cast<std::size_t>(std::ceil(config_.subsample * static_cast<double>(n)));
      // Each tree draws from its own seeded Rng and fills its own slot, so
      // the forest is bit-identical for any pool size.
      ThreadPool::global().parallel_for(0, config_.n_trees, [&](std::size_t t) {
        Rng tree_rng(config_.seed + 0x9e37 * (t + 1));
        std::vector<std::size_t> rows(sample_size);
        if (config_.kind == EnsembleKind::kRandomForest) {
          // Bootstrap with replacement.
          for (std::size_t i = 0; i < sample_size; ++i)
            rows[i] = static_cast<std::size_t>(
                tree_rng.uniform_int(0, static_cast<long long>(n) - 1));
        } else {
          // Extra-trees: full sample (no bootstrap), randomness from splits.
          rows.resize(n);
          for (std::size_t i = 0; i < n; ++i) rows[i] = i;
        }
        trees_[t].fit(x, y, rows, tc, tree_rng);
      });
      break;
    }
    case EnsembleKind::kGradientBoosting: {
      TreeConfig tc = config_.tree;
      tc.max_depth = std::min<std::size_t>(tc.max_depth, 3);  // shallow weak learners
      base_value_ = 0.0;
      for (const double v : y) base_value_ += v;
      base_value_ /= static_cast<double>(n);

      std::vector<double> residual(n);
      std::vector<double> current(n, base_value_);
      trees_.clear();
      trees_.reserve(config_.n_trees);
      for (std::size_t t = 0; t < config_.n_trees; ++t) {
        for (std::size_t i = 0; i < n; ++i) residual[i] = y[i] - current[i];
        RegressionTree tree;
        std::span<const std::size_t> rows_span(all);
        std::vector<std::size_t> sub;
        if (config_.subsample < 1.0) {
          const auto m = std::max<std::size_t>(
              2, static_cast<std::size_t>(config_.subsample * static_cast<double>(n)));
          sub = rng.permutation(n);
          sub.resize(m);
          rows_span = sub;
        }
        tree.fit(x, residual, rows_span, tc, rng);
        for (std::size_t i = 0; i < n; ++i)
          current[i] += config_.learning_rate * tree.predict(x.row(i));
        trees_.push_back(std::move(tree));
      }
      break;
    }
  }
  fitted_ = true;
}

void TreeEnsemblePredictor::fit(std::span<const double> history) {
  const std::size_t w = config_.window;
  if (history.size() < w + 4) {
    fitted_ = false;
    return;
  }
  std::size_t rows = history.size() - w;
  std::size_t first = 0;
  if (rows > config_.max_train_samples) {
    first = rows - config_.max_train_samples;
    rows = config_.max_train_samples;
  }
  tensor::Matrix x(rows, w);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < w; ++j) x(r, j) = history[first + r + j];
    y[r] = history[first + r + w];
  }
  fit_xy(x, y);
}

double TreeEnsemblePredictor::predict_features(std::span<const double> features) const {
  if (!fitted_) throw std::logic_error("TreeEnsemble::predict before fit");
  if (config_.kind == EnsembleKind::kGradientBoosting) {
    double pred = base_value_;
    for (const RegressionTree& tree : trees_)
      pred += config_.learning_rate * tree.predict(features);
    return pred;
  }
  double sum = 0.0;
  for (const RegressionTree& tree : trees_) sum += tree.predict(features);
  return sum / static_cast<double>(trees_.size());
}

double TreeEnsemblePredictor::predict_next(std::span<const double> history) const {
  if (history.empty()) throw std::invalid_argument("TreeEnsemble: empty history");
  if (!fitted_ || history.size() < config_.window) return history.back();
  const std::span<const double> window =
      history.subspan(history.size() - config_.window);
  return predict_features(window);
}

std::string TreeEnsemblePredictor::name() const {
  switch (config_.kind) {
    case EnsembleKind::kDecisionTree: return "decision_tree";
    case EnsembleKind::kRandomForest: return "random_forest";
    case EnsembleKind::kExtraTrees: return "extra_trees";
    case EnsembleKind::kGradientBoosting: return "gradient_boosting";
  }
  return "tree_ensemble";
}

EnsembleConfig decision_tree_config(std::size_t window) {
  EnsembleConfig c;
  c.kind = EnsembleKind::kDecisionTree;
  c.window = window;
  c.n_trees = 1;
  return c;
}

EnsembleConfig random_forest_config(std::size_t window, std::size_t n_trees) {
  EnsembleConfig c;
  c.kind = EnsembleKind::kRandomForest;
  c.window = window;
  c.n_trees = n_trees;
  return c;
}

EnsembleConfig extra_trees_config(std::size_t window, std::size_t n_trees) {
  EnsembleConfig c;
  c.kind = EnsembleKind::kExtraTrees;
  c.window = window;
  c.n_trees = n_trees;
  return c;
}

EnsembleConfig gradient_boosting_config(std::size_t window, std::size_t n_trees) {
  EnsembleConfig c;
  c.kind = EnsembleKind::kGradientBoosting;
  c.window = window;
  c.n_trees = n_trees;
  c.subsample = 0.8;
  return c;
}

}  // namespace ld::ml
