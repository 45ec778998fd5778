// Exactness of the analytic BPTT gradients: every parameter of every layer
// type is checked against central finite differences. This is the test that
// guarantees the from-scratch LSTM is the model of Fig. 4.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "nn/dense.hpp"
#include "nn/lstm_layer.hpp"
#include "nn/network.hpp"

namespace {

using ld::Rng;
using ld::nn::LstmNetwork;
using ld::nn::LstmNetworkConfig;
using ld::tensor::Matrix;

// Loss: 0.5 * sum(pred^2) so dL/dpred = pred; simple and sensitive.
double loss_of(LstmNetwork& net, const Matrix& x) {
  const std::vector<double> out = net.forward(x);
  double loss = 0.0;
  for (const double v : out) loss += 0.5 * v * v;
  return loss;
}

struct GradCheckCase {
  std::size_t hidden;
  std::size_t layers;
  std::size_t batch;
  std::size_t steps;
};

class LstmGradCheck : public ::testing::TestWithParam<GradCheckCase> {};

TEST_P(LstmGradCheck, AnalyticMatchesFiniteDifference) {
  const GradCheckCase param = GetParam();
  LstmNetwork net({.input_size = 1, .hidden_size = param.hidden, .num_layers = param.layers},
                  /*seed=*/99);

  Rng rng(1234);
  Matrix x(param.batch, param.steps);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);

  // Analytic gradients.
  const std::vector<double> out = net.forward(x);
  std::vector<double> dy(out);  // dL/dy = y for the quadratic loss
  net.zero_grad();
  net.backward(dy);

  auto params = net.parameters();
  auto grads = net.gradients();
  ASSERT_EQ(params.size(), grads.size());

  const double eps = 1e-5;
  std::size_t checked = 0;
  for (std::size_t s = 0; s < params.size(); ++s) {
    // Spot-check a few entries per tensor to keep runtime sane.
    const std::size_t stride = std::max<std::size_t>(1, params[s].size() / 7);
    for (std::size_t i = 0; i < params[s].size(); i += stride) {
      const double orig = params[s][i];
      params[s][i] = orig + eps;
      const double lp = loss_of(net, x);
      params[s][i] = orig - eps;
      const double lm = loss_of(net, x);
      params[s][i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic = grads[s][i];
      const double scale = std::max({1.0, std::abs(numeric), std::abs(analytic)});
      EXPECT_NEAR(analytic, numeric, 1e-5 * scale)
          << "tensor " << s << " index " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LstmGradCheck,
    ::testing::Values(GradCheckCase{3, 1, 2, 4}, GradCheckCase{4, 2, 3, 5},
                      GradCheckCase{2, 3, 1, 6}, GradCheckCase{5, 1, 4, 3},
                      GradCheckCase{3, 2, 2, 8}));

TEST(DenseGradCheck, AnalyticMatchesFiniteDifference) {
  Rng rng(7);
  ld::nn::DenseLayer dense(4, 2, rng);
  Matrix x(3, 4);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);

  Matrix cache_x;  // the forward's input, which backward reads
  const Matrix y = dense.forward(x, cache_x);
  Matrix dy(3, 2);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 2; ++c) dy(r, c) = y(r, c);
  dense.zero_grad();
  const Matrix dx = dense.backward(dy, cache_x);

  auto params = dense.parameters();
  auto grads = dense.gradients();
  const double eps = 1e-6;
  for (std::size_t s = 0; s < params.size(); ++s) {
    for (std::size_t i = 0; i < params[s].size(); ++i) {
      const double orig = params[s][i];
      auto loss = [&] {
        const Matrix out = dense.forward(x, cache_x);
        double l = 0.0;
        for (const double v : out.flat()) l += 0.5 * v * v;
        return l;
      };
      params[s][i] = orig + eps;
      const double lp = loss();
      params[s][i] = orig - eps;
      const double lm = loss();
      params[s][i] = orig;
      EXPECT_NEAR(grads[s][i], (lp - lm) / (2.0 * eps), 1e-4);
    }
  }

  // Input gradient too.
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      const double orig = x(r, c);
      x(r, c) = orig + eps;
      const Matrix yp = dense.forward(x, cache_x);
      x(r, c) = orig - eps;
      const Matrix ym = dense.forward(x, cache_x);
      x(r, c) = orig;
      double lp = 0.0, lm = 0.0;
      for (const double v : yp.flat()) lp += 0.5 * v * v;
      for (const double v : ym.flat()) lm += 0.5 * v * v;
      EXPECT_NEAR(dx(r, c), (lp - lm) / (2.0 * eps), 1e-4);
    }
}

}  // namespace
