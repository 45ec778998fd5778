#include "nn/lstm_layer.hpp"

#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "nn/packed_weights.hpp"

namespace ld::nn {

namespace {
inline double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }
inline float sigmoid(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

LstmLayer::LstmLayer(std::size_t input_size, std::size_t hidden_size, Rng& rng,
                     Activation activation)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      activation_(activation),
      w_(4 * hidden_size, input_size),
      u_(4 * hidden_size, hidden_size),
      b_(4 * hidden_size, 0.0),
      dw_(4 * hidden_size, input_size),
      du_(4 * hidden_size, hidden_size),
      db_(4 * hidden_size, 0.0) {
  if (input_size == 0 || hidden_size == 0)
    throw std::invalid_argument("LstmLayer: zero-sized layer");
  // Glorot-uniform initialization per weight matrix.
  const double wl = std::sqrt(6.0 / static_cast<double>(input_size + hidden_size));
  for (double& v : w_.flat()) v = rng.uniform(-wl, wl);
  const double ul = std::sqrt(6.0 / static_cast<double>(2 * hidden_size));
  for (double& v : u_.flat()) v = rng.uniform(-ul, ul);
  // Forget-gate bias starts at 1 so early training does not erase the cell.
  for (std::size_t i = hidden_size; i < 2 * hidden_size; ++i) b_[i] = 1.0;
}

const std::vector<tensor::Matrix>& LstmLayer::forward(const std::vector<tensor::Matrix>& inputs,
                                                     RecurrentCache& cache) const {
  const std::size_t steps = inputs.size();
  if (steps == 0) throw std::invalid_argument("LstmLayer::forward: empty sequence");
  const std::size_t batch = inputs.front().rows();
  const std::size_t h4 = 4 * hidden_size_;

  cache.x = inputs;
  cache.gates.assign(steps, tensor::Matrix(batch, h4));
  cache.state.assign(steps, tensor::Matrix(batch, hidden_size_));
  cache.h.assign(steps, tensor::Matrix(batch, hidden_size_));

  // The previous step's state is read straight out of the caches (t = 0 reads
  // a shared zero matrix) instead of copying h/c into scratch every step.
  const tensor::Matrix zeros(batch, hidden_size_);
  const tensor::Matrix* h_prev = &zeros;
  const tensor::Matrix* c_prev = &zeros;

  for (std::size_t t = 0; t < steps; ++t) {
    if (inputs[t].rows() != batch || inputs[t].cols() != input_size_)
      throw std::invalid_argument("LstmLayer::forward: inconsistent input shape");
    tensor::Matrix& gates = cache.gates[t];
    // Pre-activations: gates = x_t W^T + h_{t-1} U^T + b.
    tensor::matmul_a_bt_into(inputs[t], w_, gates, /*accumulate=*/false);
    tensor::matmul_a_bt_into(*h_prev, u_, gates, /*accumulate=*/true);
    tensor::Matrix& c = cache.state[t];
    tensor::Matrix& h = cache.h[t];
    for (std::size_t r = 0; r < batch; ++r) {
      double* g = gates.data() + r * h4;
      const double* cp = c_prev->data() + r * hidden_size_;
      double* cr = c.data() + r * hidden_size_;
      double* hr = h.data() + r * hidden_size_;
      for (std::size_t j = 0; j < hidden_size_; ++j) {
        const double iv = sigmoid(g[j] + b_[j]);
        const double fv = sigmoid(g[hidden_size_ + j] + b_[hidden_size_ + j]);
        const double gv =
            activate(activation_, g[2 * hidden_size_ + j] + b_[2 * hidden_size_ + j]);
        const double ov = sigmoid(g[3 * hidden_size_ + j] + b_[3 * hidden_size_ + j]);
        g[j] = iv;
        g[hidden_size_ + j] = fv;
        g[2 * hidden_size_ + j] = gv;
        g[3 * hidden_size_ + j] = ov;
        const double cv = fv * cp[j] + iv * gv;
        cr[j] = cv;
        hr[j] = ov * activate(activation_, cv);
      }
    }
    h_prev = &h;
    c_prev = &c;
  }
  return cache.h;
}

std::vector<tensor::Matrix> LstmLayer::backward(const std::vector<tensor::Matrix>& dh_out,
                                               const RecurrentCache& cache) {
  const std::size_t steps = cache.x.size();
  const std::size_t batch = steps == 0 ? 0 : cache.x.front().rows();
  const std::size_t h4 = 4 * hidden_size_;
  if (dh_out.size() != steps) throw std::invalid_argument("LstmLayer::backward: step mismatch");

  std::vector<tensor::Matrix> dx(steps, tensor::Matrix(batch, input_size_));
  tensor::Matrix dh_next(batch, hidden_size_);  // dL/dh_t from t+1 recurrence
  tensor::Matrix dc_next(batch, hidden_size_);  // dL/dC_t from t+1 recurrence
  tensor::Matrix dgates(batch, h4);             // pre-activation gate grads

  for (std::size_t tt = steps; tt > 0; --tt) {
    const std::size_t t = tt - 1;
    const tensor::Matrix& gates = cache.gates[t];
    const tensor::Matrix& c = cache.state[t];
    const tensor::Matrix* c_prev = t > 0 ? &cache.state[t - 1] : nullptr;
    const tensor::Matrix* h_prev = t > 0 ? &cache.h[t - 1] : nullptr;

    for (std::size_t r = 0; r < batch; ++r) {
      const double* g = gates.data() + r * h4;
      const double* cr = c.data() + r * hidden_size_;
      const double* cpr = c_prev ? c_prev->data() + r * hidden_size_ : nullptr;
      const double* dho = dh_out[t].data() + r * hidden_size_;
      double* dhn = dh_next.data() + r * hidden_size_;
      double* dcn = dc_next.data() + r * hidden_size_;
      double* dg = dgates.data() + r * h4;
      for (std::size_t j = 0; j < hidden_size_; ++j) {
        const double iv = g[j];
        const double fv = g[hidden_size_ + j];
        const double gv = g[2 * hidden_size_ + j];
        const double ov = g[3 * hidden_size_ + j];
        const double tc = activate(activation_, cr[j]);
        const double dh = dho[j] + dhn[j];
        const double dc = dcn[j] + dh * ov * activate_grad_from_output(activation_, tc);
        const double cprev = cpr ? cpr[j] : 0.0;
        // Post-activation gradients.
        const double di = dc * gv;
        const double df = dc * cprev;
        const double dgv = dc * iv;
        const double dov = dh * tc;
        // Pre-activation gradients.
        dg[j] = di * iv * (1.0 - iv);
        dg[hidden_size_ + j] = df * fv * (1.0 - fv);
        dg[2 * hidden_size_ + j] = dgv * activate_grad_from_output(activation_, gv);
        dg[3 * hidden_size_ + j] = dov * ov * (1.0 - ov);
        dcn[j] = dc * fv;  // becomes dc_next for t-1
      }
    }

    // Weight gradients: dW += dG^T x_t ; dU += dG^T h_{t-1} ; db += colsum(dG).
    tensor::matmul_at_b_into(dgates, cache.x[t], dw_, /*accumulate=*/true);
    if (h_prev != nullptr) tensor::matmul_at_b_into(dgates, *h_prev, du_, /*accumulate=*/true);
    for (std::size_t r = 0; r < batch; ++r) {
      const double* dg = dgates.data() + r * h4;
      for (std::size_t k = 0; k < h4; ++k) db_[k] += dg[k];
    }

    // Input and recurrent propagation: dx_t = dG W ; dh_{t-1} = dG U.
    tensor::matmul_into(dgates, w_, dx[t], /*accumulate=*/false);
    dh_next.fill(0.0);
    tensor::matmul_into(dgates, u_, dh_next, /*accumulate=*/false);
  }
  return dx;
}

void LstmLayer::zero_grad() noexcept {
  dw_.fill(0.0);
  du_.fill(0.0);
  for (double& v : db_) v = 0.0;
}

std::vector<std::span<double>> LstmLayer::parameters() {
  return {w_.flat(), u_.flat(), {b_.data(), b_.size()}};
}

std::vector<std::span<const double>> LstmLayer::parameters() const {
  return {w_.flat(), u_.flat(), {b_.data(), b_.size()}};
}

void LstmLayer::pack() {
  pack_transposed(w_, wt_);
  pack_transposed(u_, ut_);
  quantize_rows_transposed(w_, wtq_);
  quantize_rows_transposed(u_, utq_);
  bq_.assign(b_.begin(), b_.end());
}

template <typename T>
void LstmLayer::step_fused(const T* x, T* h, T* c, T* scratch) const {
  constexpr bool kQuant = std::is_same_v<T, float>;
  const std::size_t H = hidden_size_;
  const std::size_t h4 = 4 * H;
  const auto* wt = [&] {
    if constexpr (kQuant) return wtq_.data();
    else return wt_.data();
  }();
  const auto* ut = [&] {
    if constexpr (kQuant) return utq_.data();
    else return ut_.data();
  }();
  T* pre = scratch;
  for (std::size_t j = 0; j < h4; ++j) pre[j] = T(0);
  for (std::size_t i = 0; i < input_size_; ++i) {
    const T xv = x[i];
    const auto* row = wt + i * h4;
    for (std::size_t j = 0; j < h4; ++j) pre[j] += xv * static_cast<T>(row[j]);
  }
  for (std::size_t k = 0; k < H; ++k) {
    const T hv = h[k];
    const auto* row = ut + k * h4;
    for (std::size_t j = 0; j < h4; ++j) pre[j] += hv * static_cast<T>(row[j]);
  }
  for (std::size_t j = 0; j < H; ++j) {
    const T bi = kQuant ? static_cast<T>(bq_[j]) : static_cast<T>(b_[j]);
    const T bf = kQuant ? static_cast<T>(bq_[H + j]) : static_cast<T>(b_[H + j]);
    const T bg = kQuant ? static_cast<T>(bq_[2 * H + j]) : static_cast<T>(b_[2 * H + j]);
    const T bo = kQuant ? static_cast<T>(bq_[3 * H + j]) : static_cast<T>(b_[3 * H + j]);
    const T iv = sigmoid(pre[j] + bi);
    const T fv = sigmoid(pre[H + j] + bf);
    const T gv = activate(activation_, pre[2 * H + j] + bg);
    const T ov = sigmoid(pre[3 * H + j] + bo);
    const T cv = fv * c[j] + iv * gv;
    c[j] = cv;
    h[j] = ov * activate(activation_, cv);
  }
}

template void LstmLayer::step_fused<double>(const double*, double*, double*,
                                            double*) const;
template void LstmLayer::step_fused<float>(const float*, float*, float*, float*) const;

std::vector<std::span<double>> LstmLayer::gradients() {
  return {dw_.flat(), du_.flat(), {db_.data(), db_.size()}};
}

std::size_t LstmLayer::parameter_count() const noexcept {
  return w_.size() + u_.size() + b_.size();
}

}  // namespace ld::nn
