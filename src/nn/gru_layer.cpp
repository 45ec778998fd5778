#include "nn/gru_layer.hpp"

#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "nn/packed_weights.hpp"

namespace ld::nn {

namespace {
inline double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }
inline float sigmoid(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

GruLayer::GruLayer(std::size_t input_size, std::size_t hidden_size, Rng& rng,
                   Activation activation)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      activation_(activation),
      w_(3 * hidden_size, input_size),
      u_(3 * hidden_size, hidden_size),
      b_(3 * hidden_size, 0.0),
      dw_(3 * hidden_size, input_size),
      du_(3 * hidden_size, hidden_size),
      db_(3 * hidden_size, 0.0) {
  if (input_size == 0 || hidden_size == 0)
    throw std::invalid_argument("GruLayer: zero-sized layer");
  const double wl = std::sqrt(6.0 / static_cast<double>(input_size + hidden_size));
  for (double& v : w_.flat()) v = rng.uniform(-wl, wl);
  const double ul = std::sqrt(6.0 / static_cast<double>(2 * hidden_size));
  for (double& v : u_.flat()) v = rng.uniform(-ul, ul);
}

const std::vector<tensor::Matrix>& GruLayer::forward(const std::vector<tensor::Matrix>& inputs,
                                                    RecurrentCache& cache) const {
  const std::size_t steps = inputs.size();
  if (steps == 0) throw std::invalid_argument("GruLayer::forward: empty sequence");
  const std::size_t batch = inputs.front().rows();
  const std::size_t h3 = 3 * hidden_size_;

  cache.x = inputs;
  cache.gates.assign(steps, tensor::Matrix(batch, h3));
  cache.state.assign(steps, tensor::Matrix(batch, hidden_size_));
  cache.h.assign(steps, tensor::Matrix(batch, hidden_size_));

  // Previous hidden state is read from the cache (zeros at t = 0) rather
  // than copied into scratch every step.
  const tensor::Matrix zeros(batch, hidden_size_);
  const tensor::Matrix* h_prev = &zeros;
  tensor::Matrix zr_pre(batch, h3);  // pre-activations from x and h

  for (std::size_t t = 0; t < steps; ++t) {
    if (inputs[t].rows() != batch || inputs[t].cols() != input_size_)
      throw std::invalid_argument("GruLayer::forward: inconsistent input shape");
    // Pre-activations for all three blocks from x; z and r also from h.
    tensor::matmul_a_bt_into(inputs[t], w_, zr_pre, /*accumulate=*/false);
    tensor::matmul_a_bt_into(*h_prev, u_, zr_pre, /*accumulate=*/true);
    // Note: the accumulated g-block currently holds U_g h (not U_g (r⊙h));
    // we recompute the g pre-activation below once r is known.

    tensor::Matrix& gates = cache.gates[t];
    tensor::Matrix& rh = cache.state[t];
    tensor::Matrix& h = cache.h[t];

    // First pass: z and r.
    for (std::size_t rI = 0; rI < batch; ++rI) {
      const double* pre = zr_pre.data() + rI * h3;
      double* g = gates.data() + rI * h3;
      const double* hp = h_prev->data() + rI * hidden_size_;
      double* rhr = rh.data() + rI * hidden_size_;
      for (std::size_t j = 0; j < hidden_size_; ++j) {
        g[j] = sigmoid(pre[j] + b_[j]);                                  // z
        const double rv = sigmoid(pre[hidden_size_ + j] + b_[hidden_size_ + j]);  // r
        g[hidden_size_ + j] = rv;
        rhr[j] = rv * hp[j];
      }
    }
    // Candidate pre-activation: W_g x + U_g (r ⊙ h) + b_g.
    tensor::Matrix g_pre(batch, hidden_size_);
    {
      // Views into the g-block rows of W and U.
      // Compute via explicit loops to avoid materializing block matrices.
      for (std::size_t rI = 0; rI < batch; ++rI) {
        const double* xr = inputs[t].data() + rI * input_size_;
        const double* rhr = rh.data() + rI * hidden_size_;
        double* out = g_pre.data() + rI * hidden_size_;
        for (std::size_t j = 0; j < hidden_size_; ++j) {
          const std::size_t row = 2 * hidden_size_ + j;
          double sum = b_[row];
          const double* wrow = w_.data() + row * input_size_;
          for (std::size_t k = 0; k < input_size_; ++k) sum += wrow[k] * xr[k];
          const double* urow = u_.data() + row * hidden_size_;
          for (std::size_t k = 0; k < hidden_size_; ++k) sum += urow[k] * rhr[k];
          out[j] = sum;
        }
      }
    }
    for (std::size_t rI = 0; rI < batch; ++rI) {
      double* g = gates.data() + rI * h3;
      const double* hp = h_prev->data() + rI * hidden_size_;
      const double* gp = g_pre.data() + rI * hidden_size_;
      double* hr = h.data() + rI * hidden_size_;
      for (std::size_t j = 0; j < hidden_size_; ++j) {
        const double gv = activate(activation_, gp[j]);
        g[2 * hidden_size_ + j] = gv;
        const double zv = g[j];
        hr[j] = (1.0 - zv) * hp[j] + zv * gv;
      }
    }
    h_prev = &h;
  }
  return cache.h;
}

std::vector<tensor::Matrix> GruLayer::backward(const std::vector<tensor::Matrix>& dh_out,
                                               const RecurrentCache& cache) {
  const std::size_t steps = cache.x.size();
  const std::size_t batch = steps == 0 ? 0 : cache.x.front().rows();
  const std::size_t h3 = 3 * hidden_size_;
  if (dh_out.size() != steps) throw std::invalid_argument("GruLayer::backward: step mismatch");

  std::vector<tensor::Matrix> dx(steps, tensor::Matrix(batch, input_size_));
  tensor::Matrix dh_next(batch, hidden_size_);
  tensor::Matrix dgates(batch, h3);      // pre-activation grads [z, r, g]
  tensor::Matrix drh(batch, hidden_size_);  // grad wrt (r ⊙ h_{t-1})

  for (std::size_t tt = steps; tt > 0; --tt) {
    const std::size_t t = tt - 1;
    const tensor::Matrix& gates = cache.gates[t];
    const tensor::Matrix* h_prev = t > 0 ? &cache.h[t - 1] : nullptr;

    drh.fill(0.0);
    // dL/d(r⊙h) comes only through the candidate pre-activation: U_g^T dĝ.
    // First compute pre-activation gate grads that don't need drh.
    for (std::size_t rI = 0; rI < batch; ++rI) {
      const double* g = gates.data() + rI * h3;
      const double* dho = dh_out[t].data() + rI * hidden_size_;
      const double* dhn = dh_next.data() + rI * hidden_size_;
      const double* hp = h_prev ? h_prev->data() + rI * hidden_size_ : nullptr;
      double* dg = dgates.data() + rI * h3;
      for (std::size_t j = 0; j < hidden_size_; ++j) {
        const double zv = g[j];
        const double gv = g[2 * hidden_size_ + j];
        const double hprev = hp ? hp[j] : 0.0;
        const double dh = dho[j] + dhn[j];
        const double dz = dh * (gv - hprev);
        const double dgv = dh * zv;
        dg[j] = dz * zv * (1.0 - zv);
        dg[2 * hidden_size_ + j] = dgv * activate_grad_from_output(activation_, gv);
        // r-block filled after drh is known.
        dg[hidden_size_ + j] = 0.0;
      }
    }
    // drh = dĝ * U_g  (g-block rows of U).
    for (std::size_t rI = 0; rI < batch; ++rI) {
      const double* dg = dgates.data() + rI * h3;
      double* drhr = drh.data() + rI * hidden_size_;
      for (std::size_t j = 0; j < hidden_size_; ++j) {
        const double dgv = dg[2 * hidden_size_ + j];
        if (dgv == 0.0) continue;
        const double* urow = u_.data() + (2 * hidden_size_ + j) * hidden_size_;
        for (std::size_t k = 0; k < hidden_size_; ++k) drhr[k] += dgv * urow[k];
      }
    }
    // r gate grads and the h_{t-1} propagation pieces.
    tensor::Matrix dh_prev(batch, hidden_size_);
    for (std::size_t rI = 0; rI < batch; ++rI) {
      const double* g = gates.data() + rI * h3;
      const double* dho = dh_out[t].data() + rI * hidden_size_;
      const double* dhn = dh_next.data() + rI * hidden_size_;
      const double* hp = h_prev ? h_prev->data() + rI * hidden_size_ : nullptr;
      const double* drhr = drh.data() + rI * hidden_size_;
      double* dg = dgates.data() + rI * h3;
      double* dhp = dh_prev.data() + rI * hidden_size_;
      for (std::size_t j = 0; j < hidden_size_; ++j) {
        const double zv = g[j];
        const double rv = g[hidden_size_ + j];
        const double hprev = hp ? hp[j] : 0.0;
        const double dh = dho[j] + dhn[j];
        const double dr = drhr[j] * hprev;
        dg[hidden_size_ + j] = dr * rv * (1.0 - rv);
        // h_{t-1} gets: the (1-z) skip path + the reset-gated candidate path.
        dhp[j] = dh * (1.0 - zv) + drhr[j] * rv;
      }
    }

    // Weight grads. For the z/r blocks, U multiplies h_{t-1}; for the g
    // block it multiplies (r⊙h). Split the accumulation accordingly.
    tensor::matmul_at_b_into(dgates, cache.x[t], dw_, /*accumulate=*/true);
    if (h_prev != nullptr) {
      // dU[z,r] += dG[z,r]^T h_prev ; dU[g] += dG[g]^T rh.
      for (std::size_t rI = 0; rI < batch; ++rI) {
        const double* dg = dgates.data() + rI * h3;
        const double* hp = h_prev->data() + rI * hidden_size_;
        const double* rhr = cache.state[t].data() + rI * hidden_size_;
        for (std::size_t j = 0; j < 2 * hidden_size_; ++j) {
          const double v = dg[j];
          if (v == 0.0) continue;
          double* urow = du_.data() + j * hidden_size_;
          for (std::size_t k = 0; k < hidden_size_; ++k) urow[k] += v * hp[k];
        }
        for (std::size_t j = 2 * hidden_size_; j < h3; ++j) {
          const double v = dg[j];
          if (v == 0.0) continue;
          double* urow = du_.data() + j * hidden_size_;
          for (std::size_t k = 0; k < hidden_size_; ++k) urow[k] += v * rhr[k];
        }
      }
    } else {
      // t == 0: h_prev == 0 and rh == 0, so dU contribution vanishes.
    }
    for (std::size_t rI = 0; rI < batch; ++rI) {
      const double* dg = dgates.data() + rI * h3;
      for (std::size_t k = 0; k < h3; ++k) db_[k] += dg[k];
    }

    tensor::matmul_into(dgates, w_, dx[t], /*accumulate=*/false);
    // dh_{t-1} also receives the z/r recurrent paths: dG[z,r] * U[z,r].
    for (std::size_t rI = 0; rI < batch; ++rI) {
      const double* dg = dgates.data() + rI * h3;
      double* dhp = dh_prev.data() + rI * hidden_size_;
      for (std::size_t j = 0; j < 2 * hidden_size_; ++j) {
        const double v = dg[j];
        if (v == 0.0) continue;
        const double* urow = u_.data() + j * hidden_size_;
        for (std::size_t k = 0; k < hidden_size_; ++k) dhp[k] += v * urow[k];
      }
    }
    dh_next = std::move(dh_prev);
  }
  return dx;
}

void GruLayer::zero_grad() noexcept {
  dw_.fill(0.0);
  du_.fill(0.0);
  for (double& v : db_) v = 0.0;
}

std::vector<std::span<double>> GruLayer::parameters() {
  return {w_.flat(), u_.flat(), {b_.data(), b_.size()}};
}

std::vector<std::span<const double>> GruLayer::parameters() const {
  return {w_.flat(), u_.flat(), {b_.data(), b_.size()}};
}

void GruLayer::pack() {
  pack_transposed(w_, wt_);
  pack_transposed(u_, ut_);
  quantize_rows_transposed(w_, wtq_);
  quantize_rows_transposed(u_, utq_);
  bq_.assign(b_.begin(), b_.end());
}

template <typename T>
void GruLayer::step_fused(const T* x, T* h, T* /*c*/, T* scratch) const {
  constexpr bool kQuant = std::is_same_v<T, float>;
  const std::size_t H = hidden_size_;
  const std::size_t h3 = 3 * H;
  const auto* wt = [&] {
    if constexpr (kQuant) return wtq_.data();
    else return wt_.data();
  }();
  const auto* ut = [&] {
    if constexpr (kQuant) return utq_.data();
    else return ut_.data();
  }();
  T* pre = scratch;       // [z, r, g] pre-activations
  T* rh = scratch + h3;   // r ⊙ h_{t-1}
  for (std::size_t j = 0; j < h3; ++j) pre[j] = T(0);
  for (std::size_t i = 0; i < input_size_; ++i) {
    const T xv = x[i];
    const auto* row = wt + i * h3;
    for (std::size_t j = 0; j < h3; ++j) pre[j] += xv * static_cast<T>(row[j]);
  }
  // z and r take U h_{t-1}; the g block takes U (r ⊙ h), added once r is
  // known — same two-phase structure as the batched forward.
  for (std::size_t k = 0; k < H; ++k) {
    const T hv = h[k];
    const auto* row = ut + k * h3;
    for (std::size_t j = 0; j < 2 * H; ++j) pre[j] += hv * static_cast<T>(row[j]);
  }
  for (std::size_t j = 0; j < H; ++j) {
    const T bz = kQuant ? static_cast<T>(bq_[j]) : static_cast<T>(b_[j]);
    const T br = kQuant ? static_cast<T>(bq_[H + j]) : static_cast<T>(b_[H + j]);
    pre[j] = sigmoid(pre[j] + bz);                     // z (kept for the blend)
    const T rv = sigmoid(pre[H + j] + br);             // r
    rh[j] = rv * h[j];
  }
  for (std::size_t k = 0; k < H; ++k) {
    const T rhv = rh[k];
    const auto* row = ut + k * h3 + 2 * H;
    for (std::size_t j = 0; j < H; ++j) pre[2 * H + j] += rhv * static_cast<T>(row[j]);
  }
  for (std::size_t j = 0; j < H; ++j) {
    const T bg = kQuant ? static_cast<T>(bq_[2 * H + j]) : static_cast<T>(b_[2 * H + j]);
    const T gv = activate(activation_, pre[2 * H + j] + bg);
    const T zv = pre[j];
    h[j] = (T(1) - zv) * h[j] + zv * gv;
  }
}

template void GruLayer::step_fused<double>(const double*, double*, double*,
                                           double*) const;
template void GruLayer::step_fused<float>(const float*, float*, float*, float*) const;

std::vector<std::span<double>> GruLayer::gradients() {
  return {dw_.flat(), du_.flat(), {db_.data(), db_.size()}};
}

std::size_t GruLayer::parameter_count() const noexcept {
  return w_.size() + u_.size() + b_.size();
}

}  // namespace ld::nn
