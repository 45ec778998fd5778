// Activations a recurrent layer's forward pass leaves behind for backward().
// The const forward kernels write only into a caller-owned cache, so any
// number of threads can run inference through one layer, each with its own.
#pragma once

#include <vector>

#include "tensor/matrix.hpp"

namespace ld::nn {

/// One (batch x ·) matrix per timestep in every field.
struct RecurrentCache {
  std::vector<tensor::Matrix> x;      ///< inputs x_t
  std::vector<tensor::Matrix> gates;  ///< post-activation gates
  std::vector<tensor::Matrix> state;  ///< LSTM: cell states C_t; GRU: r_t ⊙ h_{t-1}
  std::vector<tensor::Matrix> h;      ///< hidden states h_t
};

}  // namespace ld::nn
