// Weight packing for the fused single-timestep inference step
// (DESIGN.md §12). The recurrent layers store gate weights row-major as
// (G*H x In); the fused step walks them input-major, so both cell layers
// lazily repack into transposed (In x G*H) panels — one contiguous row per
// input element, turning every gate GEMV into an axpy over a contiguous row.
#pragma once

#include <vector>

#include "tensor/matrix.hpp"

namespace ld::nn {

/// out[i * rows + j] = w(j, i) — transposed, input-major.
inline void pack_transposed(const tensor::Matrix& w, std::vector<double>& out) {
  const std::size_t rows = w.rows(), cols = w.cols();
  out.resize(rows * cols);
  for (std::size_t j = 0; j < rows; ++j)
    for (std::size_t i = 0; i < cols; ++i) out[i * rows + j] = w(j, i);
}

}  // namespace ld::nn
