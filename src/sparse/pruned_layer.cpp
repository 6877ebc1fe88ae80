#include "sparse/pruned_layer.h"

#include <stdexcept>

namespace deepsz::sparse {

PrunedLayer PrunedLayer::from_dense(std::span<const float> dense,
                                    std::int64_t rows, std::int64_t cols,
                                    std::string name) {
  if (static_cast<std::int64_t>(dense.size()) != rows * cols) {
    throw std::invalid_argument("PrunedLayer::from_dense: size mismatch");
  }
  PrunedLayer layer;
  layer.name = std::move(name);
  layer.rows = rows;
  layer.cols = cols;
  std::int64_t prev = -1;
  for (std::int64_t pos = 0; pos < rows * cols; ++pos) {
    if (dense[pos] == 0.0f) continue;
    std::int64_t delta = pos - prev;
    while (delta > 255) {
      layer.index.push_back(255);
      layer.data.push_back(0.0f);
      prev += 255;
      delta -= 255;
    }
    layer.index.push_back(static_cast<std::uint8_t>(delta));
    layer.data.push_back(dense[pos]);
    prev = pos;
  }
  return layer;
}

std::vector<float> PrunedLayer::to_dense() const {
  if (data.size() != index.size()) {
    throw std::runtime_error("PrunedLayer: data/index length mismatch");
  }
  std::vector<float> dense(static_cast<std::size_t>(rows * cols), 0.0f);
  std::int64_t pos = -1;
  for (std::size_t i = 0; i < data.size(); ++i) {
    // from_dense emits deltas >= 1; a zero delta is corruption (it would
    // overwrite the previous entry, or land before the matrix).
    if (index[i] == 0) {
      throw std::runtime_error("PrunedLayer: zero position delta");
    }
    pos += index[i];
    if (pos >= rows * cols) {
      throw std::runtime_error("PrunedLayer: index overruns matrix");
    }
    // Fillers carry 0.0f (or an SZ reconstruction thereof) and land on zero
    // positions; writing them is harmless and keeps decode branch-free.
    dense[static_cast<std::size_t>(pos)] = data[i];
  }
  return dense;
}

PrunedLayer PrunedLayer::with_data(std::vector<float> new_data) const {
  if (new_data.size() != data.size()) {
    throw std::invalid_argument("PrunedLayer::with_data: size mismatch");
  }
  PrunedLayer copy = *this;
  copy.data = std::move(new_data);
  return copy;
}

CsrMatrix CsrMatrix::from_dense(std::span<const float> dense,
                                std::int64_t rows, std::int64_t cols) {
  if (static_cast<std::int64_t>(dense.size()) != rows * cols) {
    throw std::invalid_argument("CsrMatrix::from_dense: size mismatch");
  }
  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_offsets.reserve(rows + 1);
  m.row_offsets.push_back(0);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      float v = dense[r * cols + c];
      if (v != 0.0f) {
        m.values.push_back(v);
        m.col_indices.push_back(static_cast<std::int32_t>(c));
      }
    }
    m.row_offsets.push_back(static_cast<std::int64_t>(m.values.size()));
  }
  return m;
}

std::vector<float> CsrMatrix::to_dense() const {
  std::vector<float> dense(static_cast<std::size_t>(rows * cols), 0.0f);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t i = row_offsets[r]; i < row_offsets[r + 1]; ++i) {
      dense[r * cols + col_indices[i]] = values[i];
    }
  }
  return dense;
}

}  // namespace deepsz::sparse
