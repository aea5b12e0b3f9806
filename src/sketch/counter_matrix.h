// Contiguous depth x width counter storage shared by the linear sketches
// (AMS-F2 and CountSketch are the same counter structure with different
// estimators; both are linear maps of the input, hence turnstile-capable and
// mergeable by addition).
#ifndef CASTREAM_SKETCH_COUNTER_MATRIX_H_
#define CASTREAM_SKETCH_COUNTER_MATRIX_H_

#include <cstdint>
#include <cstddef>
#include <vector>

namespace castream {

/// \brief Row-major matrix of int64 counters for linear sketches.
class CounterMatrix {
 public:
  CounterMatrix(uint32_t depth, uint32_t width)
      : depth_(depth), width_(width),
        cells_(static_cast<size_t>(depth) * width, 0) {}

  int64_t at(uint32_t row, uint32_t col) const {
    return cells_[static_cast<size_t>(row) * width_ + col];
  }

  /// \brief Adds `delta` to one cell and returns the *previous* value (the
  /// previous value lets callers maintain incremental sums of squares).
  int64_t AddAndReturnOld(uint32_t row, uint32_t col, int64_t delta) {
    int64_t& cell = cells_[static_cast<size_t>(row) * width_ + col];
    int64_t old = cell;
    cell += delta;
    return old;
  }

  /// \brief Cell-wise addition; dimensions must match (checked by caller).
  void AddFrom(const CounterMatrix& other) {
    for (size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  }

  bool SameShape(const CounterMatrix& other) const {
    return depth_ == other.depth_ && width_ == other.width_;
  }

  uint32_t depth() const { return depth_; }
  uint32_t width() const { return width_; }

  /// \brief Number of stored counters (the "tuples stored" unit used by the
  /// paper's space plots).
  size_t CounterCount() const { return cells_.size(); }
  size_t SizeBytes() const { return cells_.size() * sizeof(int64_t); }

  /// \brief Sum of squares of one row, computed from scratch.
  int64_t RowSumSquares(uint32_t row) const {
    const int64_t* p = &cells_[static_cast<size_t>(row) * width_];
    int64_t ss = 0;
    for (uint32_t c = 0; c < width_; ++c) ss += p[c] * p[c];
    return ss;
  }

 private:
  uint32_t depth_;
  uint32_t width_;
  std::vector<int64_t> cells_;
};

}  // namespace castream

#endif  // CASTREAM_SKETCH_COUNTER_MATRIX_H_
