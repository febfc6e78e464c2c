// A minimal dense float32 tensor.
//
// Design notes:
//  * Storage is always contiguous row-major; `reshape` shares storage.
//  * Copy is shallow (shared buffer, like torch.Tensor); use `clone()` for a
//    deep copy. Value-semantic helpers (`zeros`, arithmetic) allocate.
//  * `Tensor(Shape)`, `zeros` and `full` initialise every element (to 0
//    or the value). `uninitialized(Shape)` does not: its caller must
//    write every element before anything reads one. Release builds leave
//    that memory as the allocator returns it, so a training step's
//    outputs, which the next line overwrites anyway, cost no zero-fill
//    pass. Builds without NDEBUG fill it with quiet NaN instead, so a
//    read before the write shows up as a NaN in a bit-identity or
//    finite-loss test rather than as a silently plausible zero.
//  * float32 only — the quantised representation lives in
//    `apt::quant::QuantizedTensor`, which dequantises into this type.
#pragma once

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/check.hpp"
#include "base/shape.hpp"

namespace apt {

class Tensor {
 public:
  /// Empty tensor (rank-0 scalar shape would still have 1 element; an
  /// unallocated default tensor has no storage and numel()==0).
  Tensor() : shape_({0}) {}

  /// Allocates a zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(std::make_shared<float[]>(static_cast<size_t>(shape_.numel()))) {
  }

  /// Adopts `values` as the storage (no copy).
  Tensor(Shape shape, std::vector<float> values) : shape_(std::move(shape)) {
    APT_CHECK(static_cast<int64_t>(values.size()) == shape_.numel())
        << "value count " << values.size() << " != numel for "
        << shape_.str();
    if (values.empty()) {  // an empty vector's data() may be null
      data_ = std::make_shared<float[]>(0);
      return;
    }
    auto held = std::make_shared<std::vector<float>>(std::move(values));
    data_ = std::shared_ptr<float[]>(held, held->data());
  }

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }

  /// A tensor whose elements the caller overwrites before any read (see
  /// the header comment): no zero-fill in release builds, quiet NaN in
  /// builds without NDEBUG.
  static Tensor uninitialized(Shape shape) {
    Tensor t;
    t.shape_ = std::move(shape);
    const auto n = static_cast<size_t>(t.shape_.numel());
    t.data_ = std::make_shared_for_overwrite<float[]>(n);
#ifndef NDEBUG
    std::fill(t.data_.get(), t.data_.get() + n,
              std::numeric_limits<float>::quiet_NaN());
#endif
    return t;
  }

  static Tensor full(Shape shape, float value) {
    Tensor t(std::move(shape));
    t.fill(value);
    return t;
  }

  const Shape& shape() const { return shape_; }
  int64_t numel() const { return shape_.numel(); }
  int64_t dim(int64_t axis) const { return shape_[axis]; }
  bool defined() const { return data_ != nullptr; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  std::span<float> span() { return {data(), static_cast<size_t>(numel())}; }
  std::span<const float> span() const {
    return {data(), static_cast<size_t>(numel())};
  }

  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// Element access for rank-2 [rows, cols] tensors.
  float& at(int64_t r, int64_t c) {
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }

  /// Element access for rank-4 [n, c, h, w] tensors (image batches).
  float& at(int64_t n, int64_t c, int64_t h, int64_t w) {
    const int64_t C = shape_[1], H = shape_[2], W = shape_[3];
    return data_[static_cast<size_t>(((n * C + c) * H + h) * W + w)];
  }
  float at(int64_t n, int64_t c, int64_t h, int64_t w) const {
    const int64_t C = shape_[1], H = shape_[2], W = shape_[3];
    return data_[static_cast<size_t>(((n * C + c) * H + h) * W + w)];
  }

  void fill(float value) { std::fill(data(), data() + numel(), value); }

  /// Deep copy with its own storage.
  Tensor clone() const {
    Tensor out = uninitialized(shape_);
    if (data_) std::memcpy(out.data(), data(), sizeof(float) * numel());
    return out;
  }

  /// Returns a tensor sharing this storage with a different shape.
  Tensor reshape(Shape new_shape) const {
    APT_CHECK(new_shape.numel() == numel())
        << "reshape " << shape_.str() << " -> " << new_shape.str();
    Tensor out;
    out.shape_ = std::move(new_shape);
    out.data_ = data_;
    return out;
  }

  /// True when both tensors share the same underlying buffer.
  bool shares_storage_with(const Tensor& other) const {
    return data_ == other.data_;
  }

  // ---- simple arithmetic (allocating) ------------------------------------
  Tensor operator+(const Tensor& rhs) const {
    return binary(rhs, std::plus<float>{});
  }
  Tensor operator-(const Tensor& rhs) const {
    return binary(rhs, std::minus<float>{});
  }
  Tensor operator*(const Tensor& rhs) const {
    return binary(rhs, std::multiplies<float>{});
  }

  Tensor& operator+=(const Tensor& rhs) {
    return binary_inplace(rhs, std::plus<float>{});
  }
  Tensor& operator-=(const Tensor& rhs) {
    return binary_inplace(rhs, std::minus<float>{});
  }

  Tensor operator*(float s) const {
    Tensor out = clone();
    for (float& v : out.span()) v *= s;
    return out;
  }

  void scale(float s) {
    for (float& v : span()) v *= s;
  }

  // ---- reductions ---------------------------------------------------------
  float sum() const {
    double acc = 0.0;
    for (float v : span()) acc += v;
    return static_cast<float>(acc);
  }
  float mean() const {
    return numel() ? sum() / static_cast<float>(numel()) : 0.0f;
  }
  float min() const;
  float max() const;
  /// {min(), max()} in one sweep (AVX2 when available). NaN elements are
  /// dropped exactly like min()/max()'s std::min/std::max ordering does.
  std::pair<float, float> minmax() const;
  float abs_max() const;
  /// L2 norm, accumulated in double for stability.
  float norm() const;
  bool all_finite() const;

 private:
  template <typename Op>
  Tensor binary(const Tensor& rhs, Op op) const {
    APT_CHECK(shape_ == rhs.shape_)
        << "shape mismatch " << shape_.str() << " vs " << rhs.shape_.str();
    Tensor out = uninitialized(shape_);
    const float* a = data();
    const float* b = rhs.data();
    float* o = out.data();
    const int64_t n = numel();
    for (int64_t i = 0; i < n; ++i) o[i] = op(a[i], b[i]);
    return out;
  }

  template <typename Op>
  Tensor& binary_inplace(const Tensor& rhs, Op op) {
    APT_CHECK(shape_ == rhs.shape_)
        << "shape mismatch " << shape_.str() << " vs " << rhs.shape_.str();
    float* a = data();
    const float* b = rhs.data();
    const int64_t n = numel();
    for (int64_t i = 0; i < n; ++i) a[i] = op(a[i], b[i]);
    return *this;
  }

  Shape shape_;
  std::shared_ptr<float[]> data_;
};

}  // namespace apt
