// Fixed-capacity scratch storage for per-call kernels: an inline array for
// the common small sizes with a heap fallback for the rare long ones, so the
// per-segment and per-comparison paths allocate nothing in the usual case.
//
// One buffer belongs to one call: kernels that may run concurrently (the
// cross-rank merge's probe workers call const matching code in parallel)
// each declare their own.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

namespace tracered::util {

/// `size` uninitialized elements of T: inline when size <= Inline, on the
/// heap otherwise.
template <typename T, std::size_t Inline>
class StackBuffer {
 public:
  explicit StackBuffer(std::size_t size)
      : heap_(size > Inline ? new T[size] : nullptr), size_(size) {}

  StackBuffer(const StackBuffer&) = delete;
  StackBuffer& operator=(const StackBuffer&) = delete;

  /// Whether the contents live in the heap fallback.
  bool onHeap() const { return heap_ != nullptr; }

  std::span<T> span() { return {heap_ ? heap_.get() : inline_, size_}; }

 private:
  T inline_[Inline];
  std::unique_ptr<T[]> heap_;
  std::size_t size_;
};

}  // namespace tracered::util
