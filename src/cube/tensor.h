// Tensor: a dense row-major multi-dimensional array of doubles.
//
// The data cube itself and every materialized view element are Tensors.
// Unlike CubeShape, a Tensor's extents need not be powers of two along
// totally-aggregated dimensions (they become 1), so Tensor carries plain
// extents and derives its own strides.
//
// Storage is 64-byte aligned (kTensorAlignment) so the vectorized Haar
// kernels can use aligned SIMD loads on whole cache lines and no tensor
// payload straddles a line it does not own. The allocator also makes
// default construction a no-op, which is what lets Tensor::Uninitialized
// skip the zero-fill that Tensor::Zeros pays — kernels that overwrite
// every output cell allocate through Uninitialized and save a full write
// pass over the output.
//
// A Tensor's shape and cells form one refcounted payload: Share() hands
// out another owner without copying (the serving layer's answers alias
// the cache's tensors this way), and the first write through a shared
// owner detaches it onto a private copy.

#ifndef VECUBE_CUBE_TENSOR_H_
#define VECUBE_CUBE_TENSOR_H_

#include <atomic>
#include <cstdint>
#include <new>  // vecube-check: disable=no-naked-new (the <new> header)
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace vecube {

/// Alignment (bytes) of every Tensor/scratch payload allocation.
inline constexpr std::size_t kTensorAlignment = 64;

/// Allocator for tensor payloads: 64-byte-aligned allocations, and
/// *default* construction is a no-op so resize()/vector(n) leave the cells
/// uninitialized (value construction, e.g. assign(n, 0.0), still writes).
template <typename T>
class TensorAllocator {
 public:
  using value_type = T;

  TensorAllocator() noexcept = default;
  template <typename U>
  explicit TensorAllocator(const TensorAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kTensorAlignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kTensorAlignment});
  }

  // Default construction deliberately leaves the cell unwritten (trivial
  // types only — the payload is always double).
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  bool operator==(const TensorAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const TensorAllocator<U>&) const noexcept {
    return false;
  }
};

/// Aligned, lazily-initialized payload vector shared by Tensor and the
/// kernel scratch arena.
using TensorBuffer = std::vector<double, TensorAllocator<double>>;

/// Dense row-major array of double cells.
///
/// The shape and the cells live in one refcounted payload. Copying a
/// Tensor copies the cells, as for any value type; Share() instead makes
/// another owner of the same payload in O(1), which is how a served
/// answer aliases the cache's tensor without copying it. Sharing is
/// copy-on-write: every mutable accessor (data(), raw(), operator[], Set)
/// first gives this tensor a private copy of a payload that other owners
/// still hold, so a write through one owner is never seen through
/// another. A sole owner writes in place. A pointer or reference taken
/// from a mutable accessor stays valid for writes only until the next
/// Share() of this tensor.
///
/// Thread-safety is that of a value type: distinct Tensors may be read,
/// written and destroyed concurrently even while they share a payload;
/// one Tensor object must not be written concurrently with any access.
class Tensor {
 public:
  Tensor() noexcept = default;
  ~Tensor() { Release(); }

  /// Deep copy: the new tensor owns a private copy of the cells.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept
      : payload_(std::exchange(other.payload_, &empty_)) {}
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      Release();
      payload_ = std::exchange(other.payload_, &empty_);
    }
    return *this;
  }

  /// Allocates a zero-filled tensor. Extents may be any positive values.
  static Result<Tensor> Zeros(std::vector<uint32_t> extents);

  /// Allocates a tensor whose cells are UNINITIALIZED — no zero-fill pass.
  /// Strictly for kernels that overwrite every cell before the tensor
  /// escapes; reading a cell before writing it is undefined behavior.
  static Result<Tensor> Uninitialized(std::vector<uint32_t> extents);

  /// Wraps existing data; `data.size()` must equal the product of extents.
  static Result<Tensor> FromData(std::vector<uint32_t> extents,
                                 std::vector<double> data);

  /// Move-adopts an aligned payload buffer (no copy); `data.size()` must
  /// equal the product of extents.
  static Result<Tensor> FromBuffer(std::vector<uint32_t> extents,
                                   TensorBuffer data);

  /// Another owner of this tensor's payload: no cells are copied. The
  /// result reads the same cells until either side writes, which detaches
  /// the writer. The payload lives until its last owner is destroyed.
  [[nodiscard]] Tensor Share() const {
    if (payload_ != &empty_) {
      // order: relaxed — a new owner is made from a live one, which keeps
      // the payload alive meanwhile, and the count publishes no data
      // (handing the Tensor object to another thread synchronizes).
      payload_->owners.fetch_add(1, std::memory_order_relaxed);
    }
    return Tensor(payload_);
  }

  [[nodiscard]] uint32_t ndim() const {
    return static_cast<uint32_t>(payload_->extents.size());
  }
  [[nodiscard]] const std::vector<uint32_t>& extents() const {
    return payload_->extents;
  }
  [[nodiscard]] uint32_t extent(uint32_t dim) const {
    return payload_->extents[dim];
  }
  [[nodiscard]] uint64_t size() const { return payload_->cells.size(); }
  [[nodiscard]] uint64_t stride(uint32_t dim) const {
    return payload_->strides[dim];
  }

  [[nodiscard]] const TensorBuffer& data() const { return payload_->cells; }
  TensorBuffer& data() { return Mutable().cells; }

  double* raw() { return Mutable().cells.data(); }
  [[nodiscard]] const double* raw() const { return payload_->cells.data(); }

  double& operator[](uint64_t flat) { return Mutable().cells[flat]; }
  double operator[](uint64_t flat) const { return payload_->cells[flat]; }

  /// Element access by coordinates (bounds-checked in debug builds).
  double At(const std::vector<uint32_t>& coords) const;
  void Set(const std::vector<uint32_t>& coords, double value);

  uint64_t FlatIndex(const std::vector<uint32_t>& coords) const;

  /// Sum of all cells.
  double Total() const;

  /// True iff same extents and all cells within `tol` of each other.
  bool ApproxEquals(const Tensor& other, double tol = 1e-9) const;

  std::string ShapeString() const;

 private:
  /// Shape and cells, shared by every owner. Only `owners` changes after
  /// construction while more than one Tensor holds the payload.
  struct Payload {
    Payload() = default;
    /// Copies shape and cells; the copy has one owner.
    Payload(const Payload& other)
        : extents(other.extents), strides(other.strides), cells(other.cells) {}
    Payload& operator=(const Payload&) = delete;

    std::atomic<uint64_t> owners{1};
    std::vector<uint32_t> extents;
    std::vector<uint64_t> strides;
    TensorBuffer cells;
  };

  /// Adopts one ownership of `payload` (Share's result).
  explicit Tensor(Payload* payload) noexcept : payload_(payload) {}
  /// Builds a sole-owner tensor over `cells` (size already validated).
  static Tensor Adopt(std::vector<uint32_t> extents, TensorBuffer cells);

  /// True when no other Tensor holds this payload, so writes may land in
  /// place. The shared empty payload is never written.
  [[nodiscard]] bool OwnsAlone() const {
    // order: acquire — pairs with the acq_rel decrement in Drop: every
    // read a former co-owner made of these cells happens-before this
    // owner writes them in place.
    return payload_ != &empty_ &&
           payload_->owners.load(std::memory_order_acquire) == 1;
  }
  /// The payload, made private first if others share it (copy-on-write).
  Payload& Mutable() {
    if (!OwnsAlone()) Detach();
    return *payload_;
  }
  /// Replaces a shared (or the empty) payload with a private copy.
  void Detach();
  /// Drops this owner; the last owner frees the payload.
  void Release() noexcept {
    if (payload_ != &empty_) Drop();
  }
  void Drop() noexcept;

  /// The payload of every empty (default or moved-from) tensor: never
  /// written, never refcounted, never freed.
  static Payload empty_;

  Payload* payload_ = &empty_;
};

}  // namespace vecube

#endif  // VECUBE_CUBE_TENSOR_H_
