// ScratchArena: reusable, aligned kernel scratch buffers.
//
// The fused cascade kernels ping-pong intermediate levels through small
// scratch tiles; batch assembly runs thousands of such kernels per query
// wave. Allocating (and faulting) fresh buffers per kernel step costs
// more than the arithmetic, so sessions thread one arena through
// AssemblyEngine / Cascade / RangeEngine / DynamicAssembler and every
// kernel step borrows from it instead of allocating.
//
// Ownership and lifetime (see DESIGN.md §11):
//   * Acquire() hands out an exclusively owned Buffer (RAII); its payload
//     never aliases any live Tensor or any other outstanding Buffer —
//     enforced by an internal live-set invariant, not convention.
//   * Returning a Buffer (destruction / reset) recycles the payload into
//     the free pool; the pool is capped, overflow is simply freed.
//   * The arena must outlive its Buffers (sessions own the arena; buffers
//     live only inside kernel calls).
//
// Thread safety: all methods are safe to call concurrently; the free pool
// is mutex-protected. Contention is negligible — acquisition happens once
// per kernel chunk (>= tens of thousands of cells of work), not per cell.

#ifndef VECUBE_HAAR_SCRATCH_H_
#define VECUBE_HAAR_SCRATCH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cube/tensor.h"
#include "util/sync.h"

namespace vecube {

class ScratchArena {
 public:
  /// RAII handle to an exclusively owned scratch payload. Cells are
  /// uninitialized on acquisition.
  class Buffer {
   public:
    Buffer() = default;
    Buffer(Buffer&& other) noexcept { *this = std::move(other); }
    Buffer& operator=(Buffer&& other) noexcept {
      if (this != &other) {
        Release();
        arena_ = other.arena_;
        storage_ = std::move(other.storage_);
        other.arena_ = nullptr;
        other.storage_.clear();
      }
      return *this;
    }
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
    ~Buffer() { Release(); }

    double* data() { return storage_.data(); }
    [[nodiscard]] const double* data() const { return storage_.data(); }
    [[nodiscard]] uint64_t size() const { return storage_.size(); }
    [[nodiscard]] bool valid() const { return arena_ != nullptr; }

    /// Returns the payload to the arena early (idempotent).
    void Release();

   private:
    friend class ScratchArena;
    Buffer(ScratchArena* arena, TensorBuffer storage)
        : arena_(arena), storage_(std::move(storage)) {}

    ScratchArena* arena_ = nullptr;
    TensorBuffer storage_;
  };

  /// `max_pooled_bytes` caps the idle pool; returned buffers beyond the
  /// cap are freed instead of pooled.
  explicit ScratchArena(uint64_t max_pooled_bytes = uint64_t{256} << 20);
  ~ScratchArena();

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// An exclusively owned buffer of exactly `cells` uninitialized doubles
  /// (64-byte aligned). Reuses a pooled allocation when one is large
  /// enough (best fit); allocates otherwise.
  Buffer Acquire(uint64_t cells) VECUBE_EXCLUDES(mu_);

  /// Buffers currently handed out.
  [[nodiscard]] uint64_t outstanding() const VECUBE_EXCLUDES(mu_);
  /// Idle buffers in the pool.
  [[nodiscard]] uint64_t pooled() const VECUBE_EXCLUDES(mu_);
  /// Payload bytes currently idle in the pool.
  [[nodiscard]] uint64_t pooled_bytes() const VECUBE_EXCLUDES(mu_);
  /// Acquisitions served from the pool (vs fresh allocations).
  [[nodiscard]] uint64_t reuse_count() const VECUBE_EXCLUDES(mu_);

  /// Aliasing invariant: true iff [ptr, ptr + cells) overlaps no
  /// outstanding hand-out. Live tensors are allocated outside the arena,
  /// so this plus hand-out exclusivity is the full no-aliasing story.
  [[nodiscard]] bool DisjointFromOutstanding(const double* ptr,
                                             uint64_t cells) const
      VECUBE_EXCLUDES(mu_);

 private:
  friend class Buffer;

  void Return(TensorBuffer storage) VECUBE_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::vector<TensorBuffer> pool_ VECUBE_GUARDED_BY(mu_);
  // base -> cells
  std::unordered_map<const double*, uint64_t> live_ VECUBE_GUARDED_BY(mu_);
  const uint64_t max_pooled_bytes_;
  uint64_t pooled_bytes_ VECUBE_GUARDED_BY(mu_) = 0;
  uint64_t reuse_count_ VECUBE_GUARDED_BY(mu_) = 0;
};

}  // namespace vecube

#endif  // VECUBE_HAAR_SCRATCH_H_
