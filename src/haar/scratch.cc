#include "haar/scratch.h"

#include <algorithm>

#include "util/logging.h"

namespace vecube {

void ScratchArena::Buffer::Release() {
  if (arena_ == nullptr) return;
  ScratchArena* arena = arena_;
  arena_ = nullptr;
  arena->Return(std::move(storage_));
  storage_.clear();
}

ScratchArena::ScratchArena(uint64_t max_pooled_bytes)
    : max_pooled_bytes_(max_pooled_bytes) {}

ScratchArena::~ScratchArena() {
  MutexLock lock(mu_);
  VECUBE_CHECK(live_.empty())
      << "ScratchArena destroyed with " << live_.size()
      << " buffer(s) still outstanding";
}

ScratchArena::Buffer ScratchArena::Acquire(uint64_t cells) {
  TensorBuffer storage;
  {
    MutexLock lock(mu_);
    // Best fit: the smallest pooled allocation that already holds `cells`.
    size_t best = pool_.size();
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (pool_[i].capacity() < cells) continue;
      if (best == pool_.size() ||
          pool_[i].capacity() < pool_[best].capacity()) {
        best = i;
      }
    }
    if (best < pool_.size()) {
      storage = std::move(pool_[best]);
      pool_[best] = std::move(pool_.back());
      pool_.pop_back();
      pooled_bytes_ -= storage.capacity() * sizeof(double);
      ++reuse_count_;
    }
  }
  storage.resize(cells);  // no-op construction: cells stay uninitialized

  MutexLock lock(mu_);
  if (storage.data() != nullptr) {
    const auto [it, inserted] = live_.emplace(storage.data(), cells);
    (void)it;
    VECUBE_CHECK(inserted) << "ScratchArena handed out an aliasing buffer";
  }
  return Buffer(this, std::move(storage));
}

void ScratchArena::Return(TensorBuffer storage) {
  MutexLock lock(mu_);
  if (storage.data() != nullptr) {
    VECUBE_CHECK(live_.erase(storage.data()) == 1)
        << "ScratchArena::Return of a buffer it does not track";
  }
  const uint64_t bytes = storage.capacity() * sizeof(double);
  if (pooled_bytes_ + bytes <= max_pooled_bytes_) {
    pooled_bytes_ += bytes;
    pool_.push_back(std::move(storage));
  }
  // Else: dropped on the floor; the allocator frees it.
}

uint64_t ScratchArena::outstanding() const {
  MutexLock lock(mu_);
  return live_.size();
}

uint64_t ScratchArena::pooled() const {
  MutexLock lock(mu_);
  return pool_.size();
}

uint64_t ScratchArena::pooled_bytes() const {
  MutexLock lock(mu_);
  return pooled_bytes_;
}

uint64_t ScratchArena::reuse_count() const {
  MutexLock lock(mu_);
  return reuse_count_;
}

bool ScratchArena::DisjointFromOutstanding(const double* ptr,
                                           uint64_t cells) const {
  MutexLock lock(mu_);
  const auto lo = reinterpret_cast<uintptr_t>(ptr);
  const uintptr_t hi = lo + cells * sizeof(double);
  for (const auto& [base, live_cells] : live_) {
    const auto b_lo = reinterpret_cast<uintptr_t>(base);
    const uintptr_t b_hi = b_lo + live_cells * sizeof(double);
    if (lo < b_hi && b_lo < hi) return false;
  }
  return true;
}

}  // namespace vecube
