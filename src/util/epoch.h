// Epoch-based reclamation for read-mostly published data structures.
//
// The serving hot path (ViewCache::FindPinned) must hand out pointers
// into shared immutable tables without taking a lock or bumping a shared
// reference count — either one turns a read-dominated workload into a
// cache-line ping-pong match between cores. The classic answer is
// epoch-based reclamation (RCU-style): readers announce a critical
// section by stamping a per-thread slot with the current global epoch;
// writers publish a replacement structure, advance the epoch, and park
// the old structure in a limbo list tagged with the pre-advance epoch.
// A limbo object is destroyed only once every announced reader epoch has
// moved past its tag, so a reader can never observe freed memory.
//
// Protocol (all proofs in DESIGN.md §10):
//
//   reader:  e = epoch; slot = e; re-read epoch until it equals e;
//            ... dereference published pointers ...; slot = 0
//   writer:  publish(new); tag = fetch_add(epoch, 1);
//            limbo.push({old, tag}); later: free entries with
//            tag < MinPinned()
//
// The reader's confirm loop closes the publication race: once the slot
// value and a subsequent read of the global epoch agree (both seq_cst),
// either the writer's scan observes the slot — and spares everything the
// reader can reach — or the reader's epoch load observed the writer's
// advance, which happens-after the new structure was published, so the
// reader can only reach the replacement.
//
// Slots are process-wide (a reader pin in one cache conservatively
// delays reclamation in another — correct, and irrelevant at the rate
// writers retire). They live in an immortal lock-free registry: a thread
// claims a free slot on first pin and returns it at thread exit; slots
// are never deallocated, so writers may scan the registry without
// synchronizing with thread shutdown.
//
// Pins nest (the slot keeps the outermost epoch, which is conservative)
// and must be released on the thread that acquired them.

#ifndef VECUBE_UTIL_EPOCH_H_
#define VECUBE_UTIL_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <utility>

namespace vecube {

class EpochDomain {
 public:
  /// The process-wide domain shared by every epoch-published structure.
  static EpochDomain& Instance();

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// A reader critical section. While engaged, any object retired after
  /// the pin was acquired stays alive. Default-constructed pins are
  /// empty; Acquire() returns an engaged one. Move-only, and must be
  /// destroyed on the acquiring thread.
  class Pin {
   public:
    Pin() noexcept = default;
    Pin(Pin&& other) noexcept : engaged_(std::exchange(other.engaged_, false)) {}
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        engaged_ = std::exchange(other.engaged_, false);
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    [[nodiscard]] bool engaged() const { return engaged_; }

   private:
    friend class EpochDomain;
    explicit Pin(bool engaged) noexcept : engaged_(engaged) {}
    void Release() noexcept;

    bool engaged_ = false;
  };

  /// Enters a reader critical section on the calling thread.
  [[nodiscard]] static Pin Acquire();

  /// Advances the global epoch and returns the pre-advance value — the
  /// retirement tag for anything unpublished before the call. An object
  /// tagged `t` may be destroyed once MinPinned() > t.
  uint64_t Retire();

  /// Minimum epoch announced by any pinned reader; UINT64_MAX when no
  /// reader is pinned anywhere in the process.
  [[nodiscard]] uint64_t MinPinned() const;

 private:
  // One cache line per reader slot: `epoch` is hammered by its owning
  // thread and only scanned (rarely) by writers.
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{0};  ///< 0 = quiescent
    std::atomic<bool> in_use{false};
    uint32_t depth = 0;  ///< pin nesting; touched only by the owner
    Slot* next = nullptr;  ///< registry link, immutable once pushed
  };

  EpochDomain() = default;

  /// The calling thread's slot, claimed from the registry on first use
  /// and returned (quiescent) at thread exit. Never null.
  static Slot* LocalSlot();

  std::atomic<uint64_t> epoch_{1};
  std::atomic<Slot*> slots_{nullptr};

  friend class Pin;
  struct SlotLease;
};

}  // namespace vecube

#endif  // VECUBE_UTIL_EPOCH_H_
