#include "util/epoch.h"

#include <limits>

namespace vecube {

EpochDomain& EpochDomain::Instance() {
  // Immortal: reclamation state must outlive every static-destruction-
  // order-dependent reader, so the domain is constructed once and never
  // destroyed.
  static EpochDomain* const kDomain =
      new EpochDomain();  // vecube-check: disable=no-naked-new
  return *kDomain;
}

// Returns the thread's slot to the registry pool when the thread exits.
struct EpochDomain::SlotLease {
  Slot* slot = nullptr;
  ~SlotLease() {
    if (slot != nullptr) {
      slot->depth = 0;
      // order: release — a later claimant's acquire CAS on in_use must
      // observe the quiescent epoch (and zeroed depth) written here.
      slot->epoch.store(0, std::memory_order_release);
      // order: release — publishes the slot reset above; pairs with the
      // acquire CAS in LocalSlot's reuse scan.
      slot->in_use.store(false, std::memory_order_release);
    }
  }
};

EpochDomain::Slot* EpochDomain::LocalSlot() {
  thread_local SlotLease lease;
  if (lease.slot != nullptr) return lease.slot;
  EpochDomain& domain = Instance();
  // order: acquire — pairs with the release CAS that pushed each node, so
  // the scan sees fully constructed Slot objects through `next` links.
  for (Slot* s = domain.slots_.load(std::memory_order_acquire); s != nullptr;
       s = s->next) {
    bool expected = false;
    // order: relaxed pre-check — a stale true only skips a reusable slot
    // (we allocate a fresh one instead); the CAS below re-decides.
    if (!s->in_use.load(std::memory_order_relaxed) &&
        // order: acquire on success — pairs with the release stores in
        // ~SlotLease so the new owner sees the quiescent slot state.
        s->in_use.compare_exchange_strong(expected, true,
                                          std::memory_order_acquire)) {
      lease.slot = s;
      return s;
    }
  }
  // Registry nodes are immortal by design: writers scan the list without
  // coordinating with thread exit, so nodes must never be deallocated.
  Slot* fresh = new Slot();  // vecube-check: disable=no-naked-new
  // order: relaxed — the slot is not reachable by any other thread until
  // the release CAS below publishes it.
  fresh->in_use.store(true, std::memory_order_relaxed);
  // order: relaxed — the head value is re-validated by the CAS; no data
  // is read through it before the CAS succeeds.
  Slot* head = domain.slots_.load(std::memory_order_relaxed);
  do {
    fresh->next = head;
    // order: release on success — publishes the fully constructed node
    // (in_use, next) to registry scanners; relaxed on failure — the
    // retried head is re-validated, nothing is dereferenced.
  } while (!domain.slots_.compare_exchange_weak(head, fresh,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
  lease.slot = fresh;
  return fresh;
}

EpochDomain::Pin EpochDomain::Acquire() {
  EpochDomain& domain = Instance();
  Slot* slot = LocalSlot();
  if (slot->depth++ == 0) {
    // Announce-and-confirm: after the loop, the slot value and a
    // subsequent read of the global epoch agree, so any retirement the
    // announcement missed is one whose replacement this reader is
    // guaranteed to observe (see header).
    // order: seq_cst — the announce/confirm protocol needs a single total
    // order over {slot store, epoch loads, writer's epoch fetch_add,
    // writer's slot scan}; anything weaker re-opens the publication race
    // the confirm loop exists to close (proof in DESIGN.md §10).
    uint64_t e = domain.epoch_.load(std::memory_order_seq_cst);
    for (;;) {
      // order: seq_cst — the announcement must be ordered before the
      // confirming epoch load below in the global total order.
      slot->epoch.store(e, std::memory_order_seq_cst);
      // order: seq_cst — confirm read; see the protocol note above.
      const uint64_t confirm = domain.epoch_.load(std::memory_order_seq_cst);
      if (confirm == e) break;
      e = confirm;
    }
  }
  return Pin(true);
}

void EpochDomain::Pin::Release() noexcept {
  if (!engaged_) return;
  engaged_ = false;
  Slot* slot = LocalSlot();
  if (--slot->depth == 0) {
    // order: release — publishes every read made inside the critical
    // section to the writer that observes the slot go quiescent (via the
    // seq_cst scan in MinPinned) before freeing limbo objects.
    slot->epoch.store(0, std::memory_order_release);
  }
}

uint64_t EpochDomain::Retire() {
  // order: seq_cst — the advance must be totally ordered against reader
  // announce/confirm pairs: a reader whose confirm missed this advance is
  // guaranteed visible to the writer's subsequent MinPinned scan.
  return epoch_.fetch_add(1, std::memory_order_seq_cst);
}

uint64_t EpochDomain::MinPinned() const {
  uint64_t min = std::numeric_limits<uint64_t>::max();
  // order: acquire — pairs with the release CAS publishing registry
  // nodes, so `next` chains and slot fields are safe to read.
  for (const Slot* s = slots_.load(std::memory_order_acquire); s != nullptr;
       s = s->next) {
    // order: seq_cst — the scan must appear after the Retire() advance in
    // the total order, so any reader pinned to a pre-advance epoch is
    // observed here rather than racing past the scan (see Acquire).
    const uint64_t e = s->epoch.load(std::memory_order_seq_cst);
    if (e != 0 && e < min) min = e;
  }
  return min;
}

}  // namespace vecube
