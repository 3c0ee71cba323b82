// Checker canary: the admission fast path falls back to the queue mutex
// before trying its CAS. Every query starts here, so a lock here
// serializes the whole server the way the mutex admission did.
// NOT compiled — consumed by tools/vecube_check.py --canaries as a
// self-test.
//
// vecube-check-as: src/serve/admission.cc
// vecube-check-expect: hit-path-no-locks

#include "serve/admission.h"

namespace vecube {

bool AdmissionController::TakeSlot(bool queued) {
  MutexLock lock(mu_);  // BUG: a lock on every admit
  // order: seq_cst — canary body; only the lock above is under test.
  uint64_t state = state_.load(std::memory_order_seq_cst);
  if ((state & kInflightMask) >= options_.max_inflight) return false;
  (void)queued;
  // order: seq_cst — canary body.
  state_.fetch_add(kOneInflight + kOneAdmitted, std::memory_order_seq_cst);
  return true;
}

}  // namespace vecube
