#include "serve/admission.h"

#include <algorithm>
#include <string>

namespace vecube {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  options_.max_inflight =
      std::clamp<uint32_t>(options_.max_inflight, 1, kMaxAdmissionInflight);
}

void AdmissionController::Permit::Release() {
  if (controller_ != nullptr) {
    controller_->ReleaseSlot();
    controller_ = nullptr;
  }
}

bool AdmissionController::TakeSlot(bool queued) {
  // order: seq_cst — a queued waiter's probe after it bumped sleepers_;
  // the Dekker pair with ReleaseSlot (see sleepers_). The CAS publishes
  // no data: a permit guards nothing but the count.
  uint64_t state = state_.load(std::memory_order_seq_cst);
  while ((state & kInflightMask) < options_.max_inflight &&
         (queued || (state & kShutdownBit) == 0)) {
    // order: seq_cst — as the load above; a failed CAS reloads `state`.
    if (state_.compare_exchange_weak(state,
                                     state + kOneInflight + kOneAdmitted,
                                     std::memory_order_seq_cst)) {
      return true;
    }
  }
  return false;
}

void AdmissionController::ReleaseSlot() {
  // order: seq_cst — the Dekker pair with a sleeper's bump of sleepers_
  // and its TakeSlot probe: this release either sees the sleeper below
  // or the sleeper's probe sees the slot freed here.
  state_.fetch_sub(kOneInflight, std::memory_order_seq_cst);
  // order: seq_cst — see above.
  if (sleepers_.load(std::memory_order_seq_cst) != 0) WakeSleepers();
}

void AdmissionController::WakeSleepers() {
  // A sleeper holds mu_ from its probe until WaitFor parks it, so after
  // this empty critical section it has either not probed yet (and will
  // see the freed slot) or is parked (and the notify wakes it). All
  // sleepers wake: deadlines differ, so the nearest-deadline waiter is
  // not necessarily the one NotifyOne would pick.
  { MutexLock lock(mu_); }
  cv_.NotifyAll();
}

Result<AdmissionController::Permit> AdmissionController::Admit(
    const QueryContext& ctx) {
  if (TakeSlot(/*queued=*/false)) return Permit(this);
  return AdmitQueued(ctx);
}

Result<AdmissionController::Permit> AdmissionController::AdmitQueued(
    const QueryContext& ctx) {
  MutexLock lock(mu_);
  // A slot may have freed since the fast path failed.
  if (TakeSlot(/*queued=*/false)) return Permit(this);
  // order: seq_cst — reads the bit Shutdown set; as every state_ access.
  if ((state_.load(std::memory_order_seq_cst) & kShutdownBit) != 0) {
    ++rejected_shutdown_;
    return Status::Unavailable("server shutting down");
  }
  if (queued_ >= options_.max_queue) {
    ++shed_;
    return Status::ResourceExhausted(
        "admission queue full; retry after " +
        std::to_string(options_.retry_after.count()) + "ms");
  }
  ++queued_;
  // order: seq_cst — announce before probing (see sleepers_).
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  Status status;
  while (!TakeSlot(/*queued=*/true)) {
    status = ctx.Check();
    if (!status.ok()) {
      ++deadline_exceeded_;
      break;
    }
    // Bounded slices: re-check the deadline every 100 ms at worst, so a
    // waiter can never be parked past its budget (no-unbounded-wait).
    const QueryContext::Clock::duration slice =
        std::min<QueryContext::Clock::duration>(
            std::chrono::milliseconds(100), ctx.remaining());
    cv_.WaitFor(mu_, slice);
  }
  // order: seq_cst — as the bump above.
  sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  --queued_;
  if (!status.ok()) return status;
  return Permit(this);
}

void AdmissionController::Shutdown() {
  // order: seq_cst — as every state_ access; a CAS that has not seen the
  // bit fails and reloads it.
  state_.fetch_or(kShutdownBit, std::memory_order_seq_cst);
}

bool AdmissionController::Drain(std::chrono::milliseconds timeout) {
  const QueryContext ctx = QueryContext::WithTimeout(timeout);
  MutexLock lock(mu_);
  // order: seq_cst — a drainer sleeps on cv_ like a queued Admit, so the
  // last release wakes it (see sleepers_).
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  bool drained = false;
  for (;;) {
    // order: seq_cst — the drainer's probe, as TakeSlot's.
    drained = (state_.load(std::memory_order_seq_cst) & kInflightMask) == 0 &&
              queued_ == 0;
    if (drained || ctx.expired()) break;
    const QueryContext::Clock::duration slice =
        std::min<QueryContext::Clock::duration>(
            std::chrono::milliseconds(100), ctx.remaining());
    cv_.WaitFor(mu_, slice);
  }
  // order: seq_cst — as the bump above.
  sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  return drained;
}

AdmissionMetrics AdmissionController::Metrics() const {
  MutexLock lock(mu_);
  // order: relaxed — a snapshot; every admit and release is one atomic
  // update of this word, so the counts it reads are exact.
  const uint64_t state = state_.load(std::memory_order_relaxed);
  AdmissionMetrics metrics;
  metrics.admitted = state >> kAdmittedShift;
  metrics.shed = shed_;
  metrics.deadline_exceeded = deadline_exceeded_;
  metrics.rejected_shutdown = rejected_shutdown_;
  metrics.inflight = state & kInflightMask;
  metrics.queued = queued_;
  return metrics;
}

}  // namespace vecube
