// AdmissionController: bounded-queue load shedding for the serving stack
// (DESIGN.md §13).
//
// Every query acquires a Permit before touching the assembly engine. At
// most `max_inflight` permits are outstanding; the next `max_queue`
// arrivals wait (in bounded timed slices, honoring their own deadlines);
// anything beyond that is shed immediately with kResourceExhausted and a
// retry-after hint — the server stays responsive by refusing work it
// cannot finish in time, instead of queueing unboundedly and missing
// every deadline at once.
//
// Shutdown is graceful: new arrivals are refused with kUnavailable, but
// already-queued waiters keep their place and are admitted as slots
// free, so an operator-initiated drain (vecube_cli serve on SIGINT)
// finishes the work it already accepted.
//
// The uncontended path takes no lock: Admit takes a slot with one CAS on
// a cache-line-aligned word that packs the in-flight count, the shutdown
// bit and the admitted count, and a Permit gives it back with one
// fetch_sub. The mutex and condition variable serve only the queue: a
// release locks and notifies only when a thread is parked on it.
//
// A permit bounds concurrent work, not memory. A served answer aliases
// the cache's tensor (Tensor::Share) until it is written, and outlives
// both its permit and the cache entry: an evicted or flushed tensor's
// bytes live until the last answer sharing them drops, so resident
// bytes can exceed the cache budget by what callers still hold.

#ifndef VECUBE_SERVE_ADMISSION_H_
#define VECUBE_SERVE_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>

#include "util/query_context.h"
#include "util/result.h"
#include "util/status.h"
#include "util/sync.h"

namespace vecube {

/// Largest max_inflight an AdmissionController accepts: the in-flight
/// count shares one 64-bit word with the admitted count.
inline constexpr uint32_t kMaxAdmissionInflight = (1u << 16) - 1;

struct AdmissionOptions {
  /// Queries allowed to execute concurrently; the controller clamps it to
  /// [1, kMaxAdmissionInflight].
  uint32_t max_inflight = 4;
  /// Queries allowed to wait for a slot; arrivals beyond this are shed.
  uint32_t max_queue = 16;
  /// Hint embedded in the kResourceExhausted message of a shed query.
  std::chrono::milliseconds retry_after{50};
};

struct AdmissionMetrics {
  /// Permits granted, modulo 2^47 (over 300 days at 5 M admits/s).
  uint64_t admitted = 0;
  uint64_t shed = 0;               ///< refused: queue full
  uint64_t deadline_exceeded = 0;  ///< gave up waiting for a slot
  uint64_t rejected_shutdown = 0;  ///< refused: controller shut down
  uint64_t inflight = 0;           ///< point-in-time outstanding permits
  uint64_t queued = 0;             ///< point-in-time waiters
};

/// Thread-safe. One controller fronts one serving endpoint; workers call
/// Admit() per query and hold the Permit for the query's duration.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// RAII slot: releases on destruction, waking queued waiters if any.
  class Permit {
   public:
    Permit() noexcept = default;
    Permit(Permit&& other) noexcept
        : controller_(std::exchange(other.controller_, nullptr)) {}
    Permit& operator=(Permit&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = std::exchange(other.controller_, nullptr);
      }
      return *this;
    }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;
    ~Permit() { Release(); }

    [[nodiscard]] bool valid() const { return controller_ != nullptr; }
    void Release();

   private:
    friend class AdmissionController;
    explicit Permit(AdmissionController* controller) noexcept
        : controller_(controller) {}

    AdmissionController* controller_ = nullptr;
  };

  /// Grants a slot, queues for one (bounded timed waits, never past the
  /// context's deadline), or refuses:
  ///  * kResourceExhausted — queue full; the message carries the
  ///    retry-after hint. The caller should answer the client
  ///    immediately (load shedding).
  ///  * kDeadlineExceeded / kCancelled — the context gave out while
  ///    queued; no slot was consumed.
  ///  * kUnavailable — controller shut down.
  Result<Permit> Admit(const QueryContext& ctx = QueryContext());

  /// Stops admitting new queries (kUnavailable). Queued waiters keep
  /// their place and drain normally.
  void Shutdown();

  /// Blocks (in bounded slices) until no permits are outstanding and the
  /// queue is empty, or `timeout` elapses. Returns true when drained.
  /// Call after Shutdown() for a clean stop.
  bool Drain(std::chrono::milliseconds timeout);

  [[nodiscard]] AdmissionMetrics Metrics() const;

 private:
  // state_ packs, low bits first: outstanding permits, the shutdown bit,
  // and the admitted count (the remaining 47 bits, wrapping).
  static constexpr uint64_t kOneInflight = 1;
  static constexpr uint64_t kInflightMask = kMaxAdmissionInflight;
  static constexpr uint64_t kShutdownBit = kInflightMask + 1;
  static constexpr uint32_t kAdmittedShift = 17;
  static constexpr uint64_t kOneAdmitted = uint64_t{1} << kAdmittedShift;

  /// The lock-free fast path: takes a slot (and counts the admit) with a
  /// CAS when one is free — and, unless `queued`, when not shut down (a
  /// queued waiter keeps its place through a shutdown).
  bool TakeSlot(bool queued);
  /// Admit's slow path under mu_: refuse, shed, or queue for a slot.
  Result<Permit> AdmitQueued(const QueryContext& ctx);
  void ReleaseSlot();
  /// Wakes the threads parked on cv_ (queued Admits, Drain).
  void WakeSleepers();

  AdmissionOptions options_;  ///< immutable after construction
  /// Outstanding permits | shutdown bit | admitted count; see above.
  alignas(64) std::atomic<uint64_t> state_{0};
  /// Threads parked, or about to park, on cv_. A release reads it after
  /// freeing its slot and a sleeper bumps it before probing for one, both
  /// seq_cst, so either the release sees the sleeper or the sleeper sees
  /// the freed slot (Dekker).
  std::atomic<uint32_t> sleepers_{0};
  alignas(64) mutable Mutex mu_;
  CondVar cv_;
  uint32_t queued_ VECUBE_GUARDED_BY(mu_) = 0;
  uint64_t shed_ VECUBE_GUARDED_BY(mu_) = 0;
  uint64_t deadline_exceeded_ VECUBE_GUARDED_BY(mu_) = 0;
  uint64_t rejected_shutdown_ VECUBE_GUARDED_BY(mu_) = 0;
};

}  // namespace vecube

#endif  // VECUBE_SERVE_ADMISSION_H_
