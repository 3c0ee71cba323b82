// ViewCache: concurrent, benefit-weighted memoization of assembled view
// element tensors — the serving layer in front of dynamic assembly.
//
// The paper's cost/benefit model turned into a replacement policy: every
// resident entry carries the Procedure-3 assembly cost T_n it saved (the
// add/subtract operations a cache miss would spend re-assembling it) and
// an exponentially decayed hit weight (the same decayed-frequency
// estimate AccessTracker keeps for the selection loop). The eviction
// victim is the entry minimizing
//
//   score = decayed_hit_weight * (1 + T_n)
//
// i.e. we evict what is cold AND cheap to rebuild, and keep what is hot
// or expensive — exactly the benefit metric Section 5 optimizes, applied
// to cache residency instead of materialization.
//
// Concurrency (DESIGN.md §10): the lookup is contention-free. Each
// shard publishes an immutable table of entries through an atomic
// pointer; readers pin a process-wide epoch (util/epoch.h), load the
// table, and record the hit with one relaxed fetch_add on the calling
// thread's own cache-line stripe of the entry's hit counter — no mutex,
// no shared_ptr refcount traffic, no shared mutable map, no write to a
// line another reader writes. Writers (fill / evict / flush) serialize
// on a per-shard mutex, copy-on-write the table, and retire the old
// version through the epoch limbo, so a reader holding a ReadHandle can
// never observe freed memory and never blocks a writer.
//
// Handing the answer out is a separate step with one refcount bump: the
// serving layers return Tensor::Share() of the cached tensor, one
// atomic increment on its payload instead of a copy of its cells. The
// answer aliases the cache until it is written (the write detaches it),
// and an evicted or flushed tensor's cells live until the last answer
// sharing them drops.
//
// Misses are single-flight: concurrent misses on one ElementId coalesce
// onto a single assembly. GetOrFill() runs the whole protocol for every
// serving layer (element, dynamic and range queries); its steps are
// public for the benches. LookupOrBegin() returns either a hit, a leader
// ticket (the caller assembles and publishes via CompleteFill), or a
// follower ticket (WaitFill blocks until the leader finishes). The
// leader's ticket carries the shard's flush epoch from before the
// assembly started; a flush (InvalidateAll) that lands mid-assembly
// bumps the epoch, and the completed fill is then served to the waiters
// whose lookups began before the flush but is NOT retained — a stale
// pre-flush tensor can never be re-inserted and served to later queries.
//
// Invalidation model: every view element is a linear functional of the
// data cube, so a single point delta stales EVERY cached tensor — delta
// hooks are a wholesale flush, not a per-key invalidation.
// Reconfiguration/optimization swap the materialized set, changing every
// entry's rebuild cost, so they flush too.

#ifndef VECUBE_SERVE_VIEW_CACHE_H_
#define VECUBE_SERVE_VIEW_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/element_id.h"
#include "cube/tensor.h"
#include "util/epoch.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/status.h"
#include "util/sync.h"

namespace vecube {

struct ViewCacheOptions {
  /// Consumed by the embedding layers (OlapSession, DynamicAssembler):
  /// when false they do not construct a cache at all. A directly
  /// constructed ViewCache is always live.
  bool enabled = false;
  /// Total resident-data budget across all shards, in bytes of tensor
  /// payload. Entries larger than capacity_bytes / shards are served but
  /// never retained.
  uint64_t capacity_bytes = uint64_t{64} << 20;
  /// Number of independently locked shards (>= 1). Writers on different
  /// shards never contend; readers never contend at all.
  uint32_t shards = 8;
  /// Per-shard-write exponential decay of entry hit weights, in (0, 1].
  /// 1.0 = plain hit counting. Applied lazily: hits accumulate in
  /// lock-free per-entry counters, striped so each reader thread bumps
  /// its own cache line, and are folded into the decayed weight when a
  /// writer next touches the shard (hits themselves never touch shared
  /// decay state — that is what makes the hit path contention-free).
  double heat_decay = 0.98;
};

/// Aggregate serving counters, queryable from the session and dumped by
/// vecube_cli. A point-in-time snapshot across shards. Counters are
/// exact: a hit recorded by any reader is eventually folded into `hits`
/// and never dropped, even across concurrent flushes (the fold happens
/// only after epoch reclamation proves no reader still holds the entry).
struct ServeMetrics {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Queries served by waiting on another caller's in-flight assembly of
  /// the same element (single-flight coalescing). Counted inside `hits`.
  uint64_t coalesced_hits = 0;
  uint64_t insertions = 0;
  uint64_t rejected_inserts = 0;  ///< entries too large to ever retain
  /// Completed fills dropped because a flush intervened between the
  /// miss and the insert: the answer was served but not retained.
  uint64_t stale_fills = 0;
  uint64_t evictions = 0;        ///< entries displaced by capacity pressure
  uint64_t invalidations = 0;    ///< entries dropped by invalidate/flush
  uint64_t entries = 0;          ///< currently resident
  uint64_t bytes_resident = 0;   ///< payload bytes currently resident
  /// Σ Procedure-3 cost over hits: assembly operations the cache saved.
  uint64_t assembly_ops_saved = 0;
  /// Σ Procedure-3 cost over fills: assembly operations actually spent by
  /// callers populating the cache. With single-flight coalescing this is
  /// thread-count-invariant, and
  ///   assembly_ops_saved + assembly_ops_executed == Σ per-query cost
  /// holds at every concurrency level (each query is exactly one of:
  /// hit, coalesced hit, or leader fill).
  uint64_t assembly_ops_executed = 0;

  // Robustness counters (DESIGN.md §13), recorded by the serving layers
  // via the Record* hooks below. Cacheless sessions report zeroes.
  uint64_t deadline_exceeded = 0;  ///< queries that ran out of deadline
  uint64_t shed = 0;               ///< queries refused by admission control
  uint64_t degraded = 0;           ///< queries answered approximately
  uint64_t follower_retries = 0;   ///< WaitFill retries after leader aborts

  [[nodiscard]] double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Sharded, thread-safe memoization of assembled element tensors. All
/// public methods are safe to call concurrently from any thread (but see
/// the ReadHandle thread-affinity note).
class ViewCache {
 private:
  struct Flight;
  struct Entry;
  struct Table;
  struct Shard;

 public:
  explicit ViewCache(ViewCacheOptions options = {});
  ~ViewCache();

  ViewCache(const ViewCache&) = delete;
  ViewCache& operator=(const ViewCache&) = delete;

  /// A zero-refcount, epoch-pinned view of a cached tensor. While the
  /// handle lives, the tensor cannot be reclaimed (writers retire it
  /// into the epoch limbo instead of freeing it). Release promptly —
  /// a long-lived handle delays memory reclamation, though it never
  /// blocks writers. Must be destroyed on the thread that looked it up.
  class ReadHandle {
   public:
    ReadHandle() noexcept = default;
    ReadHandle(ReadHandle&&) noexcept = default;
    ReadHandle& operator=(ReadHandle&&) noexcept = default;
    ReadHandle(const ReadHandle&) = delete;
    ReadHandle& operator=(const ReadHandle&) = delete;

    explicit operator bool() const { return data_ != nullptr; }
    [[nodiscard]] const Tensor* get() const { return data_; }
    const Tensor& operator*() const { return *data_; }
    const Tensor* operator->() const { return data_; }

   private:
    friend class ViewCache;
    ReadHandle(EpochDomain::Pin pin, const Tensor* data) noexcept
        : pin_(std::move(pin)), data_(data) {}

    EpochDomain::Pin pin_;
    const Tensor* data_ = nullptr;
  };

  /// Permission to fill one element, handed out by LookupOrBegin() on a
  /// miss. Exactly one concurrent caller per ElementId is the leader
  /// (it must call CompleteFill or AbortFill); the rest are followers
  /// (they call WaitFill).
  class FillTicket {
   public:
    FillTicket() noexcept = default;
    FillTicket(FillTicket&&) noexcept = default;
    FillTicket& operator=(FillTicket&&) noexcept = default;
    FillTicket(const FillTicket&) = delete;
    FillTicket& operator=(const FillTicket&) = delete;

    [[nodiscard]] bool valid() const { return flight_ != nullptr; }
    [[nodiscard]] bool leader() const { return leader_; }

   private:
    friend class ViewCache;
    std::shared_ptr<Flight> flight_;
    ElementId id_;
    uint64_t flush_epoch_ = 0;
    bool leader_ = false;
  };

  /// Outcome of LookupOrBegin: exactly one of `hit` / `fill` is set.
  struct LookupOutcome {
    ReadHandle hit;
    FillTicket fill;
  };

  /// The leader's work product for GetOrFill: the assembled tensor and
  /// its Procedure-3 cost T_n (what every later hit saves).
  struct Assembled {
    Tensor data;
    uint64_t assembly_cost = 0;
  };

  /// What GetOrFill resolved to: an epoch-pinned hit (no refcount
  /// traffic; destroy it on the calling thread, as a ReadHandle) or
  /// shared ownership of a completed fill — the caller's own, or the
  /// leader's it coalesced onto.
  class Served {
   public:
    Served() noexcept = default;
    explicit Served(ReadHandle hit) noexcept : hit_(std::move(hit)) {}
    explicit Served(std::shared_ptr<const Tensor> filled) noexcept
        : filled_(std::move(filled)) {}

    [[nodiscard]] const Tensor* get() const {
      return hit_ ? hit_.get() : filled_.get();
    }
    const Tensor& operator*() const { return *get(); }

   private:
    ReadHandle hit_;
    std::shared_ptr<const Tensor> filled_;
  };

  /// The single-flight read every serving layer goes through. A hit
  /// returns the pinned tensor. On a miss the first caller per id becomes
  /// the leader: it runs `fill` (any callable returning
  /// Result<Assembled>) and publishes the tensor via CompleteFill, or
  /// aborts the flight with fill's error. Concurrent callers wait on the
  /// leader (bounded by `ctx`) and share its answer. When the leader
  /// aborts for a leader-local cause (IsLeaderLocalAbort), a waiter
  /// retries up to 3 times, pausing 1 ms (clamped to its deadline)
  /// between attempts, then surfaces the cause; any other cause
  /// propagates at once, and `ctx` expiring surfaces ctx's own status.
  /// The "serve.fill" failpoint fires on the leader path before `fill`
  /// (kDelay stalls the leader; kError aborts the fill).
  template <typename Fill>
  Result<Served> GetOrFill(const ElementId& id, const QueryContext& ctx,
                           Fill&& fill);

  /// True for abort causes local to a fill leader — its deadline, its
  /// cancellation, or an unspecified abort: the element itself may be
  /// fine, so a waiter with budget left retries. Element-local failures
  /// (Incomplete, Internal, ...) are not.
  [[nodiscard]] static bool IsLeaderLocalAbort(const Status& status) {
    return status.IsDeadlineExceeded() || status.IsCancelled() ||
           status.IsUnavailable();
  }

  // The protocol's steps, driven by GetOrFill. They stay public for the
  // benches that time or trace each step separately.

  /// Single-flight entry point: a hit returns a pinned handle; the first
  /// concurrent miss per id returns a leader ticket (the caller must
  /// assemble and then CompleteFill/AbortFill); later misses on the same
  /// id return follower tickets for WaitFill. Only the leader's miss is
  /// counted in `misses`.
  LookupOutcome LookupOrBegin(const ElementId& id);

  /// Publishes the leader's assembly result: retains it (unless a flush
  /// intervened since LookupOrBegin — then it is a stale fill and only
  /// served, not retained), wakes all followers, and returns a shared
  /// handle for the leader's own answer.
  std::shared_ptr<const Tensor> CompleteFill(FillTicket ticket, Tensor data,
                                             uint64_t assembly_cost);

  /// Leader's failure path: wakes followers with `cause` (their WaitFill
  /// surfaces it; see FillWait). A leader-local cause (kDeadlineExceeded,
  /// kCancelled) invites followers with budget left to retry and become
  /// the next leader; any other status is the element's own failure and
  /// propagates. The default cause marks an unspecified leader failure.
  void AbortFill(FillTicket ticket,
                 Status cause = Status::Unavailable("fill aborted"));

  /// What a follower's wait resolved to. Exactly one of:
  ///  * status OK and data set — the leader completed (coalesced hit);
  ///  * status kDeadlineExceeded/kCancelled from the follower's own
  ///    context — the wait was cut short, the fill may still be running;
  ///  * the leader's abort cause — the fill failed (data null).
  struct FillWait {
    std::shared_ptr<const Tensor> data;
    Status status = Status::OK();
  };

  /// Follower wait: blocks until the leader completes or aborts, or the
  /// follower's own context expires — every wait is a bounded timed
  /// slice, never an unconditional block. On completion the query is a
  /// coalesced hit (credited with the entry's assembly cost in
  /// ops_saved).
  FillWait WaitFill(const FillTicket& ticket,
                    const QueryContext& ctx = QueryContext());

  /// Wholesale flush — the delta / reconfiguration hook. Returns the
  /// number of entries dropped. Bumps every shard's flush epoch so
  /// in-flight fills that began before the flush cannot re-insert their
  /// (now stale) tensors.
  uint64_t InvalidateAll();

  [[nodiscard]] ServeMetrics Metrics() const;

  /// Robustness accounting hooks for the serving layers (the cache is
  /// the one object every worker shares, so the counters live here).
  void RecordDeadlineExceeded() {
    // order: relaxed — standalone event counters; snapshot by Metrics().
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordShed() {
    // order: relaxed — see RecordDeadlineExceeded.
    shed_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordDegraded() {
    // order: relaxed — see RecordDeadlineExceeded.
    degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordFollowerRetry() {
    // order: relaxed — see RecordDeadlineExceeded.
    follower_retries_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] uint64_t capacity_bytes() const {
    return options_.capacity_bytes;
  }
  [[nodiscard]] uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

 private:
  Shard& ShardFor(const ElementId& id);
  /// The lock-free hit path: an epoch-pinned view of the cached tensor
  /// (bumping the calling thread's stripe of its hit counter), or an
  /// empty handle on a miss. LookupOrBegin's first probe.
  ReadHandle FindPinned(const ElementId& id);
  /// GetOrFill's miss path: leads (`ticket` is a leader's) or waits,
  /// then retries as GetOrFill documents. Kept out of line so callers
  /// inline only the hit probe: with the whole loop inlined into
  /// ElementServer::Serve, the serve_hot benchmark's p99 rose from
  /// 27-36 us to 44-55 us (GCC 12 -O3, 4-vCPU Xeon VM).
  template <typename Fill>
  [[gnu::noinline]] Result<Served> FillOrWait(const ElementId& id,
                                              const QueryContext& ctx,
                                              Fill& fill, FillTicket ticket);
  /// The "serve.fill" failpoint: the injected failure when armed with
  /// kError (after stalling when armed with kDelay), else OK.
  static Status FillFailpoint();
  /// A follower's wait ended in `cause`: OK to retry (after recording the
  /// retry and pausing), else the status to surface — ctx's own when it
  /// expired, otherwise `cause`.
  Status RetryAfterAbort(const Status& cause, uint32_t retries,
                         const QueryContext& ctx);
  /// CompleteFill's retain path: oversized rejection, eviction, COW
  /// publish. Returns the tensor to serve. Caller holds shard.mu.
  std::shared_ptr<const Tensor> InsertLocked(
      Shard* shard, const ElementId& id,
      std::shared_ptr<const Tensor> shared, uint64_t assembly_cost)
      VECUBE_REQUIRES(shard->mu);
  /// Folds an entry's striped lock-free hits into its decayed heat and
  /// the shard's persistent counters. Caller holds shard.mu.
  void FoldEntryLocked(Shard* shard, Entry* entry) const
      VECUBE_REQUIRES(shard->mu);
  /// Benefit score after folding: decayed heat * (1 + assembly cost).
  /// Caller holds shard.mu.
  [[nodiscard]] double ScoreLocked(const Shard& shard,
                                   const Entry& entry) const
      VECUBE_REQUIRES(shard.mu);
  /// Builds `next` from the shard's live table minus enough minimum-
  /// score victims that `needed` more bytes fit. Caller holds shard.mu.
  void EvictIntoLocked(Shard* shard, Table* next, uint64_t needed)
      VECUBE_REQUIRES(shard->mu);
  /// Publishes `next` as the shard's live table and retires the previous
  /// one (plus `removed` entries) into the epoch limbo. Caller holds
  /// shard.mu.
  void PublishLocked(Shard* shard, std::unique_ptr<Table> next,
                     std::vector<std::shared_ptr<Entry>> removed)
      VECUBE_REQUIRES(shard->mu);
  /// Frees limbo tables/entries whose retire epoch has been vacated by
  /// every reader, folding the final hit counts of dying entries into
  /// the shard counters. Caller holds shard.mu.
  void ReclaimLocked(Shard* shard) const VECUBE_REQUIRES(shard->mu);

  ViewCacheOptions options_;  ///< immutable after construction
  uint64_t shard_capacity_bytes_;  ///< immutable after construction
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> follower_retries_{0};
};

template <typename Fill>
Result<ViewCache::Served> ViewCache::GetOrFill(const ElementId& id,
                                               const QueryContext& ctx,
                                               Fill&& fill) {
  LookupOutcome outcome = LookupOrBegin(id);
  if (outcome.hit) return Served(std::move(outcome.hit));
  return FillOrWait(id, ctx, fill, std::move(outcome.fill));
}

template <typename Fill>
Result<ViewCache::Served> ViewCache::FillOrWait(const ElementId& id,
                                                const QueryContext& ctx,
                                                Fill& fill,
                                                FillTicket ticket) {
  for (uint32_t retries = 0;; ++retries) {
    if (ticket.leader()) {
      Status injected = FillFailpoint();
      Result<Assembled> assembled =
          injected.ok() ? fill() : Result<Assembled>(std::move(injected));
      if (!assembled.ok()) {
        AbortFill(std::move(ticket), assembled.status());
        return assembled.status();
      }
      return Served(CompleteFill(std::move(ticket),
                                 std::move(assembled->data),
                                 assembled->assembly_cost));
    }
    FillWait wait = WaitFill(ticket, ctx);
    if (wait.status.ok()) return Served(std::move(wait.data));
    VECUBE_RETURN_NOT_OK(RetryAfterAbort(wait.status, retries, ctx));
    LookupOutcome outcome = LookupOrBegin(id);
    if (outcome.hit) return Served(std::move(outcome.hit));
    ticket = std::move(outcome.fill);
  }
}

}  // namespace vecube

#endif  // VECUBE_SERVE_VIEW_CACHE_H_
