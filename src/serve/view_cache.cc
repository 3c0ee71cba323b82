#include "serve/view_cache.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace vecube {

namespace {

// Per-entry hit counters are striped: each stripe owns a cache line, and
// a reader thread only ever bumps the stripe HitStripeIndex() gave it, so
// concurrent hits on one hot entry never write a line another core is
// writing. A writer sums the stripes; the count stays exact.
constexpr uint32_t kHitStripes = 8;

// GetOrFill's follower retry bound after leader-local aborts, and the
// pause between retries (clamped to the waiter's deadline).
constexpr uint32_t kMaxFollowerRetries = 3;
constexpr std::chrono::milliseconds kFollowerBackoff{1};

struct alignas(64) HitStripe {
  std::atomic<uint64_t> count{0};
};

// The calling thread's stripe, dealt round-robin on its first hit so up
// to kHitStripes concurrent readers get distinct lines. More readers
// than stripes share a stripe; the fetch_add keeps that exact too.
uint32_t HitStripeIndex() {
  static std::atomic<uint32_t> next_stripe{0};
  // order: relaxed — only deals out stripe indices; no data is
  // published through the counter, and any value is a valid stripe.
  thread_local const uint32_t index =
      next_stripe.fetch_add(1, std::memory_order_relaxed) % kHitStripes;
  return index;
}

}  // namespace

// A resident element. Shared between successive table versions (a COW
// publish copies the pointer, not the entry), so the hit stripes a
// reader bumps are the same objects no matter which table version the
// reader loaded. Everything except the `hit_stripes` counters is either
// immutable after construction or guarded by the owning shard's mu.
struct ViewCache::Entry {
  std::shared_ptr<const Tensor> data;
  uint64_t assembly_cost = 0;
  uint64_t bytes = 0;
  /// Decayed hit weight as of write-generation `folded_at` (mu).
  double folded_heat = 0.0;
  uint64_t folded_at = 0;
  /// Hits recorded since the last fold, one cache line per stripe, so
  /// the hit path never writes the line holding the fields above.
  std::array<HitStripe, kHitStripes> hit_stripes;

  /// Hit path: one relaxed fetch_add on the calling thread's stripe.
  void RecordHit() {
    // order: relaxed — pure event count; the stripes are summed under
    // shard.mu (DrainHits, Metrics) or at reclaim after the epoch proves
    // no reader can still bump them, so no other data is published
    // through this counter.
    hit_stripes[HitStripeIndex()].count.fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Takes and zeroes every stripe; the sum of hits since the last drain.
  uint64_t DrainHits() {
    uint64_t total = 0;
    for (HitStripe& stripe : hit_stripes) {
      // order: relaxed — the exchange is atomic per stripe, so a racing
      // RecordHit lands either in this drain or in the next one; the
      // caller serializes drains under shard.mu.
      total += stripe.count.exchange(0, std::memory_order_relaxed);
    }
    return total;
  }

  /// Sum of the stripes without draining them (Metrics() snapshot).
  [[nodiscard]] uint64_t PendingHits() const {
    uint64_t total = 0;
    for (const HitStripe& stripe : hit_stripes) {
      // order: relaxed — snapshot of an event counter; hits landing
      // during the walk appear in the next snapshot.
      total += stripe.count.load(std::memory_order_relaxed);
    }
    return total;
  }
};

// One immutable published version of a shard's resident set. Readers
// reach it through Shard::live under an epoch pin; writers replace it
// wholesale and retire the old version through the limbo list.
struct ViewCache::Table {
  std::unordered_map<ElementId, std::shared_ptr<Entry>, ElementIdHash> map;
  uint64_t bytes = 0;
};

// One in-flight assembly, shared by its leader and all coalesced
// followers. `m`/`cv` are local to the flight — waiting followers never
// touch the shard lock until the result is ready. Lock order: a thread
// never holds `m` and a Shard::mu at once (completion writes the result
// after dropping the shard lock), so flight locks sit outside the shard
// tier of the hierarchy (DESIGN.md §12).
struct ViewCache::Flight {
  Mutex m;
  CondVar cv;
  bool done VECUBE_GUARDED_BY(m) = false;
  bool aborted VECUBE_GUARDED_BY(m) = false;
  std::shared_ptr<const Tensor> result VECUBE_GUARDED_BY(m);
  uint64_t assembly_cost VECUBE_GUARDED_BY(m) = 0;
  /// Why the leader aborted; surfaced to followers via WaitFill.
  Status error VECUBE_GUARDED_BY(m) = Status::OK();
};

struct ViewCache::Shard {
  // A retired table version plus the entries that publish removed,
  // destroyable once every reader epoch passes `tag`. Removed entries
  // ride here explicitly (not just inside the old table) so their final
  // pending hit counts can be folded exactly at reclaim time — after
  // which no reader can still bump them.
  struct Limbo {
    uint64_t tag = 0;
    std::unique_ptr<const Table> table;
    std::vector<std::shared_ptr<Entry>> dying;
  };

  mutable Mutex mu;
  /// The published resident set. Readers: acquire-load under an epoch
  /// pin (lock-free, so not VECUBE_GUARDED_BY). Writers: replaced only
  /// via PublishLocked while holding mu.
  std::atomic<const Table*> live{nullptr};
  uint64_t generation VECUBE_GUARDED_BY(mu) = 0;   ///< write generation
  /// Appointed fill leaders (a hit or a coalesced wait is not a miss).
  uint64_t misses VECUBE_GUARDED_BY(mu) = 0;
  /// Bumped by InvalidateAll; stales in-flight fills.
  uint64_t flush_epoch VECUBE_GUARDED_BY(mu) = 0;
  uint64_t folded_hits VECUBE_GUARDED_BY(mu) = 0;
  uint64_t coalesced_hits VECUBE_GUARDED_BY(mu) = 0;
  uint64_t insertions VECUBE_GUARDED_BY(mu) = 0;
  uint64_t rejected_inserts VECUBE_GUARDED_BY(mu) = 0;
  uint64_t stale_fills VECUBE_GUARDED_BY(mu) = 0;
  uint64_t evictions VECUBE_GUARDED_BY(mu) = 0;
  uint64_t invalidations VECUBE_GUARDED_BY(mu) = 0;
  uint64_t folded_ops_saved VECUBE_GUARDED_BY(mu) = 0;
  uint64_t ops_executed VECUBE_GUARDED_BY(mu) = 0;
  std::unordered_map<ElementId, std::shared_ptr<Flight>, ElementIdHash>
      flights VECUBE_GUARDED_BY(mu);
  std::deque<Limbo> limbo VECUBE_GUARDED_BY(mu);  ///< retire-tag ascending
};

ViewCache::ViewCache(ViewCacheOptions options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.heat_decay <= 0.0 || options_.heat_decay > 1.0) {
    options_.heat_decay = 1.0;
  }
  shard_capacity_bytes_ = options_.capacity_bytes / options_.shards;
  shards_.reserve(options_.shards);
  for (uint32_t s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    auto table = std::make_unique<Table>();
    // order: relaxed — construction; no other thread can see the cache.
    shard->live.store(table.release(), std::memory_order_relaxed);
    shards_.push_back(std::move(shard));
  }
}

ViewCache::~ViewCache() {
  // Precondition (as for any destructor): no concurrent calls. The limbo
  // lists clean themselves up; the published tables are reclaimed here.
  for (auto& shard : shards_) {
    // order: relaxed — destruction precondition is no concurrent calls.
    std::unique_ptr<const Table> live(
        shard->live.exchange(nullptr, std::memory_order_relaxed));
  }
}

ViewCache::Shard& ViewCache::ShardFor(const ElementId& id) {
  return *shards_[ElementIdHash{}(id) % shards_.size()];
}

ViewCache::ReadHandle ViewCache::FindPinned(const ElementId& id) {
  Shard& shard = ShardFor(id);
  EpochDomain::Pin pin = EpochDomain::Acquire();
  // order: acquire — pairs with the seq_cst publish in PublishLocked so
  // the table's contents (map nodes, entries, tensors) are visible; the
  // pin taken above keeps the loaded version out of reclamation.
  const Table* table = shard.live.load(std::memory_order_acquire);
  auto it = table->map.find(id);
  if (it == table->map.end()) return ReadHandle();
  Entry* entry = it->second.get();
  entry->RecordHit();
  return ReadHandle(std::move(pin), entry->data.get());
}

Status ViewCache::FillFailpoint() {
  if (std::optional<FailpointAction> fp =
          Failpoints::HitWithDelay("serve.fill");
      fp.has_value() && fp->kind == FailpointAction::Kind::kError) {
    return Status::Internal("injected fill failure (failpoint serve.fill)");
  }
  return Status::OK();
}

Status ViewCache::RetryAfterAbort(const Status& cause, uint32_t retries,
                                  const QueryContext& ctx) {
  // Our own budget ran out while waiting (distinct from the leader's —
  // the leader may still complete for others).
  VECUBE_RETURN_NOT_OK(ctx.Check());
  // An element-local failure would fail identically on retry; a leader
  // that keeps aborting surfaces its cause instead of a retry livelock.
  if (!IsLeaderLocalAbort(cause) || retries >= kMaxFollowerRetries) {
    return cause;
  }
  RecordFollowerRetry();
  const QueryContext::Clock::duration pause =
      std::min<QueryContext::Clock::duration>(kFollowerBackoff,
                                              ctx.remaining());
  if (pause > QueryContext::Clock::duration::zero()) {
    // A private, never-notified CondVar: a bounded sleep that stays
    // inside the annotated sync primitives (and under the deadline), so
    // a rapidly re-aborting leader is not hammered.
    Mutex m;
    CondVar cv;
    MutexLock lock(m);
    cv.WaitFor(m, pause);
  }
  return Status::OK();
}

ViewCache::LookupOutcome ViewCache::LookupOrBegin(const ElementId& id) {
  LookupOutcome out;
  out.hit = FindPinned(id);
  if (out.hit) return out;

  Shard& shard = ShardFor(id);
  MutexLock lock(shard.mu);
  // Re-probe under the lock: a fill may have landed since the lock-free
  // probe. The table cannot be retired while mu is held, and the pin is
  // taken before mu is released, so the handle stays valid afterwards.
  // order: acquire — same publish pairing as FindPinned (mu alone would
  // suffice, since publishers store under mu; acquire keeps it uniform).
  const Table* table = shard.live.load(std::memory_order_acquire);
  auto it = table->map.find(id);
  if (it != table->map.end()) {
    EpochDomain::Pin pin = EpochDomain::Acquire();
    Entry* entry = it->second.get();
    entry->RecordHit();
    out.hit = ReadHandle(std::move(pin), entry->data.get());
    return out;
  }
  auto fit = shard.flights.find(id);
  if (fit != shard.flights.end()) {
    out.fill.flight_ = fit->second;
    out.fill.id_ = id;
    out.fill.leader_ = false;
    return out;
  }
  auto flight = std::make_shared<Flight>();
  shard.flights.emplace(id, flight);
  ++shard.misses;
  out.fill.flight_ = std::move(flight);
  out.fill.id_ = id;
  out.fill.flush_epoch_ = shard.flush_epoch;
  out.fill.leader_ = true;
  return out;
}

std::shared_ptr<const Tensor> ViewCache::CompleteFill(
    FillTicket ticket, Tensor data, uint64_t assembly_cost) {
  if (!ticket.valid() || !ticket.leader()) return nullptr;
  auto shared = std::make_shared<const Tensor>(std::move(data));
  Shard& shard = ShardFor(ticket.id_);
  std::shared_ptr<const Tensor> served = shared;
  {
    MutexLock lock(shard.mu);
    shard.ops_executed += assembly_cost;
    auto fit = shard.flights.find(ticket.id_);
    if (fit != shard.flights.end() && fit->second == ticket.flight_) {
      shard.flights.erase(fit);
    }
    if (ticket.flush_epoch_ != shard.flush_epoch) {
      // A flush landed between the miss and this fill: the tensor still
      // answers the queries already waiting on it (they began before the
      // flush, so it linearizes before), but must not outlive the flush
      // inside the cache.
      ++shard.stale_fills;
    } else {
      served = InsertLocked(&shard, ticket.id_, shared, assembly_cost);
    }
  }
  {
    MutexLock flight_lock(ticket.flight_->m);
    ticket.flight_->result = served;
    ticket.flight_->assembly_cost = assembly_cost;
    ticket.flight_->done = true;
  }
  ticket.flight_->cv.NotifyAll();
  return served;
}

void ViewCache::AbortFill(FillTicket ticket, Status cause) {
  if (!ticket.valid() || !ticket.leader()) return;
  Shard& shard = ShardFor(ticket.id_);
  {
    MutexLock lock(shard.mu);
    auto fit = shard.flights.find(ticket.id_);
    if (fit != shard.flights.end() && fit->second == ticket.flight_) {
      shard.flights.erase(fit);
    }
  }
  {
    MutexLock flight_lock(ticket.flight_->m);
    ticket.flight_->aborted = true;
    ticket.flight_->error =
        cause.ok() ? Status::Unavailable("fill aborted") : std::move(cause);
    ticket.flight_->done = true;
  }
  ticket.flight_->cv.NotifyAll();
}

ViewCache::FillWait ViewCache::WaitFill(const FillTicket& ticket,
                                        const QueryContext& ctx) {
  if (!ticket.valid() || ticket.leader()) {
    return FillWait{nullptr,
                    Status::InvalidArgument("not a follower ticket")};
  }
  Flight& flight = *ticket.flight_;
  std::shared_ptr<const Tensor> result;
  uint64_t cost = 0;
  {
    MutexLock flight_lock(flight.m);
    while (!flight.done) {
      Status live = ctx.Check();
      if (!live.ok()) {
        // The fill may still be in progress; this follower just cannot
        // afford to keep waiting for it.
        return FillWait{nullptr, std::move(live)};
      }
      // Bounded slices: re-check the context every 100 ms (or sooner
      // when the deadline is nearer), so a stuck leader can never park
      // a follower forever.
      const QueryContext::Clock::duration slice = std::min<
          QueryContext::Clock::duration>(std::chrono::milliseconds(100),
                                         ctx.remaining());
      flight.cv.WaitFor(flight.m, slice);
    }
    if (flight.aborted) return FillWait{nullptr, flight.error};
    result = flight.result;
    cost = flight.assembly_cost;
  }
  // The coalesced query is a hit in every accounting sense: it spent no
  // assembly ops and saved its full rebuild cost.
  Shard& shard = ShardFor(ticket.id_);
  MutexLock lock(shard.mu);
  ++shard.folded_hits;
  ++shard.coalesced_hits;
  shard.folded_ops_saved += cost;
  return FillWait{std::move(result), Status::OK()};
}

std::shared_ptr<const Tensor> ViewCache::InsertLocked(
    Shard* shard, const ElementId& id, std::shared_ptr<const Tensor> shared,
    uint64_t assembly_cost) {
  ++shard->generation;
  // order: relaxed — we hold shard->mu, the only context that stores
  // `live`; the load cannot race a publish.
  const Table* live = shard->live.load(std::memory_order_relaxed);
  // A leader is appointed only while `id` is neither resident nor in
  // flight, and its flight leaves the map under this same lock, so no
  // second fill of one epoch can find `id` resident.
  VECUBE_DCHECK(live->map.find(id) == live->map.end());
  const uint64_t bytes = shared->size() * sizeof(double);
  if (bytes > shard_capacity_bytes_) {
    ++shard->rejected_inserts;
    return shared;
  }
  auto next = std::make_unique<Table>();
  next->map = live->map;
  next->bytes = live->bytes;
  EvictIntoLocked(shard, next.get(), bytes);
  // EvictIntoLocked detached the victims from `next`; recover them by
  // set difference so they can ride the limbo list to exact reclaim.
  std::vector<std::shared_ptr<Entry>> removed;
  if (next->map.size() != live->map.size()) {
    removed.reserve(live->map.size() - next->map.size());
    for (const auto& [live_id, live_entry] : live->map) {
      if (next->map.find(live_id) == next->map.end()) {
        removed.push_back(live_entry);
      }
    }
  }
  auto entry = std::make_shared<Entry>();
  entry->data = std::move(shared);
  entry->assembly_cost = assembly_cost;
  entry->bytes = bytes;
  entry->folded_heat = 1.0;
  entry->folded_at = shard->generation;
  std::shared_ptr<const Tensor> retained = entry->data;
  next->map.emplace(id, std::move(entry));
  next->bytes += bytes;
  ++shard->insertions;
  PublishLocked(shard, std::move(next), std::move(removed));
  return retained;
}

void ViewCache::FoldEntryLocked(Shard* shard, Entry* entry) const {
  const uint64_t pending = entry->DrainHits();
  if (options_.heat_decay < 1.0 && entry->folded_heat != 0.0) {
    const uint64_t gap = shard->generation - entry->folded_at;
    if (gap != 0) {
      entry->folded_heat *=
          std::pow(options_.heat_decay, static_cast<double>(gap));
    }
  }
  entry->folded_heat += static_cast<double>(pending);
  entry->folded_at = shard->generation;
  shard->folded_hits += pending;
  shard->folded_ops_saved += pending * entry->assembly_cost;
}

double ViewCache::ScoreLocked(const Shard& shard, const Entry& entry) const {
  // Benefit of keeping the entry: expected near-future hits (the decayed
  // hit weight) times what each hit saves (its Procedure-3 rebuild
  // cost). The +1 keeps free-to-rebuild entries ordered by heat among
  // themselves instead of collapsing to a zero tie.
  (void)shard;
  return entry.folded_heat *
         (1.0 + static_cast<double>(entry.assembly_cost));
}

void ViewCache::EvictIntoLocked(Shard* shard, Table* next, uint64_t needed) {
  if (next->bytes + needed <= shard_capacity_bytes_) return;
  // Fold every entry once so scores compare decayed heat plus all hits
  // recorded so far. Hits landing on a victim after this fold stay in
  // its hit stripes and are folded exactly at reclaim time.
  for (auto& [id, entry] : next->map) FoldEntryLocked(shard, entry.get());
  while (!next->map.empty() &&
         next->bytes + needed > shard_capacity_bytes_) {
    auto victim = next->map.begin();
    double victim_score = ScoreLocked(*shard, *victim->second);
    for (auto it = std::next(next->map.begin()); it != next->map.end();
         ++it) {
      const double score = ScoreLocked(*shard, *it->second);
      if (score < victim_score) {
        victim = it;
        victim_score = score;
      }
    }
    next->bytes -= victim->second->bytes;
    next->map.erase(victim);
    ++shard->evictions;
  }
}

void ViewCache::PublishLocked(Shard* shard, std::unique_ptr<Table> next,
                              std::vector<std::shared_ptr<Entry>> removed) {
  // order: relaxed — mu-serialized read of our own last publish.
  std::unique_ptr<const Table> old(
      shard->live.load(std::memory_order_relaxed));
  // order: seq_cst — must precede the Retire() advance in the single
  // total order, so a reader whose pin confirms an epoch past our retire
  // tag is guaranteed to load this replacement, never `old` (see
  // epoch.h's announce-and-confirm proof).
  shard->live.store(next.release(), std::memory_order_seq_cst);
  const uint64_t tag = EpochDomain::Instance().Retire();
  shard->limbo.push_back(
      Shard::Limbo{tag, std::move(old), std::move(removed)});
  ReclaimLocked(shard);
}

void ViewCache::ReclaimLocked(Shard* shard) const {
  if (shard->limbo.empty()) return;
  const uint64_t min_pinned = EpochDomain::Instance().MinPinned();
  while (!shard->limbo.empty() && shard->limbo.front().tag < min_pinned) {
    Shard::Limbo& rec = shard->limbo.front();
    // MinPinned() proved no reader can reach these entries any more, so
    // the drain cannot race a bump: fold their final hit counts so
    // ServeMetrics::hits stays exact across removals.
    for (const std::shared_ptr<Entry>& entry : rec.dying) {
      const uint64_t pending = entry->DrainHits();
      shard->folded_hits += pending;
      shard->folded_ops_saved += pending * entry->assembly_cost;
    }
    shard->limbo.pop_front();
  }
}

uint64_t ViewCache::InvalidateAll() {
  uint64_t dropped = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    // Stale any in-flight fill and orphan its flight: post-flush misses
    // on the same ids must start fresh assemblies against the new data.
    ++shard->flush_epoch;
    shard->flights.clear();
    // order: relaxed — mu-serialized against every publish.
    const Table* live = shard->live.load(std::memory_order_relaxed);
    if (live->map.empty()) continue;
    ++shard->generation;
    const uint64_t count = live->map.size();
    dropped += count;
    shard->invalidations += count;
    std::vector<std::shared_ptr<Entry>> removed;
    removed.reserve(count);
    for (const auto& [id, entry] : live->map) removed.push_back(entry);
    PublishLocked(shard.get(), std::make_unique<Table>(),
                  std::move(removed));
  }
  return dropped;
}

ServeMetrics ViewCache::Metrics() const {
  ServeMetrics metrics;
  // order: relaxed — point-in-time statistics snapshot (see below).
  metrics.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  metrics.shed = shed_.load(std::memory_order_relaxed);
  metrics.degraded = degraded_.load(std::memory_order_relaxed);
  metrics.follower_retries =
      follower_retries_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    metrics.misses += shard->misses;
    metrics.hits += shard->folded_hits;
    metrics.coalesced_hits += shard->coalesced_hits;
    metrics.insertions += shard->insertions;
    metrics.rejected_inserts += shard->rejected_inserts;
    metrics.stale_fills += shard->stale_fills;
    metrics.evictions += shard->evictions;
    metrics.invalidations += shard->invalidations;
    metrics.assembly_ops_saved += shard->folded_ops_saved;
    metrics.assembly_ops_executed += shard->ops_executed;
    // order: relaxed — mu-serialized against every publish.
    const Table* live = shard->live.load(std::memory_order_relaxed);
    metrics.entries += live->map.size();
    metrics.bytes_resident += live->bytes;
    // Unfolded hits: still pending on live entries, or on dying entries
    // not yet reclaimed. Counting both keeps the aggregate exact
    // whenever the cache is quiescent (and a consistent snapshot
    // otherwise).
    for (const auto& [id, entry] : live->map) {
      const uint64_t pending = entry->PendingHits();
      metrics.hits += pending;
      metrics.assembly_ops_saved += pending * entry->assembly_cost;
    }
    for (const Shard::Limbo& rec : shard->limbo) {
      for (const std::shared_ptr<Entry>& entry : rec.dying) {
        const uint64_t pending = entry->PendingHits();
        metrics.hits += pending;
        metrics.assembly_ops_saved += pending * entry->assembly_cost;
      }
    }
  }
  return metrics;
}

}  // namespace vecube
