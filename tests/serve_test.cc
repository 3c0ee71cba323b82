// Serving-layer tests: the ViewCache replacement policy and metrics in
// isolation, the cached OlapSession's bit-exactness and invalidation
// hooks, and a TSan-targeted concurrent stress round (readers racing an
// invalidating writer; the suite name carries "Stress" into the CI TSan
// test filter).

#include "serve/view_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/computer.h"
#include "core/element_id.h"
#include "core/graph.h"
#include "cube/synthetic.h"
#include "cube/tensor.h"
#include "select/dynamic.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "view_cache_probe.h"
#include "workload/population.h"

namespace vecube {
namespace {

// A 1-d tensor of `cells` doubles, all equal to `value`.
Tensor MakeTensor(uint32_t cells, double value) {
  auto tensor =
      Tensor::FromData({cells}, std::vector<double>(cells, value));
  EXPECT_TRUE(tensor.ok());
  return std::move(tensor).value();
}

// Distinct ids over an 8x8 shape: one per (level0, level1) pyramid cell.
std::vector<ElementId> PyramidIds(const CubeShape& shape, uint32_t count) {
  std::vector<ElementId> ids;
  for (uint32_t a = 0; a <= shape.log_extent(0) && ids.size() < count; ++a) {
    for (uint32_t b = 0; b <= shape.log_extent(1) && ids.size() < count;
         ++b) {
      auto id = ElementId::Intermediate({a, b}, shape);
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
  }
  EXPECT_EQ(ids.size(), count);
  return ids;
}

TEST(ViewCacheTest, MissThenHitRoundTrips) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape, 2);

  auto miss = cache.LookupOrBegin(ids[0]);
  EXPECT_FALSE(miss.hit);
  ASSERT_TRUE(miss.fill.leader());
  auto inserted =
      cache.CompleteFill(std::move(miss.fill), MakeTensor(4, 7.0), 12);
  ASSERT_NE(inserted, nullptr);
  auto hit = Peek(cache, ids[0]);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.get(), inserted.get());
  EXPECT_EQ((*hit)[0], 7.0);
  EXPECT_FALSE(Peek(cache, ids[1]));

  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.hits, 1u);
  EXPECT_EQ(metrics.misses, 2u);
  EXPECT_EQ(metrics.insertions, 1u);
  EXPECT_EQ(metrics.entries, 1u);
  EXPECT_EQ(metrics.bytes_resident, 4 * sizeof(double));
  EXPECT_EQ(metrics.assembly_ops_saved, 12u);
  EXPECT_DOUBLE_EQ(metrics.HitRate(), 1.0 / 3.0);
}

TEST(ViewCacheTest, EvictsColdCheapBeforeHotExpensive) {
  ViewCacheOptions options;
  options.shards = 1;
  options.capacity_bytes = 2 * 8 * sizeof(double);  // room for two entries
  ViewCache cache(options);
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape, 3);

  // ids[0]: hot and expensive to rebuild. ids[1]: cold and free.
  Put(cache, ids[0], MakeTensor(8, 1.0), 1000);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(Peek(cache, ids[0]));
  Put(cache, ids[1], MakeTensor(8, 2.0), 0);

  // Full; the third entry must displace the minimum-score victim.
  Put(cache, ids[2], MakeTensor(8, 3.0), 50);
  EXPECT_EQ(cache.Metrics().evictions, 1u);
  EXPECT_TRUE(Peek(cache, ids[0])) << "hot/expensive entry evicted";
  EXPECT_FALSE(Peek(cache, ids[1])) << "cold/cheap entry kept";
  EXPECT_TRUE(Peek(cache, ids[2]));
}

TEST(ViewCacheTest, CapacityIsEnforced) {
  ViewCacheOptions options;
  options.shards = 1;
  options.capacity_bytes = 4 * 8 * sizeof(double);
  ViewCache cache(options);
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape, 12);

  for (const ElementId& id : ids) {
    Put(cache, id, MakeTensor(8, 1.0), 1);
    EXPECT_LE(cache.Metrics().bytes_resident, options.capacity_bytes);
  }
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.entries, 4u);
  EXPECT_EQ(metrics.evictions, 8u);
}

TEST(ViewCacheTest, OversizedEntryServedButNotRetained) {
  ViewCacheOptions options;
  options.shards = 1;
  options.capacity_bytes = 8 * sizeof(double);
  ViewCache cache(options);
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];

  auto served = Put(cache, id, MakeTensor(64, 5.0), 9);
  ASSERT_NE(served, nullptr);  // caller can still answer from this
  EXPECT_EQ((*served)[0], 5.0);
  EXPECT_FALSE(Peek(cache, id));
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.rejected_inserts, 1u);
  EXPECT_EQ(metrics.entries, 0u);
  EXPECT_EQ(metrics.bytes_resident, 0u);
}

TEST(ViewCacheTest, InvalidateAllDropsEverythingAndAllowsFreshData) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape, 6);

  for (const ElementId& id : ids) Put(cache, id, MakeTensor(4, 1.0), 3);
  // An in-flight reader's handle must survive the flush.
  auto held = Peek(cache, ids[0]);
  ASSERT_TRUE(held);

  EXPECT_EQ(cache.InvalidateAll(), 6u);
  EXPECT_EQ(cache.Metrics().entries, 0u);
  EXPECT_EQ(cache.Metrics().bytes_resident, 0u);
  EXPECT_EQ(cache.Metrics().invalidations, 6u);
  for (const ElementId& id : ids) EXPECT_FALSE(Peek(cache, id));
  EXPECT_EQ((*held)[0], 1.0);  // old handle still fully readable

  // Post-flush inserts are new entries with the new data, not revivals.
  auto fresh = Put(cache, ids[0], MakeTensor(4, 2.0), 3);
  EXPECT_NE(fresh.get(), held.get());
  EXPECT_EQ((*Peek(cache, ids[0]))[0], 2.0);
}

// ---------------------------------------------------------------------------
// Single-flight: miss coalescing, abort/retry, and the flush-epoch guard
// against resurrecting pre-flush fills.

TEST(ViewCacheTest, LookupOrBeginAppointsExactlyOneLeader) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];

  auto outcome = cache.LookupOrBegin(id);
  ASSERT_FALSE(outcome.hit);
  ASSERT_TRUE(outcome.fill.valid());
  EXPECT_TRUE(outcome.fill.leader());

  auto served = cache.CompleteFill(std::move(outcome.fill),
                                   MakeTensor(4, 3.0), /*assembly_cost=*/7);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ((*served)[0], 3.0);

  // Retained: the next lookup is a plain hit, not another flight.
  auto again = cache.LookupOrBegin(id);
  ASSERT_TRUE(again.hit);
  EXPECT_EQ((*again.hit)[0], 3.0);
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.misses, 1u);
  EXPECT_EQ(metrics.insertions, 1u);
  EXPECT_EQ(metrics.hits, 1u);
  EXPECT_EQ(metrics.assembly_ops_executed, 7u);
  EXPECT_EQ(metrics.assembly_ops_saved, 7u);
}

// Regression (flush-epoch tagging): a fill that began before a wholesale
// flush used to be inserted after it, resurrecting a tensor computed
// from pre-delta state. The completed fill must still be served to its
// caller (the answer was correct when the query began) but never
// retained.
TEST(ViewCacheTest, FlushDuringFillServesButDoesNotRetainStaleTensor) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];

  auto outcome = cache.LookupOrBegin(id);
  ASSERT_TRUE(outcome.fill.valid());
  ASSERT_TRUE(outcome.fill.leader());

  // The delta hook fires while the "assembly" is in progress.
  cache.InvalidateAll();

  auto served = cache.CompleteFill(std::move(outcome.fill),
                                   MakeTensor(4, 9.0), /*assembly_cost=*/5);
  ASSERT_NE(served, nullptr);  // the leader still gets its answer
  EXPECT_EQ((*served)[0], 9.0);

  EXPECT_FALSE(Peek(cache, id)) << "stale fill was retained";
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.stale_fills, 1u);
  EXPECT_EQ(metrics.insertions, 0u);
  EXPECT_EQ(metrics.entries, 0u);
  // The leader's work is still accounted as executed ops.
  EXPECT_EQ(metrics.assembly_ops_executed, 5u);
}

TEST(ViewCacheTest, ConcurrentMissesCoalesceOntoOneFill) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];
  constexpr int kFollowers = 8;
  constexpr uint64_t kCost = 40;

  // Main thread takes the leader ticket, then holds the fill open until
  // every follower has joined the flight — fully deterministic.
  auto leader = cache.LookupOrBegin(id);
  ASSERT_TRUE(leader.fill.valid());
  ASSERT_TRUE(leader.fill.leader());

  std::atomic<int> entered{0};
  std::atomic<int> served_ok{0};
  std::vector<std::thread> followers;
  followers.reserve(kFollowers);
  for (int i = 0; i < kFollowers; ++i) {
    followers.emplace_back([&] {
      auto outcome = cache.LookupOrBegin(id);
      ASSERT_TRUE(outcome.fill.valid());
      ASSERT_FALSE(outcome.fill.leader());
      entered.fetch_add(1);
      ViewCache::FillWait wait = cache.WaitFill(outcome.fill);
      if (wait.status.ok() && (*wait.data)[0] == 6.0) served_ok.fetch_add(1);
    });
  }
  while (entered.load() < kFollowers) std::this_thread::yield();
  auto answer =
      cache.CompleteFill(std::move(leader.fill), MakeTensor(4, 6.0), kCost);
  ASSERT_NE(answer, nullptr);
  for (std::thread& follower : followers) follower.join();
  EXPECT_EQ(served_ok.load(), kFollowers);

  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.misses, 1u) << "followers must not count as misses";
  EXPECT_EQ(metrics.insertions, 1u);
  EXPECT_EQ(metrics.coalesced_hits, static_cast<uint64_t>(kFollowers));
  EXPECT_EQ(metrics.hits, static_cast<uint64_t>(kFollowers));
  EXPECT_EQ(metrics.assembly_ops_executed, kCost);
  EXPECT_EQ(metrics.assembly_ops_saved, kCost * kFollowers);
}

TEST(ViewCacheTest, AbortedFillWakesFollowerToBecomeNextLeader) {
  ViewCache cache;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  const ElementId id = PyramidIds(*shape, 1)[0];

  auto leader = cache.LookupOrBegin(id);
  ASSERT_TRUE(leader.fill.leader());

  std::atomic<int> entered{0};
  std::thread follower([&] {
    auto outcome = cache.LookupOrBegin(id);
    ASSERT_FALSE(outcome.fill.leader());
    entered.fetch_add(1);
    // The leader aborts: WaitFill surfaces the abort cause (no data) and
    // the retry wins its own leader ticket.
    ViewCache::FillWait wait = cache.WaitFill(outcome.fill);
    EXPECT_EQ(wait.data, nullptr);
    EXPECT_TRUE(wait.status.IsUnavailable()) << wait.status.ToString();
    auto retry = cache.LookupOrBegin(id);
    ASSERT_TRUE(retry.fill.valid());
    ASSERT_TRUE(retry.fill.leader());
    auto served = cache.CompleteFill(std::move(retry.fill),
                                     MakeTensor(4, 2.0), /*assembly_cost=*/3);
    EXPECT_NE(served, nullptr);
  });
  while (entered.load() < 1) std::this_thread::yield();
  cache.AbortFill(std::move(leader.fill));
  follower.join();

  auto hit = Peek(cache, id);
  ASSERT_TRUE(hit);
  EXPECT_EQ((*hit)[0], 2.0);
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.misses, 2u);  // two appointed leaders, one aborted
  EXPECT_EQ(metrics.insertions, 1u);
  EXPECT_EQ(metrics.coalesced_hits, 0u);  // the abort served nobody
}

// ---------------------------------------------------------------------------
// Session-level behaviour: bit-exactness and invalidation hooks.

OlapSessionOptions CachedOptions() {
  OlapSessionOptions options;
  options.view_cache.enabled = true;
  return options;
}

TEST(ServeSessionTest, CachedServingIsBitExactAcrossWholeLattice) {
  auto shape = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape.ok());
  Rng rng(11);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());

  auto cached = OlapSession::FromCube(*shape, *cube, CachedOptions());
  auto plain = OlapSession::FromCube(*shape, *cube);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE((*cached)->caching());
  ASSERT_FALSE((*plain)->caching());

  const ViewElementGraph graph(*shape);
  for (int pass = 0; pass < 2; ++pass) {
    graph.ForEachElement([&](const ElementId& id) {
      auto from_cache = (*cached)->Element(id);
      auto reference = (*plain)->Element(id);
      ASSERT_TRUE(from_cache.ok());
      ASSERT_TRUE(reference.ok());
      // Bit-exact, not approximate: data() compares doubles exactly.
      EXPECT_EQ(from_cache->data(), reference->data()) << id.ToString();
    });
  }
  const ServeMetrics metrics = (*cached)->serve_metrics();
  EXPECT_GE(metrics.hits, graph.NumElements());  // pass 2 is all hits
  EXPECT_GT(metrics.assembly_ops_saved, 0u);
}

TEST(ServeSessionTest, RepeatViewQueriesAreServedFromCache) {
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(12);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 20);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(*shape, *cube, CachedOptions());
  ASSERT_TRUE(session.ok());

  auto first = (*session)->ViewByMask(3);
  ASSERT_TRUE(first.ok());
  const uint64_t ops_after_first = (*session)->stats().assembly_ops;
  auto second = (*session)->ViewByMask(3);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->data(), second->data());
  // The repeat spent no assembly ops.
  EXPECT_EQ((*session)->stats().assembly_ops, ops_after_first);
  EXPECT_GE((*session)->serve_metrics().hits, 1u);
}

TEST(ServeSessionTest, RangeQueriesShareTheServingCache) {
  auto shape = CubeShape::Make({16, 16});
  ASSERT_TRUE(shape.ok());
  Rng rng(13);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 9);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(*shape, *cube, CachedOptions());
  ASSERT_TRUE(session.ok());

  auto range = RangeSpec::Make({1, 2}, {13, 11}, *shape);
  ASSERT_TRUE(range.ok());
  auto first = (*session)->RangeSum(*range);
  ASSERT_TRUE(first.ok());
  const ServeMetrics after_first = (*session)->serve_metrics();
  EXPECT_GT(after_first.insertions, 0u);  // missing intermediates retained

  auto second = (*session)->RangeSum(*range);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  const ServeMetrics after_second = (*session)->serve_metrics();
  EXPECT_EQ(after_second.insertions, after_first.insertions);
  EXPECT_GT(after_second.hits, after_first.hits);

  // And the answer is right: naive summation agrees.
  auto naive = NaiveRangeSum(*cube, *shape, *range);
  ASSERT_TRUE(naive.ok());
  EXPECT_NEAR(*first, *naive, 1e-9);
}

TEST(ServeSessionTest, AddFactInvalidatesCachedAnswers) {
  auto shape = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape.ok());
  Rng rng(14);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 9);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(*shape, *cube, CachedOptions());
  ASSERT_TRUE(session.ok());

  auto before = (*session)->ViewByMask(3);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*session)->AddFact({2, 3}, 5.0).ok());
  EXPECT_GT((*session)->serve_metrics().invalidations, 0u);

  auto after = (*session)->ViewByMask(3);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)[0], (*before)[0] + 5.0);

  // Cross-check against a fresh session over the updated cube.
  Tensor updated = *cube;
  updated[updated.FlatIndex({2, 3})] += 5.0;
  auto fresh = OlapSession::FromCube(*shape, updated);
  ASSERT_TRUE(fresh.ok());
  auto expected = (*fresh)->ViewByMask(3);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(after->data(), expected->data());
}

TEST(ServeSessionTest, OptimizeFlushesTheCache) {
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(15);
  auto cube = UniformIntegerCube(*shape, &rng, 0, 9);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(*shape, *cube, CachedOptions());
  ASSERT_TRUE(session.ok());

  for (uint32_t mask = 0; mask < 4; ++mask) {
    ASSERT_TRUE((*session)->ViewByMask(mask).ok());
  }
  ASSERT_GT((*session)->serve_metrics().entries, 0u);

  Rng wrng(16);
  auto population = ZipfViewPopulation(*shape, &wrng, 1.0);
  ASSERT_TRUE(population.ok());
  ASSERT_TRUE((*session)->DeclareWorkload(*population).ok());
  ASSERT_TRUE((*session)->Optimize().ok());
  EXPECT_GT((*session)->serve_metrics().invalidations, 0u);

  // Post-flush answers still agree with an uncached session.
  auto plain = OlapSession::FromCube(*shape, *cube);
  ASSERT_TRUE(plain.ok());
  for (uint32_t mask = 0; mask < 4; ++mask) {
    auto got = (*session)->ViewByMask(mask);
    auto expected = (*plain)->ViewByMask(mask);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(got->data(), expected->data());
  }
}

// ---------------------------------------------------------------------------
// Concurrency: readers race inserts and wholesale invalidation. Run under
// TSan by the CI tsan job (suite name matches its -R filter). Tensors are
// version-stamped — every cell equals the version — so a reader can
// detect a torn or partially published tensor without any external
// synchronization with the writer.

TEST(ServeStressTest, ConcurrentReadersSurviveInvalidatingWriter) {
  ViewCacheOptions options;
  options.shards = 4;
  options.capacity_bytes = 1u << 16;
  ViewCache cache(options);
  auto shape_result = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape_result.ok());
  const CubeShape shape = *shape_result;
  const std::vector<ElementId> ids = PyramidIds(shape, 16);

  constexpr int kReaders = 4;
  constexpr int kReaderRounds = 3000;
  constexpr int kWriterRounds = 200;
  std::atomic<uint64_t> version{1};
  std::atomic<int> inconsistencies{0};
  std::atomic<uint64_t> hits{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(0x5e7e + static_cast<uint64_t>(r));
      for (int round = 0; round < kReaderRounds; ++round) {
        const ElementId& id = ids[rng.UniformU64(ids.size())];
        bool filled = false;
        const auto fill = [&]() -> Result<ViewCache::Assembled> {
          filled = true;
          const double v = static_cast<double>(version.load());
          return ViewCache::Assembled{MakeTensor(16, v),
                                      /*assembly_cost=*/rng.UniformU64(100)};
        };
        auto served = cache.GetOrFill(id, QueryContext(), fill);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        // A pinned hit or a coalesced wait on another reader's fill.
        if (!filled) hits.fetch_add(1, std::memory_order_relaxed);
        // Internal consistency: a handed-out tensor is never torn.
        const Tensor& tensor = **served;
        const double first = tensor[0];
        for (uint64_t i = 1; i < tensor.size(); ++i) {
          if (tensor[i] != first) {
            inconsistencies.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < kWriterRounds; ++round) {
      version.fetch_add(1);
      cache.InvalidateAll();
      std::this_thread::yield();
    }
  });
  for (std::thread& reader : readers) reader.join();
  writer.join();

  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GT(hits.load(), 0u);
  // Counters survived the races coherently: resident set within budget.
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_LE(metrics.bytes_resident, options.capacity_bytes);
  EXPECT_EQ(metrics.hits, hits.load());
}

// The serving accounting identity: every query either pays its assembly
// cost exactly once (leader fill) or saves it exactly once (hit /
// coalesced follower), so
//
//   ops_saved + ops_executed == Σ per-query cost   (the uncached baseline)
//
// at EVERY thread count — and with single-flight coalescing and no
// eviction pressure, ops_executed itself is thread-count-invariant:
// concurrency changes who assembles, never how much is assembled.
TEST(ServeStressTest, AccountingIdentityHoldsAtEveryThreadCount) {
  auto shape_result = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape_result.ok());
  const std::vector<ElementId> ids = PyramidIds(*shape_result, 8);
  const auto cost_of = [](size_t i) -> uint64_t {
    return 10 * (static_cast<uint64_t>(i) + 1);
  };

  // Deterministic skewed query sequence, shared by every run.
  constexpr uint64_t kQueries = 4000;
  Rng seq_rng(0xacc7);
  std::vector<size_t> sequence(kQueries);
  uint64_t baseline_ops = 0;
  for (uint64_t q = 0; q < kQueries; ++q) {
    const size_t pick =
        std::min(seq_rng.UniformU64(ids.size()), seq_rng.UniformU64(ids.size()));
    sequence[q] = pick;
    baseline_ops += cost_of(pick);
  }

  uint64_t executed_single_threaded = 0;
  for (const uint32_t threads : {1u, 8u}) {
    ViewCache cache;  // default capacity: no evictions for 8 tiny entries
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (uint32_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        const uint64_t lo = kQueries * w / threads;
        const uint64_t hi = kQueries * (w + 1) / threads;
        for (uint64_t q = lo; q < hi; ++q) {
          const size_t pick = sequence[q];
          for (;;) {
            auto outcome = cache.LookupOrBegin(ids[pick]);
            if (outcome.hit) break;
            if (!outcome.fill.leader()) {
              if (!cache.WaitFill(outcome.fill).status.ok()) continue;
              break;
            }
            auto served =
                cache.CompleteFill(std::move(outcome.fill),
                                   MakeTensor(4, 1.0), cost_of(pick));
            ASSERT_NE(served, nullptr);
            break;
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();

    const ServeMetrics metrics = cache.Metrics();
    EXPECT_EQ(metrics.evictions, 0u);
    EXPECT_EQ(metrics.hits + metrics.misses, kQueries);
    EXPECT_EQ(metrics.assembly_ops_saved + metrics.assembly_ops_executed,
              baseline_ops)
        << "accounting identity broken at " << threads << " threads";
    if (threads == 1) {
      executed_single_threaded = metrics.assembly_ops_executed;
      EXPECT_EQ(metrics.coalesced_hits, 0u);
    } else {
      EXPECT_EQ(metrics.assembly_ops_executed, executed_single_threaded)
          << "misses not coalesced: assembled work grew with concurrency";
    }
  }
}

// ---------------------------------------------------------------------------
// DynamicAssembler integration: reconfiguration is the serving layer's
// other flush source. A FAILED reconfiguration (injected via the
// dynamic.reconfigure failpoint) must leave the cache untouched — no
// flush, no lost entries; a successful one must flush and keep answers
// bit-exact.

TEST(DynamicServeTest, FailedReconfigureLeavesCacheIntactThenFlushWorks) {
  auto shape_result = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape_result.ok());
  const CubeShape shape = *shape_result;
  Rng rng(17);
  auto cube = UniformIntegerCube(shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());

  DynamicOptions options;
  options.cache.enabled = true;
  options.min_queries_between_reconfigs = 1000;  // no auto attempts
  auto assembler = DynamicAssembler::Make(shape, *cube, options);
  ASSERT_TRUE(assembler.ok());

  auto view = ElementId::AggregatedView(0b11, shape);
  ASSERT_TRUE(view.ok());
  ElementComputer computer(shape, &*cube);
  auto expected = computer.Compute(*view);
  ASSERT_TRUE(expected.ok());

  ASSERT_TRUE((*assembler)->Query(*view).ok());  // leader fill
  ASSERT_TRUE((*assembler)->Query(*view).ok());  // hit
  const ServeMetrics before = (*assembler)->serve_metrics();
  EXPECT_EQ(before.insertions, 1u);
  EXPECT_GE(before.hits, 1u);

  Failpoints::Arm("dynamic.reconfigure", FailpointAction{});
  EXPECT_FALSE((*assembler)->Reconfigure().ok());
  Failpoints::DisarmAll();

  // Nothing was flushed: the entry is still resident and still serves.
  const ServeMetrics after_failure = (*assembler)->serve_metrics();
  EXPECT_EQ(after_failure.invalidations, 0u);
  EXPECT_EQ(after_failure.entries, before.entries);
  auto still_cached = (*assembler)->Query(*view);
  ASSERT_TRUE(still_cached.ok());
  EXPECT_EQ(still_cached->data(), expected->data());
  EXPECT_GT((*assembler)->serve_metrics().hits, after_failure.hits);

  // A successful reconfiguration flushes, and post-flush answers are
  // re-assembled bit-exactly from the migrated store.
  ASSERT_TRUE((*assembler)->Reconfigure().ok());
  EXPECT_GT((*assembler)->serve_metrics().invalidations, 0u);
  auto after_flush = (*assembler)->Query(*view);
  ASSERT_TRUE(after_flush.ok());
  EXPECT_EQ(after_flush->data(), expected->data());
}

// ---------------------------------------------------------------------------
// Buffered access history: Record() is off the hit path; the tracker lags
// until a drain and then matches eager recording exactly.

TEST(ServeSessionTest, AccessHistoryBuffersAndDrainsToEagerState) {
  auto shape_result = CubeShape::Make({4, 4});
  ASSERT_TRUE(shape_result.ok());
  const CubeShape shape = *shape_result;
  Rng rng(18);
  auto cube = UniformIntegerCube(shape, &rng, 0, 9);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(shape, *cube, CachedOptions());
  ASSERT_TRUE(session.ok());

  const std::vector<uint32_t> masks = {3, 3, 1, 2, 3, 1, 3, 3, 2, 3};
  for (const uint32_t mask : masks) {
    ASSERT_TRUE((*session)->ViewByMask(mask).ok());
  }
  // The hit path buffered the records instead of touching the tracker.
  EXPECT_EQ((*session)->buffered_accesses(), masks.size());
  EXPECT_EQ((*session)->access_tracker().total_accesses(), 0u);

  (*session)->DrainAccessHistory();
  EXPECT_EQ((*session)->buffered_accesses(), 0u);
  EXPECT_EQ((*session)->access_tracker().total_accesses(), masks.size());

  // Drained state is identical to eager recording of the same sequence
  // (single-threaded: one stripe, order preserved).
  AccessTracker eager(OlapSessionOptions{}.access_decay);
  for (const uint32_t mask : masks) {
    auto id = ElementId::AggregatedView(mask, shape);
    ASSERT_TRUE(id.ok());
    eager.Record(*id);
  }
  const auto drained_dist = (*session)->access_tracker().Distribution();
  const auto eager_dist = eager.Distribution();
  ASSERT_EQ(drained_dist.size(), eager_dist.size());
  for (size_t i = 0; i < drained_dist.size(); ++i) {
    EXPECT_EQ(drained_dist[i].first, eager_dist[i].first);
    EXPECT_DOUBLE_EQ(drained_dist[i].second, eager_dist[i].second);
  }

  // Optimize() drains implicitly: observed traffic is complete without an
  // explicit drain call.
  for (const uint32_t mask : masks) {
    ASSERT_TRUE((*session)->ViewByMask(mask).ok());
  }
  EXPECT_GT((*session)->buffered_accesses(), 0u);
  ASSERT_TRUE((*session)->Optimize().ok());
  EXPECT_EQ((*session)->buffered_accesses(), 0u);
  EXPECT_EQ((*session)->access_tracker().total_accesses(), 2 * masks.size());
}

}  // namespace
}  // namespace vecube
