// Robustness tests for the bounded-latency serving stack (DESIGN.md §13):
// deadline propagation through fills and follower waits, leader-abort
// cause propagation (no retry livelock), cancellation mid-assembly
// leaving the cache and scratch state consistent, admission-control load
// shedding under a TSan-friendly thread stress, and the graceful
// degradation contract (a degraded answer always carries a sound L2
// bound and is never cached). Suite names carry "Serve" into the CI TSan
// test filter; VECUBE_SOAK_ITERS (env) scales the stress rounds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.h"
#include "core/assembly.h"
#include "core/element_id.h"
#include "core/store.h"
#include "cube/synthetic.h"
#include "cube/tensor.h"
#include "haar/cascade.h"
#include "range/range_engine.h"
#include "select/dynamic.h"
#include "serve/admission.h"
#include "serve/serving.h"
#include "serve/view_cache.h"
#include "util/failpoint.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "view_cache_probe.h"

namespace vecube {
namespace {

uint64_t SoakIters() {
  if (const char* env = std::getenv("VECUBE_SOAK_ITERS")) {
    const uint64_t iters = std::strtoull(env, nullptr, 10);
    if (iters > 0) return iters;
  }
  return 1;
}

/// Disarms every failpoint on scope exit so a failing assertion cannot
/// leak an armed failpoint into later tests.
struct FailpointGuard {
  ~FailpointGuard() { Failpoints::DisarmAll(); }
};

/// A cube-only ElementStore over an 8x8 shape with deterministic data.
struct CubeFixture {
  CubeShape shape;
  ElementStore store;

  static CubeFixture Make(uint64_t seed = 7) {
    auto shape = CubeShape::Make({8, 8});
    EXPECT_TRUE(shape.ok());
    Rng rng(seed);
    auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
    EXPECT_TRUE(cube.ok());
    CubeFixture fixture{*shape, ElementStore(*shape)};
    EXPECT_TRUE(
        fixture.store.Put(ElementId::Root(shape->ndim()), *cube).ok());
    return fixture;
  }

  [[nodiscard]] ElementId View(uint32_t mask) const {
    auto id = ElementId::AggregatedView(mask, shape);
    EXPECT_TRUE(id.ok());
    return *id;
  }
};

/// `view` computed straight from the fixture's cube by PartialSumK along
/// every aggregated dimension: the oracle served answers equal bit for bit.
Tensor ViewReference(const CubeFixture& fixture, const ElementId& view) {
  auto cube = fixture.store.Get(ElementId::Root(fixture.shape.ndim()));
  EXPECT_TRUE(cube.ok());
  Tensor reference = **cube;
  const std::vector<uint32_t> extents = view.DataExtents(fixture.shape);
  for (uint32_t dim = 0; dim < extents.size(); ++dim) {
    if (extents[dim] == reference.extent(dim)) continue;
    auto summed =
        PartialSumK(reference, dim, fixture.shape.log_extent(dim));
    EXPECT_TRUE(summed.ok());
    reference = std::move(summed).value();
  }
  return reference;
}

bool SameBits(const Tensor& got, const Tensor& want) {
  return got.extents() == want.extents() &&
         std::memcmp(got.raw(), want.raw(), got.size() * sizeof(double)) == 0;
}

double L2Error(const Tensor& got, const Tensor& want) {
  EXPECT_EQ(got.size(), want.size());
  double err2 = 0.0;
  for (uint64_t i = 0; i < want.size(); ++i) {
    const double d = got[i] - want[i];
    err2 += d * d;
  }
  return std::sqrt(err2);
}

// ---------------------------------------------------------------------------
// Deadline propagation.

TEST(ServeDeadlineTest, ExpiredContextFailsBeforeAnyWork) {
  CubeFixture fixture = CubeFixture::Make();
  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, /*cache=*/nullptr);

  QueryContext ctx =
      QueryContext::WithDeadline(QueryContext::Clock::now() -
                                 std::chrono::milliseconds(1));
  auto answer = server.Serve(fixture.View(1), ctx);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsDeadlineExceeded())
      << answer.status().ToString();
}

TEST(ServeDeadlineTest, CancellationUnwindsWithKCancelled) {
  CubeFixture fixture = CubeFixture::Make();
  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, /*cache=*/nullptr);

  QueryContext ctx = QueryContext::Cancellable();
  ctx.RequestCancel();
  auto answer = server.Serve(fixture.View(1), ctx);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsCancelled()) << answer.status().ToString();
}

// A leader stalled (failpoint-injected latency) past a follower's
// deadline: the follower must come back with its own kDeadlineExceeded
// instead of waiting out the leader, while the leader still completes
// and publishes an exact answer.
TEST(ServeChaosTest, FollowerDeadlineFiresWhileLeaderIsStalled) {
  FailpointGuard guard;
  CubeFixture fixture = CubeFixture::Make();
  const ElementId id = fixture.View(1);
  ViewCache cache;

  FailpointAction delay;
  delay.kind = FailpointAction::Kind::kDelay;
  delay.delay_ms = 400;
  Failpoints::Arm("serve.fill", delay);

  std::thread leader([&] {
    AssemblyEngine engine(&fixture.store);
    ElementServer server(&engine, &fixture.store, &cache);
    auto answer = server.Serve(id, QueryContext());
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_FALSE(answer->degraded);
  });
  // The flight exists once the leader's miss is counted; the stall
  // itself happens after the ticket is claimed.
  while (cache.Metrics().misses < 1) std::this_thread::yield();

  AssemblyEngine follower_engine(&fixture.store);
  ElementServer follower(&follower_engine, &fixture.store, &cache);
  auto answer = follower.Serve(
      id, QueryContext::WithTimeout(std::chrono::milliseconds(100)));
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsDeadlineExceeded())
      << answer.status().ToString();
  leader.join();

  const ServeMetrics metrics = cache.Metrics();
  EXPECT_GE(metrics.deadline_exceeded, 1u);
  // The leader's late answer is cached and exact for the next caller.
  auto hit = Peek(cache, id);
  ASSERT_TRUE(hit);
  AssemblyEngine reference(&fixture.store);
  auto exact = reference.Assemble(id);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(hit->data(), exact->data());
}

// ---------------------------------------------------------------------------
// Leader abort handling (the follower-livelock fix): an element-local
// failure propagates to followers immediately; leader-local aborts are
// retried a bounded number of times, never forever.

TEST(ServeChaosTest, FollowerReceivesLeaderAbortCause) {
  CubeFixture fixture = CubeFixture::Make();
  const ElementId id = fixture.View(1);
  ViewCache cache;

  auto leader = cache.LookupOrBegin(id);
  ASSERT_TRUE(leader.fill.leader());
  auto follower = cache.LookupOrBegin(id);
  ASSERT_TRUE(follower.fill.valid());
  ASSERT_FALSE(follower.fill.leader());

  cache.AbortFill(std::move(leader.fill),
                  Status::Internal("injected fill failure"));
  // The cause survives on the flight even though the abort happened
  // before the wait began — no ordering window.
  ViewCache::FillWait wait = cache.WaitFill(follower.fill);
  EXPECT_EQ(wait.data, nullptr);
  ASSERT_FALSE(wait.status.ok());
  EXPECT_FALSE(wait.status.IsUnavailable())
      << "element-local cause replaced by the generic abort status";
  EXPECT_NE(wait.status.ToString().find("injected fill failure"),
            std::string::npos)
      << wait.status.ToString();
}

TEST(ServeChaosTest, InjectedFillErrorPropagatesThroughServer) {
  FailpointGuard guard;
  CubeFixture fixture = CubeFixture::Make();
  ViewCache cache;
  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, &cache);

  FailpointAction error;
  error.kind = FailpointAction::Kind::kError;
  Failpoints::Arm("serve.fill", error);
  auto answer = server.Serve(fixture.View(1), QueryContext());
  ASSERT_FALSE(answer.ok());
  EXPECT_NE(answer.status().ToString().find("injected fill failure"),
            std::string::npos)
      << answer.status().ToString();

  // One-shot failpoint: the next query recovers and serves exactly.
  auto retry = server.Serve(fixture.View(1), QueryContext());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->degraded);
}

TEST(ServeChaosTest, RepeatedLeaderAbortsDoNotLivelockFollowers) {
  CubeFixture fixture = CubeFixture::Make();
  const ElementId id = fixture.View(1);
  ViewCache cache;

  // A saboteur keeps claiming leadership and aborting with the generic
  // (leader-local) cause. Pre-fix behavior was an unbounded retry loop
  // in the follower; post-fix the follower either wins a leader ticket
  // itself (OK) or exhausts its bounded retries (kUnavailable) — either
  // way this test terminates.
  std::atomic<bool> stop{false};
  std::thread saboteur([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto outcome = cache.LookupOrBegin(id);
      if (outcome.fill.valid() && outcome.fill.leader()) {
        cache.AbortFill(std::move(outcome.fill));
      }
      std::this_thread::yield();
    }
  });

  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, &cache);
  auto answer = server.Serve(id, QueryContext());
  stop.store(true, std::memory_order_relaxed);
  saboteur.join();
  if (!answer.ok()) {
    EXPECT_TRUE(answer.status().IsUnavailable())
        << answer.status().ToString();
  }

  // Whatever the race produced, the stack is healthy afterwards.
  auto after = server.Serve(id, QueryContext());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  AssemblyEngine reference(&fixture.store);
  auto exact = reference.Assemble(id);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(after->data.data(), exact->data());
}

// ---------------------------------------------------------------------------
// The same single-flight loop (ViewCache::GetOrFill) behind dynamic and
// range queries: "serve.fill" chaos reaches them too. DynamicAssembler and
// OlapSession are single-caller objects, so concurrent waiters are built
// the way sessions build concurrent serving: one RangeEngine per worker
// over one store, all sharing one ViewCache.

// An aligned 4x4 block of the 8x8 fixture: exactly one intermediate
// element, which a cube-only store has to assemble.
RangeSpec MissingIntermediateRange(const CubeShape& shape) {
  auto range = RangeSpec::Make({4, 0}, {4, 4}, shape);
  EXPECT_TRUE(range.ok());
  return *range;
}

TEST(ServeChaosTest, InjectedFillErrorFailsDynamicAndRangeLeaders) {
  FailpointGuard guard;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(41);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  FailpointAction error;
  error.kind = FailpointAction::Kind::kError;

  DynamicOptions dynamic_options;
  dynamic_options.cache.enabled = true;
  auto assembler = DynamicAssembler::Make(*shape, *cube, dynamic_options);
  ASSERT_TRUE(assembler.ok());
  auto view = ElementId::AggregatedView(1, *shape);
  ASSERT_TRUE(view.ok());
  Failpoints::Arm("serve.fill", error);
  OpCounter failed_ops;
  auto failed = (*assembler)->Query(*view, &failed_ops);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().ToString().find("injected fill failure"),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_EQ(failed_ops.adds, 0u);
  EXPECT_EQ((*assembler)->queries_served(), 0u);
  // One-shot: the aborted flight is gone, the next query fills exactly.
  OpCounter ops;
  auto answer = (*assembler)->Query(*view, &ops);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  AssemblyEngine reference(&(*assembler)->store());
  auto exact = reference.Assemble(*view);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(answer->data(), exact->data());
  EXPECT_EQ(ops.adds, reference.PlanCost(*view));

  OlapSessionOptions session_options;
  session_options.view_cache.enabled = true;
  auto session = OlapSession::FromCube(*shape, *cube, session_options);
  ASSERT_TRUE(session.ok());
  const RangeSpec range = MissingIntermediateRange(*shape);
  Failpoints::Arm("serve.fill", error);
  auto failed_sum = (*session)->RangeSum(range);
  ASSERT_FALSE(failed_sum.ok());
  EXPECT_NE(failed_sum.status().ToString().find("injected fill failure"),
            std::string::npos)
      << failed_sum.status().ToString();
  auto sum = (*session)->RangeSum(range);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  auto naive = NaiveRangeSum(*cube, *shape, range);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(*sum, *naive);
}

// Every leader's fill fails (element-local cause): each concurrent range
// query — whether it led a fill or waited on one — must surface that
// failure, and none may retry it.
TEST(ServeChaosTest, InjectedFillErrorReachesEveryRangeWaiter) {
  FailpointGuard guard;
  CubeFixture fixture = CubeFixture::Make(43);
  const RangeSpec range = MissingIntermediateRange(fixture.shape);
  ViewCache cache;
  constexpr uint32_t kWorkers = 4;
  FailpointAction error;
  error.kind = FailpointAction::Kind::kError;
  Failpoints::Arm("serve.fill", error, /*skip=*/0, /*hits=*/1u << 20);

  std::atomic<uint32_t> ready{0};
  std::atomic<uint32_t> injected{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (uint32_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      RangeEngine engine(&fixture.store, MissingElementPolicy::kAssemble,
                         nullptr, &cache);
      ready.fetch_add(1);
      while (ready.load() < kWorkers) std::this_thread::yield();
      auto sum = engine.RangeSum(range);
      if (!sum.ok() && sum.status().ToString().find(
                           "injected fill failure") != std::string::npos) {
        injected.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(injected.load(), kWorkers);
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.follower_retries, 0u);
  EXPECT_EQ(metrics.entries, 0u);

  Failpoints::DisarmAll();
  RangeEngine engine(&fixture.store, MissingElementPolicy::kAssemble,
                     nullptr, &cache);
  auto sum = engine.RangeSum(range);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  RangeEngine uncached(&fixture.store);
  auto want = uncached.RangeSum(range);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*sum, *want);
}

// A range leader stalled past its own deadline aborts with a leader-local
// cause: its waiters retry, exactly one becomes the next leader, and every
// waiter's answer — and the ops spent — match an uncached run.
TEST(ServeChaosTest, StalledRangeLeaderPastDeadlineHandsOffToAWaiter) {
  FailpointGuard guard;
  CubeFixture fixture = CubeFixture::Make(45);
  const RangeSpec range = MissingIntermediateRange(fixture.shape);
  ViewCache cache;
  FailpointAction delay;
  delay.kind = FailpointAction::Kind::kDelay;
  delay.delay_ms = 300;
  Failpoints::Arm("serve.fill", delay);

  std::thread leader([&] {
    RangeEngine engine(&fixture.store, MissingElementPolicy::kAssemble,
                       nullptr, &cache);
    auto sum = engine.RangeSum(
        range, nullptr,
        QueryContext::WithTimeout(std::chrono::milliseconds(100)));
    ASSERT_FALSE(sum.ok());
    EXPECT_TRUE(sum.status().IsDeadlineExceeded())
        << sum.status().ToString();
  });
  // The flight exists once the leader's miss is counted; the stall
  // itself happens after the ticket is claimed.
  while (cache.Metrics().misses < 1) std::this_thread::yield();

  constexpr uint32_t kWaiters = 3;
  std::vector<RangeQueryStats> stats(kWaiters);
  std::vector<double> sums(kWaiters, 0.0);
  std::vector<int> ok(kWaiters, 0);
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (uint32_t w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      RangeEngine engine(&fixture.store, MissingElementPolicy::kAssemble,
                         nullptr, &cache);
      auto sum = engine.RangeSum(range, &stats[w]);
      ok[w] = sum.ok() ? 1 : 0;
      if (sum.ok()) sums[w] = *sum;
    });
  }
  for (std::thread& waiter : waiters) waiter.join();
  leader.join();

  RangeEngine uncached(&fixture.store);
  RangeQueryStats uncached_stats;
  auto want = uncached.RangeSum(range, &uncached_stats);
  ASSERT_TRUE(want.ok());
  uint64_t elements_missing = 0;
  uint64_t assembly_ops = 0;
  for (uint32_t w = 0; w < kWaiters; ++w) {
    ASSERT_EQ(ok[w], 1) << "waiter " << w;
    EXPECT_EQ(sums[w], *want) << "waiter " << w;
    elements_missing += stats[w].elements_missing;
    assembly_ops += stats[w].assembly_ops;
  }
  EXPECT_EQ(elements_missing, uncached_stats.elements_missing);
  EXPECT_EQ(assembly_ops, uncached_stats.assembly_ops);
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_GE(metrics.follower_retries, 1u);
  EXPECT_EQ(metrics.misses, 2u);  // the stalled leader and its successor
  EXPECT_EQ(metrics.insertions, 1u);
}

// Routing through the cache changes who assembles, never how much: per
// query, the ops a dynamic miss spends and a range query's
// elements_missing / assembly_ops equal an uncached run's.
TEST(ServeAccountingTest, CachedDynamicAndRangeSpendUncachedOps) {
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(53);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());

  DynamicOptions plain_options;
  plain_options.min_queries_between_reconfigs = 1000;  // fixed store
  DynamicOptions cached_options = plain_options;
  cached_options.cache.enabled = true;
  auto plain = DynamicAssembler::Make(*shape, *cube, plain_options);
  auto cached = DynamicAssembler::Make(*shape, *cube, cached_options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(cached.ok());
  for (uint32_t mask = 0; mask < 4; ++mask) {
    auto view = ElementId::AggregatedView(mask, *shape);
    ASSERT_TRUE(view.ok());
    OpCounter plain_ops;
    OpCounter cached_ops;
    auto want = (*plain)->Query(*view, &plain_ops);
    auto got = (*cached)->Query(*view, &cached_ops);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->data(), want->data()) << "mask " << mask;
    EXPECT_EQ(cached_ops.adds, plain_ops.adds) << "mask " << mask;
  }

  CubeFixture fixture = CubeFixture::Make(53);
  ViewCache cache;
  RangeEngine cached_engine(&fixture.store, MissingElementPolicy::kAssemble,
                            nullptr, &cache);
  RangeEngine plain_engine(&fixture.store);
  const std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>
      ranges = {{{4, 0}, {4, 4}}, {{1, 2}, {6, 5}}, {{0, 0}, {8, 8}},
                {{1, 2}, {6, 5}}, {{3, 3}, {2, 4}}};
  for (const auto& [start, width] : ranges) {
    auto range = RangeSpec::Make(start, width, fixture.shape);
    ASSERT_TRUE(range.ok());
    RangeQueryStats cached_stats;
    RangeQueryStats plain_stats;
    auto got = cached_engine.RangeSum(*range, &cached_stats);
    auto want = plain_engine.RangeSum(*range, &plain_stats);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(*got, *want);
    EXPECT_EQ(cached_stats.elements_missing, plain_stats.elements_missing);
    EXPECT_EQ(cached_stats.assembly_ops, plain_stats.assembly_ops);
    EXPECT_EQ(cached_stats.cell_reads, plain_stats.cell_reads);
  }
}

// ---------------------------------------------------------------------------
// Cancellation mid-fill leaves the cache (and the session's scratch
// state) consistent: the aborted flight is cleaned up, and the very next
// query assembles bit-exactly.

TEST(ServeChaosTest, CancellationMidFillLeavesCacheConsistent) {
  FailpointGuard guard;
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(23);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  OlapSessionOptions options;
  options.view_cache.enabled = true;
  auto session = OlapSession::FromCube(*shape, *cube, options);
  ASSERT_TRUE(session.ok());
  auto reference = OlapSession::FromCube(*shape, *cube);
  ASSERT_TRUE(reference.ok());

  // The leader stalls inside the fill; cancellation lands during the
  // stall, so the post-stall QueryContext poll unwinds the assembly.
  FailpointAction delay;
  delay.kind = FailpointAction::Kind::kDelay;
  delay.delay_ms = 300;
  Failpoints::Arm("serve.fill", delay);

  QueryContext ctx = QueryContext::Cancellable();
  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ctx.RequestCancel();
  });
  auto mid = (*session)->ViewByMask(1, ctx);
  canceller.join();
  ASSERT_FALSE(mid.ok());
  EXPECT_TRUE(mid.status().IsCancelled()) << mid.status().ToString();

  // Consistency after the unwind: same session, same view, fresh
  // unbounded context — bit-exact against an uncached session, and every
  // other view still serves (ScratchArena and cache state intact).
  for (uint32_t mask = 0; mask < 4; ++mask) {
    auto got = (*session)->ViewByMask(mask);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = (*reference)->ViewByMask(mask);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->data(), want->data()) << "mask " << mask;
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation contract.

TEST(ServeDegradeTest, DegradedAnswerCarriesSoundBoundAndIsNeverCached) {
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(31);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  OlapSessionOptions options;
  options.view_cache.enabled = true;
  auto session = OlapSession::FromCube(*shape, *cube, options);
  ASSERT_TRUE(session.ok());
  auto mask1 = ElementId::AggregatedView(1, *shape);
  ASSERT_TRUE(mask1.ok());

  // Budget far below the plan cost, degradation opted in: the answer is
  // approximate and its returned L2 bound must dominate the true error.
  QueryContext degraded_ctx;
  degraded_ctx.set_allow_degraded(true).set_ops_budget(4);
  auto degraded = (*session)->Query(*mask1, degraded_ctx);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_GT(degraded->l2_bound, 0.0);

  auto exact = (*session)->Query(*mask1, QueryContext());
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact->degraded);
  EXPECT_EQ(exact->l2_bound, 0.0);
  EXPECT_LE(L2Error(degraded->data, exact->data),
            degraded->l2_bound * (1.0 + 1e-12) + 1e-9);

  // Never cached: the degraded answer must not have been published, so
  // the exact query above went through a real (exact) fill and any later
  // hit is bit-exact.
  auto again = (*session)->Query(*mask1, degraded_ctx);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->degraded) << "cache hit must serve the exact tensor";
  EXPECT_EQ(again->data.data(), exact->data.data());

  const ServeMetrics metrics = (*session)->serve_metrics();
  EXPECT_EQ(metrics.degraded, 1u);
}

TEST(ServeDegradeTest, ElementStripsDegradationAndFailsClosed) {
  auto shape = CubeShape::Make({8, 8});
  ASSERT_TRUE(shape.ok());
  Rng rng(31);
  auto cube = UniformIntegerCube(*shape, &rng, -9, 9);
  ASSERT_TRUE(cube.ok());
  auto session = OlapSession::FromCube(*shape, *cube);
  ASSERT_TRUE(session.ok());
  auto mask1 = ElementId::AggregatedView(1, *shape);
  ASSERT_TRUE(mask1.ok());

  // Element() has no channel for an error bound, so even an opted-in
  // context must not leak an approximate tensor through it: the budget
  // shortfall surfaces as kDeadlineExceeded instead.
  QueryContext ctx;
  ctx.set_allow_degraded(true).set_ops_budget(4);
  auto answer = (*session)->Element(*mask1, ctx);
  ASSERT_FALSE(answer.ok());
  EXPECT_TRUE(answer.status().IsDeadlineExceeded())
      << answer.status().ToString();
}

TEST(ServeDegradeTest, GenerousBudgetStaysExactEvenWhenOptedIn) {
  CubeFixture fixture = CubeFixture::Make(31);
  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, /*cache=*/nullptr);

  QueryContext ctx;
  ctx.set_allow_degraded(true).set_ops_budget(1u << 20);
  auto answer = server.Serve(fixture.View(1), ctx);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->degraded);
  EXPECT_EQ(answer->l2_bound, 0.0);
  auto exact = engine.Assemble(fixture.View(1));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(answer->data.data(), exact->data());
}

// ---------------------------------------------------------------------------
// Admission control: bounded queue, load shedding, graceful shutdown.
// Thread-heavy on purpose — the suite name carries "Serve" into the CI
// TSan filter, so this doubles as the admission-queue race detector.

TEST(ServeAdmissionTest, ShedsWhenQueueIsFullAndRecovers) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 0;  // no waiting: the second arrival is shed
  AdmissionController admission(options);

  auto first = admission.Admit();
  ASSERT_TRUE(first.ok());
  auto second = admission.Admit();
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted())
      << second.status().ToString();
  EXPECT_NE(second.status().ToString().find("retry after"),
            std::string::npos)
      << "shed status must carry the retry-after hint";

  first->Release();
  auto third = admission.Admit();
  EXPECT_TRUE(third.ok());
  const AdmissionMetrics metrics = admission.Metrics();
  EXPECT_EQ(metrics.admitted, 2u);
  EXPECT_EQ(metrics.shed, 1u);
}

TEST(ServeAdmissionTest, QueuedWaiterHonorsItsDeadline) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  AdmissionController admission(options);

  auto holder = admission.Admit();
  ASSERT_TRUE(holder.ok());
  const auto start = std::chrono::steady_clock::now();
  auto queued = admission.Admit(
      QueryContext::WithTimeout(std::chrono::milliseconds(50)));
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(queued.ok());
  EXPECT_TRUE(queued.status().IsDeadlineExceeded())
      << queued.status().ToString();
  EXPECT_LT(waited, std::chrono::seconds(5)) << "wait was not bounded";
  EXPECT_EQ(admission.Metrics().deadline_exceeded, 1u);
}

TEST(ServeAdmissionTest, ShutdownRefusesNewArrivalsAndDrains) {
  AdmissionController admission;
  auto permit = admission.Admit();
  ASSERT_TRUE(permit.ok());
  admission.Shutdown();
  auto refused = admission.Admit();
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable())
      << refused.status().ToString();
  EXPECT_FALSE(admission.Drain(std::chrono::milliseconds(50)))
      << "drained while a permit was still outstanding";
  permit->Release();
  EXPECT_TRUE(admission.Drain(std::chrono::milliseconds(1000)));
  EXPECT_EQ(admission.Metrics().inflight, 0u);
  EXPECT_EQ(admission.Metrics().queued, 0u);
}

// A release must wake a queued waiter at once: a lost wake-up leaves it
// parked until its 100 ms slice runs out. Best of three rounds, so one
// slow reschedule on a loaded machine cannot fail the bound.
TEST(ServeAdmissionTest, ReleaseWakesAQueuedWaiterPromptly) {
  AdmissionOptions options;
  options.max_inflight = 1;
  AdmissionController admission(options);

  QueryContext::Clock::duration best = std::chrono::hours(1);
  for (int round = 0; round < 3; ++round) {
    auto holder = admission.Admit();
    ASSERT_TRUE(holder.ok());
    std::atomic<int64_t> admitted_at{0};
    std::thread waiter([&] {
      auto permit = admission.Admit();
      // order: relaxed — read after join(), which synchronizes.
      admitted_at.store(
          QueryContext::Clock::now().time_since_epoch().count(),
          std::memory_order_relaxed);
      EXPECT_TRUE(permit.ok()) << permit.status().ToString();
    });
    while (admission.Metrics().queued == 0) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const QueryContext::Clock::time_point released =
        QueryContext::Clock::now();
    holder->Release();
    waiter.join();
    // order: relaxed — see the store.
    const QueryContext::Clock::duration waited =
        QueryContext::Clock::duration(
            admitted_at.load(std::memory_order_relaxed)) -
        released.time_since_epoch();
    if (waited < best) best = waited;
  }
  EXPECT_LT(best, std::chrono::milliseconds(50))
      << "a queued Admit waited out its slice after the release";
  const AdmissionMetrics metrics = admission.Metrics();
  EXPECT_EQ(metrics.admitted, 6u);
  EXPECT_EQ(metrics.inflight, 0u);
  EXPECT_EQ(metrics.queued, 0u);
}

// Drain sleeps on the queue's condition variable like a queued Admit,
// so the last release wakes it instead of its next 100 ms slice.
TEST(ServeAdmissionTest, LastReleaseWakesDrainPromptly) {
  AdmissionController admission;
  QueryContext::Clock::duration best = std::chrono::hours(1);
  for (int round = 0; round < 3; ++round) {
    auto permit = admission.Admit();
    ASSERT_TRUE(permit.ok());
    std::thread releaser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      permit->Release();
    });
    const QueryContext::Clock::time_point start = QueryContext::Clock::now();
    EXPECT_TRUE(admission.Drain(std::chrono::seconds(5)));
    const QueryContext::Clock::duration waited =
        QueryContext::Clock::now() - start;
    releaser.join();
    if (waited < best) best = waited;
  }
  EXPECT_LT(best, std::chrono::milliseconds(55))
      << "Drain waited out its slice after the last release";
}

TEST(ServeAdmissionTest, MaxInflightIsClampedToTheCountField) {
  AdmissionOptions options;
  options.max_inflight = kMaxAdmissionInflight + 10;
  options.max_queue = 0;
  AdmissionController admission(options);
  std::vector<AdmissionController::Permit> permits;
  for (uint32_t i = 0; i < kMaxAdmissionInflight; ++i) {
    auto permit = admission.Admit();
    ASSERT_TRUE(permit.ok()) << i;
    permits.push_back(std::move(permit).value());
  }
  EXPECT_TRUE(admission.Admit().status().IsResourceExhausted());
  permits.clear();
  const AdmissionMetrics metrics = admission.Metrics();
  EXPECT_EQ(metrics.admitted, kMaxAdmissionInflight);
  EXPECT_EQ(metrics.shed, 1u);
  EXPECT_EQ(metrics.inflight, 0u);
}

TEST(ServeAdmissionStressTest, MetricsIdentityHoldsUnderContention) {
  const uint64_t rounds = 200 * SoakIters();
  constexpr uint32_t kThreads = 8;
  AdmissionOptions options;
  options.max_inflight = 2;
  options.max_queue = 2;
  AdmissionController admission(options);

  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> held{0};
  std::atomic<bool> over_limit{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (uint64_t i = 0; i < rounds; ++i) {
        // Mix of unbounded, short-deadline, and already-expired contexts.
        QueryContext ctx;
        if (i % 3 == 1) {
          ctx = QueryContext::WithTimeout(std::chrono::milliseconds(2));
        } else if (i % 3 == 2) {
          ctx = QueryContext::WithDeadline(QueryContext::Clock::now());
        }
        attempts.fetch_add(1, std::memory_order_relaxed);  // order: stat
        auto permit = admission.Admit(ctx);
        if (!permit.ok()) continue;
        // order: acq_rel — the inflight ceiling check below reads the
        // counter other holders bumped.
        const uint64_t now = held.fetch_add(1, std::memory_order_acq_rel);
        if (now + 1 > options.max_inflight) over_limit.store(true);
        std::this_thread::yield();
        held.fetch_sub(1, std::memory_order_acq_rel);  // order: see above
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_FALSE(over_limit.load()) << "more permits than max_inflight";

  admission.Shutdown();
  auto rejected = admission.Admit();
  EXPECT_TRUE(rejected.status().IsUnavailable());
  EXPECT_TRUE(admission.Drain(std::chrono::milliseconds(1000)));

  const AdmissionMetrics metrics = admission.Metrics();
  EXPECT_EQ(metrics.admitted + metrics.shed + metrics.deadline_exceeded +
                metrics.rejected_shutdown,
            attempts.load() + 1)  // +1: the post-shutdown probe above
      << "every Admit() must resolve to exactly one outcome";
  EXPECT_EQ(metrics.inflight, 0u);
  EXPECT_EQ(metrics.queued, 0u);
}

// ---------------------------------------------------------------------------
// The end-to-end accounting gate: a concurrent mixed workload through
// admission + serving resolves every query to exactly one contract
// outcome — deadline_exceeded + shed + degraded + ok == queries_issued.

TEST(ServeAccountingStressTest, EveryQueryResolvesToExactlyOneOutcome) {
  const uint64_t queries_per_worker = 100 * SoakIters();
  constexpr uint32_t kThreads = 6;
  CubeFixture fixture = CubeFixture::Make(47);
  const std::vector<ElementId> views = {fixture.View(0), fixture.View(1),
                                        fixture.View(2), fixture.View(3)};
  ViewCache cache;
  AdmissionOptions admission_options;
  admission_options.max_inflight = 2;
  admission_options.max_queue = 2;
  AdmissionController admission(admission_options);

  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      AssemblyEngine engine(&fixture.store);
      ElementServer server(&engine, &fixture.store, &cache);
      for (uint64_t i = 0; i < queries_per_worker; ++i) {
        QueryContext ctx;
        switch (i % 4) {
          case 0:  // unbounded
            break;
          case 1:  // tight but usually feasible
            ctx = QueryContext::WithTimeout(std::chrono::milliseconds(5));
            break;
          case 2:  // already hopeless
            ctx = QueryContext::WithDeadline(QueryContext::Clock::now());
            break;
          case 3:  // degradation-eligible with a starvation budget
            ctx.set_allow_degraded(true).set_ops_budget(4);
            break;
        }
        auto permit = admission.Admit(ctx);
        if (!permit.ok()) {
          if (permit.status().IsResourceExhausted()) {
            cache.RecordShed();
            shed.fetch_add(1, std::memory_order_relaxed);  // order: stat
          } else if (permit.status().IsDeadlineExceeded() ||
                     permit.status().IsCancelled()) {
            deadline_exceeded.fetch_add(
                1, std::memory_order_relaxed);  // order: stat
          } else {
            unexpected.fetch_add(1, std::memory_order_relaxed);  // order:
                                                                 // stat
          }
          continue;
        }
        auto answer = server.Serve(views[(w + i) % views.size()], ctx);
        if (!answer.ok()) {
          if (answer.status().IsDeadlineExceeded() ||
              answer.status().IsCancelled()) {
            deadline_exceeded.fetch_add(
                1, std::memory_order_relaxed);  // order: stat
          } else {
            unexpected.fetch_add(1, std::memory_order_relaxed);  // order:
                                                                 // stat
          }
          continue;
        }
        if (answer->degraded) {
          degraded.fetch_add(1, std::memory_order_relaxed);  // order: stat
        } else {
          ok.fetch_add(1, std::memory_order_relaxed);  // order: stat
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(unexpected.load(), 0u)
      << "some query resolved outside the robustness contract";
  EXPECT_EQ(
      ok.load() + deadline_exceeded.load() + shed.load() + degraded.load(),
      queries_per_worker * kThreads);
  const ServeMetrics metrics = cache.Metrics();
  EXPECT_EQ(metrics.shed, shed.load());
  EXPECT_EQ(metrics.degraded, degraded.load());
}

// ---------------------------------------------------------------------------
// Zero-copy answers: a served answer shares the cache's tensor until it
// is written, and keeps the cells alive after the cache drops them.

TEST(ServeShareTest, WritingAServedAnswerLeavesTheCacheIntact) {
  CubeFixture fixture = CubeFixture::Make(53);
  AssemblyEngine engine(&fixture.store);
  ViewCache cache;
  ElementServer server(&engine, &fixture.store, &cache);
  const ElementId view = fixture.View(1);
  const Tensor reference = ViewReference(fixture, view);

  auto filled = server.Serve(view);  // the leader's fill
  ASSERT_TRUE(filled.ok()) << filled.status().ToString();
  auto hit = server.Serve(view);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_EQ(cache.Metrics().hits, 1u);
  {
    ViewCache::ReadHandle entry = Peek(cache, view);
    ASSERT_TRUE(entry);
    // Both answers alias the cached tensor: no cell was copied.
    EXPECT_EQ(std::as_const(filled->data).raw(), entry->raw());
    EXPECT_EQ(std::as_const(hit->data).raw(), entry->raw());
  }

  filled->data[0] += 100.0;
  hit->data.raw()[1] = -1.0;
  EXPECT_EQ(std::as_const(filled->data)[0], reference[0] + 100.0);
  EXPECT_EQ(std::as_const(hit->data)[1], -1.0);

  auto again = server.Serve(view);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(SameBits(again->data, reference));
  ViewCache::ReadHandle entry = Peek(cache, view);
  ASSERT_TRUE(entry);
  EXPECT_TRUE(SameBits(*entry, reference));
  EXPECT_EQ(again->ops, 0u);
}

TEST(ServeShareTest, AnswerOutlivesFlushAndReclamation) {
  CubeFixture fixture = CubeFixture::Make(57);
  AssemblyEngine engine(&fixture.store);
  ViewCache cache;
  ElementServer server(&engine, &fixture.store, &cache);
  const ElementId view = fixture.View(2);
  const Tensor reference = ViewReference(fixture, view);

  ASSERT_TRUE(server.Serve(view).ok());  // fills; the answer drops here
  auto held = server.Serve(view);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  const double* cells = std::as_const(held->data).raw();

  // No reader is pinned, so the flush retires and reclaims the entry at
  // once; more fills then churn the allocator over the freed memory.
  EXPECT_EQ(cache.InvalidateAll(), 1u);
  EXPECT_EQ(cache.Metrics().entries, 0u);
  for (uint32_t mask = 0; mask < 4; ++mask) {
    ASSERT_TRUE(server.Serve(fixture.View(mask)).ok());
  }
  cache.InvalidateAll();

  EXPECT_TRUE(SameBits(held->data, reference));  // ASan: still live
  // The cache's owner is gone, so the answer now owns its cells alone and
  // writes them in place.
  held->data[0] = -7.0;
  EXPECT_EQ(std::as_const(held->data).raw(), cells);
}

// Workers share, drop and write their answers while a flusher keeps
// retiring the entries those answers alias. The suite name carries
// "Stress" and "Serve" into the CI TSan filter.
TEST(ServeShareStressTest, SharedAnswersSurviveConcurrentFlushes) {
  const uint64_t rounds = 2000 * SoakIters();
  constexpr uint32_t kThreads = 4;
  CubeFixture fixture = CubeFixture::Make(61);
  const std::vector<ElementId> views = {fixture.View(0), fixture.View(1),
                                        fixture.View(2), fixture.View(3)};
  std::vector<Tensor> references;
  for (const ElementId& view : views) {
    references.push_back(ViewReference(fixture, view));
  }
  ViewCache cache;

  std::atomic<uint32_t> running{kThreads};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      AssemblyEngine engine(&fixture.store);
      ElementServer server(&engine, &fixture.store, &cache);
      Tensor kept;  // an alias carried into the next round
      size_t kept_view = 0;
      for (uint64_t i = 0; i < rounds; ++i) {
        const size_t v = (w + i) % views.size();
        const Tensor& want = references[v];
        auto answer = server.Serve(views[v]);
        if (!answer.ok()) {
          wrong.fetch_add(1, std::memory_order_relaxed);  // order: stat
          continue;
        }
        Tensor alias = std::as_const(answer->data).Share();
        if (!SameBits(alias, want) ||
            (kept.size() != 0 && !SameBits(kept, references[kept_view]))) {
          wrong.fetch_add(1, std::memory_order_relaxed);  // order: stat
        }
        answer->data[0] += 1.0;  // detaches from the cache and `alias`
        if (std::as_const(answer->data)[0] != want[0] + 1.0 ||
            !SameBits(alias, want)) {
          wrong.fetch_add(1, std::memory_order_relaxed);  // order: stat
        }
        // Every other alias outlives this round; the rest drop here.
        if (i % 2 == 0) {
          kept = std::move(alias);
          kept_view = v;
        }
      }
      // order: release — pairs with the flusher's acquire load.
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::thread flusher([&] {
    // order: acquire — pairs with the workers' release.
    while (running.load(std::memory_order_acquire) != 0) {
      cache.InvalidateAll();
      std::this_thread::yield();
    }
  });
  for (std::thread& worker : workers) worker.join();
  flusher.join();

  EXPECT_EQ(wrong.load(), 0u);
  AssemblyEngine engine(&fixture.store);
  ElementServer server(&engine, &fixture.store, &cache);
  for (size_t v = 0; v < views.size(); ++v) {
    auto answer = server.Serve(views[v]);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(SameBits(answer->data, references[v])) << v;
  }
}

}  // namespace
}  // namespace vecube
