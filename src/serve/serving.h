// ElementServer: the bounded-latency query front end (DESIGN.md §13).
//
// One ElementServer per serving worker, all sharing one ViewCache (and
// its single-flight miss coalescing) with one AssemblyEngine each. It
// layers the robustness contract over Element() queries:
//
//   * deadline propagation — the QueryContext is threaded through the
//     cache waits, the planner, and the fused cascade loops, so an
//     expired or cancelled query unwinds instead of running to
//     completion;
//   * budget gating — before assembling, the Procedure-3 plan cost is
//     compared against the query's op budget (explicit, or derived from
//     the remaining wall time at kOpsPerMs); plans that cannot finish in
//     time are not started;
//   * graceful degradation — when the budget falls short and the query
//     opted in, the answer comes from ApproxAssembler: an approximate
//     tensor plus a sound L2 error bound. Degraded answers are NEVER
//     cached (the fill is aborted first) and never served to other
//     queries;
//   * bounded follower retries — ViewCache::GetOrFill's: when a fill
//     leader aborts for a leader-local reason (its own deadline or
//     cancellation, or an unspecified abort), followers retry a bounded
//     number of times with a short backoff; an element-local failure
//     (Incomplete, injected fill error) propagates immediately. A
//     follower that runs out of retries degrades if it opted in.
//
// Every query resolves to exactly one of: an exact answer, a degraded
// answer (with its bound), or a non-OK Status — and every wait on the
// way is a bounded timed slice.

#ifndef VECUBE_SERVE_SERVING_H_
#define VECUBE_SERVE_SERVING_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "core/approximate.h"
#include "core/assembly.h"
#include "core/element_id.h"
#include "core/store.h"
#include "cube/tensor.h"
#include "serve/view_cache.h"
#include "util/query_context.h"
#include "util/result.h"

namespace vecube {

/// A served answer. Exact unless `degraded`; a degraded answer always
/// carries its L2 error bound (||exact − data||₂ ≤ l2_bound).
struct QueryAnswer {
  Tensor data;
  bool degraded = false;
  double l2_bound = 0.0;
  /// Assembly ops this query actually spent (0 for cache hits and
  /// coalesced waits).
  uint64_t ops = 0;
};

/// Assembly throughput estimate used to convert remaining wall time
/// into an op budget when the context carries no explicit one.
inline constexpr uint64_t kOpsPerMs = 256 * 1024;

struct ServeQueryOptions {
  /// Server-wide degradation default; a query can also opt in per-call
  /// via QueryContext::set_allow_degraded.
  bool allow_degraded = false;
  /// Optional hook run on a leader's assembled tensor before it is
  /// published (OlapSession wires its op-count invariant check here).
  /// A non-OK return aborts the fill with that status.
  std::function<Status(const ElementId&, uint64_t measured_ops)> verify_fill;
};

/// Per-worker facade. Not thread-safe itself (one per worker by
/// construction); all cross-worker state lives in the shared ViewCache.
class ElementServer {
 public:
  /// Borrows everything; the caller keeps the engine, store, and cache
  /// alive. `cache` may be null: queries are then served directly (no
  /// coalescing, no robustness counters) but still budget-gated.
  ElementServer(AssemblyEngine* engine, const ElementStore* store,
                ViewCache* cache, ServeQueryOptions options = {});

  /// Serves one element query under `ctx`. See the file comment for the
  /// outcome contract.
  Result<QueryAnswer> Serve(const ElementId& id,
                            const QueryContext& ctx = QueryContext());

  /// The op budget `ctx` implies (explicit override, else remaining
  /// time × kOpsPerMs, else effectively unlimited).
  [[nodiscard]] uint64_t OpsBudget(const QueryContext& ctx) const;

  /// Drops the degradation helper's precomputed norms; call after the
  /// store's data changes (it rebuilds lazily on the next degraded
  /// query).
  void InvalidateApprox() { approx_.reset(); }

 private:
  [[nodiscard]] bool AllowDegraded(const QueryContext& ctx) const {
    return options_.allow_degraded || ctx.allow_degraded();
  }
  /// Records terminal deadline/cancellation failures and passes the
  /// status through.
  Status Fail(Status status);
  /// The fill work: budget-gated exact assembly plus the verify_fill
  /// hook. A plan over budget fails with kDeadlineExceeded before any
  /// assembly. `ops` receives the ops spent on success.
  Result<ViewCache::Assembled> AssembleWithinBudget(const ElementId& id,
                                                    const QueryContext& ctx,
                                                    uint64_t* ops);
  Result<QueryAnswer> Degrade(const ElementId& id, uint64_t budget,
                              const QueryContext& ctx);

  AssemblyEngine* engine_;
  const ElementStore* store_;
  ViewCache* cache_;  // null = direct serving
  ServeQueryOptions options_;
  std::unique_ptr<ApproxAssembler> approx_;  // built on first degraded use
};

}  // namespace vecube

#endif  // VECUBE_SERVE_SERVING_H_
