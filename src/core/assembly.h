// AssemblyEngine: dynamic assembly of views from stored view elements.
//
// This is the operational heart of the paper: any view (element) is
// produced from a stored set either by *aggregating* a stored ancestor
// down (forward dependency) or by *synthesizing* it from its P/R children
// (reverse dependency, via perfect reconstruction), recursively. The
// planner chooses the cheapest option per node — exactly the recursion of
// Procedure 3:
//
//   F_n = min over stored ancestors s of (Vol(s) − Vol(n))
//   R_n = Vol(n) + min_m (T_p^m + T_r^m)
//   T_n = min(F_n, R_n)
//
// The engine then executes the chosen plan with the real Haar kernels and
// counts operations, so the analytic cost and the measured cost are the
// same quantity — a tested invariant of this reproduction.
//
// Implementation note: planning recursions run on raw per-dimension code
// buffers with hash-map memos keyed by the element's mixed-radix index
// (ElementIndexer); only nodes actually reached by a plan are stored. The
// synthesis search splits a node only along dimensions where a stored
// element meeting it is finer (DESIGN.md §15), so planning touches only
// the part of the graph the stored elements can reach, not the target's
// whole descendant cone.
// The raw buffers are fixed kMaxDims arrays; every public entry point
// rejects stores of higher arity up front (CubeShape admits up to 24
// dimensions, so the check is load-bearing, not decorative).
//
// Threading model: planning is always serial (memo tables are unlocked).
// Execution fans out on an optional ThreadPool at two levels — the Haar
// kernels chunk their row loops, and AssembleBatch() runs independent
// targets concurrently over a latched shared-subresult cache that computes
// every distinct sub-element exactly once. Both levels are deterministic:
// outputs and measured op counts are identical at every thread count.

#ifndef VECUBE_CORE_ASSEMBLY_H_
#define VECUBE_CORE_ASSEMBLY_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/element_id.h"
#include "core/graph.h"
#include "core/store.h"
#include "cube/shape.h"
#include "cube/tensor.h"
#include "haar/scratch.h"
#include "haar/transform.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace vecube {

/// Cost value for unreachable targets.
inline constexpr uint64_t kInfiniteCost =
    std::numeric_limits<uint64_t>::max();

/// Highest store arity the engine's fixed planning buffers support.
inline constexpr uint32_t kMaxAssemblyDims = 16;

/// Plans and executes assemblies of view elements over an ElementStore.
/// The planner memo is tied to the store's contents; call Invalidate()
/// after mutating the store.
class AssemblyEngine {
 public:
  /// Borrows the store (and the pool and arena, when given); the caller
  /// keeps all three alive. A null or single-threaded pool reproduces the
  /// serial engine exactly; `arena` only recycles kernel scratch and never
  /// changes results.
  explicit AssemblyEngine(const ElementStore* store,
                          ThreadPool* pool = nullptr,
                          ScratchArena* arena = nullptr);

  /// Procedure-3 cost T_n of producing `target` from the store, in
  /// add/subtract operations. kInfiniteCost if unreachable (store not
  /// complete w.r.t. target, or arity beyond kMaxAssemblyDims).
  uint64_t PlanCost(const ElementId& target);

  /// Materializes `target`. Status Incomplete if the stored set cannot
  /// reconstruct it. `ops` (optional) accrues the executed operation
  /// count, which equals PlanCost(target). `ctx` (optional) is polled at
  /// every plan node and inside the fused cascade loops at tile
  /// granularity; an expired or cancelled context unwinds the execution
  /// with kDeadlineExceeded / kCancelled (no partial tensor escapes).
  Result<Tensor> Assemble(const ElementId& target, OpCounter* ops = nullptr,
                          const QueryContext* ctx = nullptr);

  /// Convenience: the aggregated view for `aggregated_mask` (bit m set =
  /// dimension m totally aggregated).
  Result<Tensor> AssembleView(uint32_t aggregated_mask,
                              OpCounter* ops = nullptr,
                              const QueryContext* ctx = nullptr);

  /// Multi-query assembly: materializes all targets while sharing every
  /// common sub-result (common descendants are synthesized once, cascade
  /// results reused). Returns tensors in target order; `ops` counts the
  /// *shared* work, which is at most the sum of individual plan costs and
  /// often much less for overlapping targets. With a multi-threaded pool
  /// the targets execute concurrently; the shared cache latches each
  /// sub-element so it is still computed exactly once, keeping outputs and
  /// op counts identical to the single-threaded batch.
  Result<std::vector<Tensor>> AssembleBatch(
      const std::vector<ElementId>& targets, OpCounter* ops = nullptr,
      const QueryContext* ctx = nullptr);

  /// Drops all memoized plans (call after the store changes).
  void Invalidate();

 private:
  enum class Choice : uint8_t { kAggregate, kSynthesize, kNone };

  struct PlanNode {
    uint64_t cost = kInfiniteCost;
    Choice choice = Choice::kNone;
    uint64_t source = 0;     // kAggregate: encoded index of the ancestor
    uint32_t split_dim = 0;  // kSynthesize
  };

  struct AncestorInfo {
    uint64_t volume = kInfiniteCost;  // min volume over stored ancestors
    uint64_t arg = 0;                 // encoded index achieving it
  };

  // Cross-target cache of sub-results for AssembleBatch. Each entry is a
  // latch: the first thread to insert it owns the computation; later
  // arrivals block on `cv` until `ready`. Sub-element dependencies form a
  // DAG (children are strictly deeper), so waits cannot cycle.
  struct BatchCache;

  uint64_t EncodeRaw(const DimCode* codes) const;
  uint64_t VolumeRaw(const DimCode* codes) const;
  // Bit m set iff some stored element meeting `codes` (their frequency
  // rectangles intersect) has a higher level than `codes` along m. Only
  // these dimensions can carry an optimal synthesis split (DESIGN.md §15).
  uint32_t FinerDimsRaw(const DimCode* codes) const;
  AncestorInfo MinAncestorRaw(DimCode* codes);
  PlanNode PlanRaw(DimCode* codes);
  // Memoizes the plan of every node the execution of `codes` will visit
  // (serially), so concurrent batch execution only reads the memo tables.
  void WarmPlanRaw(DimCode* codes, std::unordered_set<uint64_t>* visited);
  // Single-target execution; no sub-result caching, so the measured ops
  // equal the analytic PlanCost (which also counts shared descendants of a
  // single plan once per use).
  Result<Tensor> ExecuteSolo(const ElementId& target, OpCounter* ops,
                             const QueryContext* ctx);
  // Batch execution against the latched cache. `adds` accrues each
  // computed node's kernel ops exactly once, at the computing thread.
  Result<Tensor> ExecuteShared(const ElementId& target, BatchCache* cache,
                               std::atomic<uint64_t>* adds,
                               const QueryContext* ctx);

  const ElementStore* store_;
  ThreadPool* pool_;
  ScratchArena* arena_;
  CubeShape shape_;
  ElementIndexer indexer_;
  std::unordered_set<uint64_t> is_stored_;
  // The stored elements' codes, ndim per element, for FinerDimsRaw.
  std::vector<DimCode> stored_codes_;
  // Memos over the nodes planning has touched; each node is planned once.
  std::unordered_map<uint64_t, AncestorInfo> ancestor_memo_;
  std::unordered_map<uint64_t, PlanNode> plan_memo_;
};

}  // namespace vecube

#endif  // VECUBE_CORE_ASSEMBLY_H_
