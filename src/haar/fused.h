// Fused multi-level cascade kernels (DESIGN.md §11).
//
// A cascade of k P1/R1 steps executed one step at a time materializes k
// intermediate tensors and streams the whole (shrinking) cube through
// memory k times. But every step only combines cells that agree on all
// untouched coordinates, so the cascade factors over *slabs*: fix the
// coordinates of the dimensions before the touched window and a tile of
// the trailing (inner) cells, and the entire k-level reduction of that
// slab runs in a scratch tile that fits in cache. The fused engine
//
//   1. plans: validates the step list against the evolving extents
//      (reporting exactly the statuses the unfused kernels would), then
//      greedily groups consecutive steps whose combined dimension window
//      keeps the first intermediate within the scratch budget;
//   2. executes each multi-step group per (outer slab, inner tile),
//      ping-ponging intermediate levels through two ScratchArena buffers:
//      the first pass reads the input slab in place, middle passes stay
//      packed in scratch, and the last pass writes straight into the
//      output tensor. Single-step groups fall through to the plain
//      vectorized kernels.
//
// Bit-exactness: each output cell of a P1/R1 step is one add/subtract of
// two cells; the fused engine performs the same per-dimension step
// sequence, so every result cell is produced by the identical
// (a+b)+(c+d)-shaped association tree as the step-at-a-time path — fused
// results are bit-identical for any grouping, tile width, scratch budget,
// or thread count. OpCounter totals are derived analytically from the
// step volumes (the same totals the unfused kernels book), so plan costs
// and measured ops stay exact.

#ifndef VECUBE_HAAR_FUSED_H_
#define VECUBE_HAAR_FUSED_H_

#include <cstdint>
#include <vector>

#include "cube/tensor.h"
#include "haar/cascade.h"
#include "haar/scratch.h"
#include "haar/transform.h"
#include "util/query_context.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace vecube {

/// Applies a sequence of P1/R1 steps left to right, fusing runs of steps
/// into single passes where the scratch budget allows. Semantically
/// identical to applying PartialSum / PartialResidual per step (bit-exact
/// results, identical OpCounter::adds), including the Status returned for
/// invalid steps. `pool` and `arena` are optional accelerators. `ctx`
/// (optional) is polled between groups and at (slab, tile) chunk
/// granularity inside fused groups; an expired/cancelled context unwinds
/// with its Check() status — results are never partially published.
Result<Tensor> CascadeAnalysis(const Tensor& input,
                               const std::vector<CascadeStep>& steps,
                               OpCounter* ops = nullptr,
                               ThreadPool* pool = nullptr,
                               ScratchArena* arena = nullptr,
                               const QueryContext* ctx = nullptr);

/// `levels` fused P1 steps along `dim` (the depth-k cascade of Eq. 7).
/// Requires extent(dim) divisible by 2^levels.
Result<Tensor> CascadeSum(const Tensor& input, uint32_t dim, uint32_t levels,
                          OpCounter* ops = nullptr,
                          ThreadPool* pool = nullptr,
                          ScratchArena* arena = nullptr,
                          const QueryContext* ctx = nullptr);

namespace internal {

/// Default per-buffer scratch budget, in cells: the largest first
/// intermediate a fused group may produce per inner tile. Two buffers of
/// this size (512 KiB total) keep the whole ping-pong resident in L2.
inline constexpr uint64_t kDefaultFusedBudgetCells = uint64_t{1} << 15;

/// Current budget (cells per ping buffer).
uint64_t FusedBudgetCells();

/// Overrides the scratch budget; 0 restores the default. Tests use tiny
/// budgets to force group splits and windowed tiling on small tensors.
/// Affects planning only — results are bit-identical at any budget.
void SetFusedBudgetForTesting(uint64_t cells);

}  // namespace internal

}  // namespace vecube

#endif  // VECUBE_HAAR_FUSED_H_
