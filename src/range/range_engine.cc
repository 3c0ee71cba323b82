#include "range/range_engine.h"

#include <vector>

#include "util/logging.h"

namespace vecube {

RangeEngine::RangeEngine(const ElementStore* store,
                         MissingElementPolicy policy, ThreadPool* pool,
                         ViewCache* cache, ScratchArena* arena)
    : store_(store),
      policy_(policy),
      engine_(store, pool, arena),
      cache_(cache),
      assembled_cache_(store->shape()) {
  VECUBE_CHECK(store != nullptr);
}

Result<double> RangeEngine::RangeSum(const RangeSpec& range,
                                     RangeQueryStats* stats,
                                     const QueryContext& ctx) {
  const CubeShape& shape = store_->shape();
  if (range.ndim() != shape.ndim()) {
    return Status::InvalidArgument("range arity does not match store");
  }
  RangeSpec checked;
  VECUBE_ASSIGN_OR_RETURN(
      checked, RangeSpec::Make(range.start, range.width, shape));

  const uint32_t d = shape.ndim();
  std::vector<std::vector<DyadicBlock>> blocks(d);
  for (uint32_t m = 0; m < d; ++m) {
    blocks[m] =
        DecomposeInterval(range.start[m], range.width[m], shape.log_extent(m));
  }

  // Odometer over block combinations.
  std::vector<size_t> pick(d, 0);
  std::vector<uint32_t> levels(d);
  std::vector<uint32_t> coords(d);
  double total = 0.0;
  uint64_t terms = 0;
  for (;;) {
    VECUBE_RETURN_NOT_OK(ctx.Check());
    for (uint32_t m = 0; m < d; ++m) {
      levels[m] = blocks[m][pick[m]].level;
      coords[m] = blocks[m][pick[m]].index;
    }
    ElementId id;
    VECUBE_ASSIGN_OR_RETURN(id, ElementId::Intermediate(levels, shape));

    // On-demand assembly of a missing intermediate (kAssemble only).
    const auto fill = [&]() -> Result<ViewCache::Assembled> {
      if (stats != nullptr) ++stats->elements_missing;
      OpCounter ops;
      ViewCache::Assembled assembled;
      VECUBE_ASSIGN_OR_RETURN(assembled.data,
                              engine_.Assemble(id, &ops, &ctx));
      if (stats != nullptr) stats->assembly_ops += ops.adds;
      assembled.assembly_cost = engine_.PlanCost(id);
      return assembled;
    };
    const Tensor* element = nullptr;
    ViewCache::Served served;  // keeps a cached element alive this step
    if (store_->Contains(id)) {
      VECUBE_ASSIGN_OR_RETURN(element, store_->Get(id));
    } else if (cache_ != nullptr &&
               policy_ == MissingElementPolicy::kAssemble) {
      // Single-flight through the serving cache: a hit is a pinned,
      // refcount-free read scoped to this odometer step; concurrent
      // misses on the same intermediate assemble it exactly once.
      VECUBE_ASSIGN_OR_RETURN(served, cache_->GetOrFill(id, ctx, fill));
      element = served.get();
    } else if (assembled_cache_.Contains(id)) {
      VECUBE_ASSIGN_OR_RETURN(element, assembled_cache_.Get(id));
    } else if (policy_ == MissingElementPolicy::kAssemble) {
      ViewCache::Assembled assembled;
      VECUBE_ASSIGN_OR_RETURN(assembled, fill());
      VECUBE_RETURN_NOT_OK(
          assembled_cache_.Put(id, std::move(assembled.data)));
      VECUBE_ASSIGN_OR_RETURN(element, assembled_cache_.Get(id));
    } else {
      return Status::NotFound("intermediate element " + id.ToString() +
                              " not materialized");
    }

    total += element->At(coords);
    ++terms;
    if (stats != nullptr) ++stats->cell_reads;

    // Advance the odometer.
    uint32_t m = 0;
    for (; m < d; ++m) {
      if (++pick[m] < blocks[m].size()) break;
      pick[m] = 0;
    }
    if (m == d) break;
  }
  if (stats != nullptr && terms > 0) stats->additions += terms - 1;
  return total;
}

Result<double> NaiveRangeSum(const Tensor& cube, const CubeShape& shape,
                             const RangeSpec& range, uint64_t* cells_read) {
  if (cube.extents() != shape.extents()) {
    return Status::InvalidArgument("cube extents do not match shape");
  }
  RangeSpec checked;
  VECUBE_ASSIGN_OR_RETURN(
      checked, RangeSpec::Make(range.start, range.width, shape));

  const uint32_t d = shape.ndim();
  std::vector<uint32_t> coords(range.start);
  double total = 0.0;
  uint64_t reads = 0;
  for (;;) {
    total += cube.At(coords);
    ++reads;
    uint32_t m = 0;
    for (; m < d; ++m) {
      if (++coords[m] < range.start[m] + range.width[m]) break;
      coords[m] = range.start[m];
    }
    if (m == d) break;
  }
  if (cells_read != nullptr) *cells_read += reads;
  return total;
}

}  // namespace vecube
