// Test helpers that seed and inspect a ViewCache through its production
// single-flight API (LookupOrBegin / CompleteFill / AbortFill), so tests
// exercise exactly the paths the serving layers run.

#ifndef VECUBE_TESTS_VIEW_CACHE_PROBE_H_
#define VECUBE_TESTS_VIEW_CACHE_PROBE_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "core/element_id.h"
#include "cube/tensor.h"
#include "serve/view_cache.h"

namespace vecube {

/// The resident tensor for `id` (a counted hit), or an empty handle. A
/// miss appoints a fill leader and aborts it at once: it counts one miss
/// and leaves nothing in flight. Call only while no other thread fills
/// `id` — the abort would wake that fill's followers.
inline ViewCache::ReadHandle Peek(ViewCache& cache, const ElementId& id) {
  ViewCache::LookupOutcome outcome = cache.LookupOrBegin(id);
  if (outcome.fill.leader()) cache.AbortFill(std::move(outcome.fill));
  return std::move(outcome.hit);
}

/// Fills `id` with `data` as a leader would (counting one miss) and
/// returns the tensor to serve; null when `id` is already resident or in
/// flight, so there is nothing to fill.
inline std::shared_ptr<const Tensor> Put(ViewCache& cache,
                                         const ElementId& id, Tensor data,
                                         uint64_t assembly_cost) {
  ViewCache::LookupOutcome outcome = cache.LookupOrBegin(id);
  if (!outcome.fill.leader()) return nullptr;
  return cache.CompleteFill(std::move(outcome.fill), std::move(data),
                            assembly_cost);
}

}  // namespace vecube

#endif  // VECUBE_TESTS_VIEW_CACHE_PROBE_H_
