// Checker canary: a mutex acquisition smuggled into a helper that the
// ViewCache hit path calls. A per-body regex would miss this
// (FindPinned's own body is clean); call-graph reachability must not.
// NOT compiled — consumed by tools/vecube_check.py --canaries as a
// self-test.
//
// vecube-check-as: src/serve/view_cache.cc
// vecube-check-expect: hit-path-no-locks

#include "serve/view_cache.h"
#include "util/sync.h"

namespace vecube {

ViewCache::Shard& ViewCache::ShardFor(const ElementId& id) {
  MutexLock lock(topology_mu_);  // BUG: lock on the read path
  return *shards_[HashOf(id) & shard_mask_];
}

ViewCache::ReadHandle ViewCache::FindPinned(const ElementId& id) {
  Shard& shard = ShardFor(id);  // reaches the lock above
  (void)shard;
  return ReadHandle();
}

}  // namespace vecube
