#include "core/assembly.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <optional>

#include "haar/fused.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/sync.h"

namespace vecube {

namespace {
Status TooManyDims() {
  return Status::InvalidArgument(
      "at most 16 dimensions supported for assembly planning");
}

// The P1/R1 steps that cascade a stored ancestor down to `target`: per
// dimension, the remaining bits of the target's offset below the
// ancestor's level, most significant first. Executed as one fused
// cascade, the whole descent runs through scratch tiles instead of
// materializing a tensor per level; results and op totals are identical
// to the per-step loop this replaces.
std::vector<CascadeStep> DescentSteps(const ElementId& source,
                                      const ElementId& target) {
  std::vector<CascadeStep> steps;
  for (uint32_t m = 0; m < target.ndim(); ++m) {
    const DimCode& from = source.dim(m);
    const DimCode& to = target.dim(m);
    for (uint32_t bit = to.level - from.level; bit-- > 0;) {
      const bool residual = ((to.offset >> bit) & 1u) != 0;
      steps.push_back(CascadeStep{
          m, residual ? StepKind::kResidual : StepKind::kPartial});
    }
  }
  return steps;
}
}  // namespace

// Latched cross-target sub-result cache (see header). Entries are owned by
// shared_ptr so the map can grow while other threads hold their entry.
struct AssemblyEngine::BatchCache {
  struct Entry {
    Mutex mu;
    CondVar cv;
    bool ready VECUBE_GUARDED_BY(mu) = false;
    // non-OK when the owning computation failed
    Status status VECUBE_GUARDED_BY(mu);
    Tensor tensor VECUBE_GUARDED_BY(mu);
  };
  Mutex mu;
  std::unordered_map<uint64_t, std::shared_ptr<Entry>> map
      VECUBE_GUARDED_BY(mu);
};

AssemblyEngine::AssemblyEngine(const ElementStore* store, ThreadPool* pool,
                               ScratchArena* arena)
    : store_(store),
      pool_(pool),
      arena_(arena),
      shape_(store->shape()),
      indexer_(shape_) {
  VECUBE_CHECK(store != nullptr);
  Invalidate();
}

void AssemblyEngine::Invalidate() {
  is_stored_.clear();
  stored_codes_.clear();
  for (const ElementId& id : store_->Ids()) {
    is_stored_.insert(indexer_.Encode(id));
    stored_codes_.insert(stored_codes_.end(), id.codes().begin(),
                         id.codes().end());
  }
  ancestor_memo_.clear();
  plan_memo_.clear();
}

uint64_t AssemblyEngine::EncodeRaw(const DimCode* codes) const {
  uint64_t index = 0;
  uint64_t weight = 1;
  for (uint32_t m = shape_.ndim(); m-- > 0;) {
    index += (((uint64_t{1} << codes[m].level) - 1) + codes[m].offset) * weight;
    weight *= 2ull * shape_.extent(m) - 1;
  }
  return index;
}

uint64_t AssemblyEngine::VolumeRaw(const DimCode* codes) const {
  uint64_t volume = 1;
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    volume *= shape_.extent(m) >> codes[m].level;
  }
  return volume;
}

uint32_t AssemblyEngine::FinerDimsRaw(const DimCode* codes) const {
  const uint32_t ndim = shape_.ndim();
  uint32_t finer = 0;
  for (size_t base = 0; base < stored_codes_.size(); base += ndim) {
    const DimCode* stored = &stored_codes_[base];
    uint32_t dims = 0;
    bool meets = true;
    // Per dimension, the coarser code's interval contains the finer one's
    // or the two are disjoint: they meet iff the finer offset, shifted up
    // to the coarser level, is the coarser offset.
    for (uint32_t m = 0; m < ndim && meets; ++m) {
      const DimCode& s = stored[m];
      const DimCode& n = codes[m];
      if (s.level > n.level) {
        meets = (s.offset >> (s.level - n.level)) == n.offset;
        dims |= 1u << m;
      } else {
        meets = (n.offset >> (n.level - s.level)) == s.offset;
      }
    }
    if (meets) finer |= dims;
  }
  return finer;
}

AssemblyEngine::AncestorInfo AssemblyEngine::MinAncestorRaw(DimCode* codes) {
  const uint64_t index = EncodeRaw(codes);
  if (auto hit = ancestor_memo_.find(index); hit != ancestor_memo_.end()) {
    return hit->second;
  }
  AncestorInfo info;
  if (is_stored_.count(index) > 0) {
    info.volume = VolumeRaw(codes);
    info.arg = index;
  }
  for (uint32_t m = 0; m < shape_.ndim(); ++m) {
    if (codes[m].level == 0) continue;
    const DimCode saved = codes[m];
    codes[m] = DimCode{saved.level - 1, saved.offset >> 1};
    const AncestorInfo parent = MinAncestorRaw(codes);
    codes[m] = saved;
    if (parent.volume < info.volume) info = parent;
  }
  ancestor_memo_.emplace(index, info);
  return info;
}

AssemblyEngine::PlanNode AssemblyEngine::PlanRaw(DimCode* codes) {
  const uint64_t index = EncodeRaw(codes);
  if (auto hit = plan_memo_.find(index); hit != plan_memo_.end()) {
    return hit->second;
  }

  PlanNode node;
  const uint64_t vol = VolumeRaw(codes);
  // F option: aggregate down from the smallest stored ancestor (a stored
  // target is the ancestor==self case with cost 0).
  const AncestorInfo ancestor = MinAncestorRaw(codes);
  if (ancestor.volume != kInfiniteCost) {
    node.cost = ancestor.volume - vol;
    node.choice = Choice::kAggregate;
    node.source = ancestor.arg;
  }

  // R option: synthesize from the P/R children along the best dimension.
  // Any synthesis costs at least Vol(n) (the final stage alone), so when
  // aggregation already achieves that, the children cones need not be
  // explored at all — this prunes most of the graph for stores containing
  // coarse elements. A split along a dimension where no stored element
  // meeting n is finer is never optimal (DESIGN.md §15), so both
  // passes try only the finer dimensions; with none, F wins or n is
  // unreachable.
  if (node.cost > vol) {
    const uint32_t finer = FinerDimsRaw(codes);
    // Cheap first pass: bound each dimension's synthesis option by the
    // children's *aggregation-only* costs (no recursive exploration). This
    // often establishes the Vol(n) floor immediately — e.g. when both
    // children are stored — and lets the deep pass be skipped entirely.
    for (uint32_t m = 0; m < shape_.ndim(); ++m) {
      if ((finer & (1u << m)) == 0) continue;
      const DimCode saved = codes[m];
      codes[m] = DimCode{saved.level + 1, saved.offset * 2};
      const AncestorInfo ap = MinAncestorRaw(codes);
      const uint64_t child_vol = VolumeRaw(codes);
      codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
      const AncestorInfo ar = MinAncestorRaw(codes);
      codes[m] = saved;
      if (ap.volume == kInfiniteCost || ar.volume == kInfiniteCost) continue;
      const uint64_t cost =
          vol + (ap.volume - child_vol) + (ar.volume - child_vol);
      if (cost < node.cost) {
        node.cost = cost;
        node.choice = Choice::kSynthesize;
        node.split_dim = m;
      }
      if (node.cost <= vol) break;
    }
    // Deep pass: the children's full plans.
    for (uint32_t m = 0; m < shape_.ndim() && node.cost > vol; ++m) {
      if ((finer & (1u << m)) == 0) continue;
      const DimCode saved = codes[m];
      codes[m] = DimCode{saved.level + 1, saved.offset * 2};
      const uint64_t tp = PlanRaw(codes).cost;
      codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
      const uint64_t tr = PlanRaw(codes).cost;
      codes[m] = saved;
      if (tp == kInfiniteCost || tr == kInfiniteCost) continue;
      const uint64_t cost = vol + tp + tr;
      if (cost < node.cost) {
        node.cost = cost;
        node.choice = Choice::kSynthesize;
        node.split_dim = m;
      }
    }
  }

  plan_memo_.emplace(index, node);
  return node;
}

void AssemblyEngine::WarmPlanRaw(DimCode* codes,
                                 std::unordered_set<uint64_t>* visited) {
  const uint64_t index = EncodeRaw(codes);
  if (!visited->insert(index).second) return;
  const PlanNode node = PlanRaw(codes);
  if (node.choice != Choice::kSynthesize) return;
  // Execution will recurse into exactly these two children. (The cheap
  // first pass of PlanRaw can choose kSynthesize without ever having
  // planned the children, so warming must descend explicitly.)
  const uint32_t m = node.split_dim;
  const DimCode saved = codes[m];
  codes[m] = DimCode{saved.level + 1, saved.offset * 2};
  WarmPlanRaw(codes, visited);
  codes[m] = DimCode{saved.level + 1, saved.offset * 2 + 1};
  WarmPlanRaw(codes, visited);
  codes[m] = saved;
}

uint64_t AssemblyEngine::PlanCost(const ElementId& target) {
  // Guard the fixed-arity code buffers below: a shape beyond kMaxAssemblyDims
  // must not reach the std::array copy (stack overflow otherwise).
  if (shape_.ndim() > kMaxAssemblyDims) return kInfiniteCost;
  if (target.ndim() != shape_.ndim()) return kInfiniteCost;
  std::array<DimCode, kMaxAssemblyDims> codes{};
  std::copy(target.codes().begin(), target.codes().end(), codes.begin());
  return PlanRaw(codes.data()).cost;
}

Result<Tensor> AssemblyEngine::ExecuteSolo(const ElementId& target,
                                           OpCounter* ops,
                                           const QueryContext* ctx) {
  if (ctx != nullptr) VECUBE_RETURN_NOT_OK(ctx->Check());
  // Chaos hook: lets latency tests stall every plan node (kDelay) or fail
  // the assembly mid-plan (kError). Unarmed cost: one relaxed load.
  if (std::optional<FailpointAction> fp =
          Failpoints::HitWithDelay("assembly.node");
      fp.has_value() && fp->kind == FailpointAction::Kind::kError) {
    return Status::Internal(
        "injected assembly failure (failpoint assembly.node)");
  }
  std::array<DimCode, kMaxAssemblyDims> codes{};
  std::copy(target.codes().begin(), target.codes().end(), codes.begin());
  const PlanNode node = PlanRaw(codes.data());  // copy: map may rehash below
  switch (node.choice) {
    case Choice::kAggregate: {
      const ElementId source = indexer_.Decode(node.source);
      const Tensor* data;
      VECUBE_ASSIGN_OR_RETURN(data, store_->Get(source));
      if (source == target) return *data;
      return CascadeAnalysis(*data, DescentSteps(source, target), ops, pool_,
                             arena_, ctx);
    }
    case Choice::kSynthesize: {
      ElementId p_id, r_id;
      VECUBE_ASSIGN_OR_RETURN(
          p_id, target.Child(node.split_dim, StepKind::kPartial, shape_));
      VECUBE_ASSIGN_OR_RETURN(
          r_id, target.Child(node.split_dim, StepKind::kResidual, shape_));
      Tensor p, r;
      VECUBE_ASSIGN_OR_RETURN(p, ExecuteSolo(p_id, ops, ctx));
      VECUBE_ASSIGN_OR_RETURN(r, ExecuteSolo(r_id, ops, ctx));
      Tensor out;
      VECUBE_ASSIGN_OR_RETURN(
          out, SynthesizePair(p, r, node.split_dim, ops, pool_));
      return out;
    }
    case Choice::kNone:
      break;
  }
  return Status::Incomplete("stored element set cannot reconstruct " +
                            target.ToString());
}

Result<Tensor> AssemblyEngine::ExecuteShared(const ElementId& target,
                                             BatchCache* cache,
                                             std::atomic<uint64_t>* adds,
                                             const QueryContext* ctx) {
  if (ctx != nullptr) VECUBE_RETURN_NOT_OK(ctx->Check());
  std::array<DimCode, kMaxAssemblyDims> codes{};
  std::copy(target.codes().begin(), target.codes().end(), codes.begin());
  const uint64_t target_index = EncodeRaw(codes.data());

  std::shared_ptr<BatchCache::Entry> entry;
  bool owner = false;
  {
    MutexLock lock(cache->mu);
    auto [it, inserted] = cache->map.try_emplace(target_index, nullptr);
    if (inserted) {
      it->second = std::make_shared<BatchCache::Entry>();
      owner = true;
    }
    entry = it->second;
  }
  if (!owner) {
    // Another thread owns this node. Waits follow child edges of the plan
    // DAG only, and owners are always running threads, so this terminates;
    // the timed slices bound each wait (no-unbounded-wait) and let an
    // expired context unwind instead of riding out a slow owner.
    MutexLock lock(entry->mu);
    while (!entry->ready) {
      if (ctx != nullptr) {
        Status live = ctx->Check();
        if (!live.ok()) return live;
      }
      entry->cv.WaitFor(entry->mu, std::chrono::milliseconds(100));
    }
    if (!entry->status.ok()) return entry->status;
    return entry->tensor;
  }

  // This node's kernel work lands in a local counter and is published
  // once, keeping the batch total an order-independent sum of per-node
  // costs — identical at every thread count.
  OpCounter local;
  Result<Tensor> result = [&]() -> Result<Tensor> {
    // Plans were warmed serially by AssembleBatch; this is a memo read.
    const PlanNode node = PlanRaw(codes.data());
    switch (node.choice) {
      case Choice::kAggregate: {
        const ElementId source = indexer_.Decode(node.source);
        const Tensor* data;
        VECUBE_ASSIGN_OR_RETURN(data, store_->Get(source));
        if (source == target) return *data;
        return CascadeAnalysis(*data, DescentSteps(source, target), &local,
                               pool_, arena_, ctx);
      }
      case Choice::kSynthesize: {
        ElementId p_id, r_id;
        VECUBE_ASSIGN_OR_RETURN(
            p_id, target.Child(node.split_dim, StepKind::kPartial, shape_));
        VECUBE_ASSIGN_OR_RETURN(
            r_id, target.Child(node.split_dim, StepKind::kResidual, shape_));
        Tensor p, r;
        VECUBE_ASSIGN_OR_RETURN(p, ExecuteShared(p_id, cache, adds, ctx));
        VECUBE_ASSIGN_OR_RETURN(r, ExecuteShared(r_id, cache, adds, ctx));
        Tensor out;
        VECUBE_ASSIGN_OR_RETURN(
            out, SynthesizePair(p, r, node.split_dim, &local, pool_));
        return out;
      }
      case Choice::kNone:
        break;
    }
    return Status::Incomplete("stored element set cannot reconstruct " +
                              target.ToString());
  }();
  // order: relaxed — pure op accounting; the total is read only after
  // ParallelFor's completion barrier has ordered all chunk writes.
  adds->fetch_add(local.adds, std::memory_order_relaxed);

  {
    MutexLock lock(entry->mu);
    if (result.ok()) {
      entry->tensor = *result;
    } else {
      entry->status = result.status();
    }
    entry->ready = true;
  }
  entry->cv.NotifyAll();
  return result;
}

Result<Tensor> AssemblyEngine::Assemble(const ElementId& target,
                                        OpCounter* ops,
                                        const QueryContext* ctx) {
  if (shape_.ndim() > kMaxAssemblyDims) return TooManyDims();
  if (target.ndim() != shape_.ndim()) {
    return Status::InvalidArgument("element arity does not match store");
  }
  ElementId checked;
  VECUBE_ASSIGN_OR_RETURN(checked, ElementId::Make(target.codes(), shape_));
  return ExecuteSolo(target, ops, ctx);
}

Result<std::vector<Tensor>> AssemblyEngine::AssembleBatch(
    const std::vector<ElementId>& targets, OpCounter* ops,
    const QueryContext* ctx) {
  if (shape_.ndim() > kMaxAssemblyDims) return TooManyDims();
  for (const ElementId& target : targets) {
    if (target.ndim() != shape_.ndim()) {
      return Status::InvalidArgument("element arity does not match store");
    }
    ElementId checked;
    VECUBE_ASSIGN_OR_RETURN(checked, ElementId::Make(target.codes(), shape_));
  }

  // Phase 1 — serial planning: memoize the plan of every node execution
  // can touch. The memo tables are unlocked, so the concurrent phase must
  // only ever read them.
  std::unordered_set<uint64_t> visited;
  for (const ElementId& target : targets) {
    std::array<DimCode, kMaxAssemblyDims> codes{};
    std::copy(target.codes().begin(), target.codes().end(), codes.begin());
    WarmPlanRaw(codes.data(), &visited);
  }

  // Phase 2 — execution, fanned out across targets when a pool is
  // available. The latched cache makes every distinct sub-element compute
  // exactly once regardless of scheduling.
  BatchCache cache;
  std::atomic<uint64_t> adds{0};
  const uint64_t count = targets.size();
  std::vector<std::optional<Result<Tensor>>> results(count);

  // Cost-weighted scheduling: fan targets out largest-Procedure-3-cost
  // first (plans are already memoized, so PlanCost is a table read). The
  // grain-1 dynamic claiming then keeps every straggler small instead of
  // letting a heavyweight target land last on a skewed batch. Order
  // affects timing only — the latched cache computes each sub-element
  // once regardless, so results and op totals are scheduling-invariant.
  std::vector<uint64_t> order(count);
  for (uint64_t i = 0; i < count; ++i) order[i] = i;
  const bool fan_out = pool_ != nullptr && pool_->num_threads() > 1 &&
                       count > 1;
  if (fan_out) {
    std::vector<uint64_t> costs(count);
    for (uint64_t i = 0; i < count; ++i) costs[i] = PlanCost(targets[i]);
    std::stable_sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
      return costs[a] > costs[b];
    });
  }
  auto run_targets = [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t t = order[i];
      results[t] = ExecuteShared(targets[t], &cache, &adds, ctx);
    }
  };
  if (fan_out) {
    pool_->ParallelFor(count, 1, run_targets);
  } else {
    run_targets(0, count);
  }

  std::vector<Tensor> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (!results[i]->ok()) return results[i]->status();
    out.push_back(std::move(**results[i]));
  }
  // order: relaxed — every contributor finished inside ParallelFor's
  // acq_rel completion barrier, which ordered their fetch_adds here.
  if (ops != nullptr) ops->adds += adds.load(std::memory_order_relaxed);
  return out;
}

Result<Tensor> AssemblyEngine::AssembleView(uint32_t aggregated_mask,
                                            OpCounter* ops,
                                            const QueryContext* ctx) {
  ElementId view;
  VECUBE_ASSIGN_OR_RETURN(view,
                          ElementId::AggregatedView(aggregated_mask, shape_));
  return Assemble(view, ops, ctx);
}

}  // namespace vecube
