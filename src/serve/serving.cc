#include "serve/serving.h"

#include <chrono>
#include <string>
#include <utility>

namespace vecube {

ElementServer::ElementServer(AssemblyEngine* engine,
                             const ElementStore* store, ViewCache* cache,
                             ServeQueryOptions options)
    : engine_(engine),
      store_(store),
      cache_(cache),
      options_(std::move(options)) {}

uint64_t ElementServer::OpsBudget(const QueryContext& ctx) const {
  if (ctx.ops_budget() != 0) return ctx.ops_budget();
  if (!ctx.has_deadline()) return kInfiniteCost;
  const QueryContext::Clock::duration remaining = ctx.remaining();
  if (remaining >= std::chrono::hours(1)) return kInfiniteCost;
  const uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(remaining)
          .count());
  return micros * kOpsPerMs / 1000;
}

Status ElementServer::Fail(Status status) {
  if (cache_ != nullptr &&
      (status.IsDeadlineExceeded() || status.IsCancelled())) {
    cache_->RecordDeadlineExceeded();
  }
  return status;
}

Result<QueryAnswer> ElementServer::Serve(const ElementId& id,
                                         const QueryContext& ctx) {
  if (Status live = ctx.Check(); !live.ok()) return Fail(std::move(live));
  QueryAnswer answer;
  const auto fill = [&] { return AssembleWithinBudget(id, ctx, &answer.ops); };
  Status failed;
  if (cache_ == nullptr) {
    Result<ViewCache::Assembled> assembled = fill();
    if (assembled.ok()) {
      answer.data = std::move(assembled->data);
      return answer;
    }
    failed = assembled.status();
  } else {
    Result<ViewCache::Served> served = cache_->GetOrFill(id, ctx, fill);
    if (served.ok()) {
      answer.data = (**served).Share();
      return answer;
    }
    failed = served.status();
  }
  // A leader-local cause while our own context is still live: our plan
  // was over budget, or we followed leaders that kept aborting. With
  // degradation allowed there is still a bounded answer to give.
  if (AllowDegraded(ctx) && ViewCache::IsLeaderLocalAbort(failed) &&
      ctx.Check().ok()) {
    return Degrade(id, OpsBudget(ctx), ctx);
  }
  return Fail(std::move(failed));
}

Result<ViewCache::Assembled> ElementServer::AssembleWithinBudget(
    const ElementId& id, const QueryContext& ctx, uint64_t* ops) {
  const uint64_t cost = engine_->PlanCost(id);
  if (cost == kInfiniteCost) {
    return Status::Incomplete("stored element set cannot reconstruct " +
                              id.ToString());
  }
  const uint64_t budget = OpsBudget(ctx);
  if (cost > budget) {
    // Not starting an assembly that cannot finish in time. The cause is
    // leader-local: followers with looser budgets retry and one of them
    // becomes the next leader.
    return Status::DeadlineExceeded(
        "plan cost " + std::to_string(cost) + " exceeds op budget " +
        std::to_string(budget) + " for " + id.ToString());
  }
  OpCounter counter;
  ViewCache::Assembled assembled;
  VECUBE_ASSIGN_OR_RETURN(assembled.data,
                          engine_->Assemble(id, &counter, &ctx));
  if (options_.verify_fill) {
    VECUBE_RETURN_NOT_OK(options_.verify_fill(id, counter.adds));
  }
  assembled.assembly_cost = cost;
  *ops = counter.adds;
  return assembled;
}

Result<QueryAnswer> ElementServer::Degrade(const ElementId& id,
                                           uint64_t budget,
                                           const QueryContext& ctx) {
  if (approx_ == nullptr) {
    approx_ = std::make_unique<ApproxAssembler>(engine_, store_);
  }
  Result<DegradedAnswer> degraded = approx_->AssembleWithin(id, budget, &ctx);
  if (!degraded.ok()) return Fail(degraded.status());
  // A budget generous enough after all yields an exact answer; only a
  // truly approximate one counts as degraded.
  if (cache_ != nullptr && degraded->degraded) cache_->RecordDegraded();
  QueryAnswer answer;
  answer.data = std::move(degraded->data);
  answer.degraded = degraded->degraded;
  answer.l2_bound = degraded->l2_bound;
  answer.ops = degraded->ops;
  return answer;
}

}  // namespace vecube
