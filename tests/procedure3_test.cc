#include "select/procedure3.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/basis.h"
#include "core/computer.h"
#include "cube/synthetic.h"
#include "util/rng.h"

namespace vecube {
namespace {

CubeShape Shape(std::vector<uint32_t> extents) {
  auto s = CubeShape::Make(std::move(extents));
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(Procedure3Test, StoredElementIsFree) {
  const CubeShape shape = Shape({4, 4});
  auto calc = Procedure3Calculator::Make(shape, CubeOnlySet(shape));
  ASSERT_TRUE(calc.ok());
  EXPECT_EQ(calc->Cost(ElementId::Root(2)), 0u);
}

TEST(Procedure3Test, AggregationCostFromCube) {
  const CubeShape shape = Shape({8, 8});
  auto calc = Procedure3Calculator::Make(shape, CubeOnlySet(shape));
  auto view = ElementId::AggregatedView(0b11, shape);
  EXPECT_EQ(calc->Cost(*view), 63u);  // Vol(A) - 1
}

TEST(Procedure3Test, SynthesisWhenNoAncestor) {
  const CubeShape shape = Shape({4, 4});
  const ElementId root = ElementId::Root(2);
  auto p = root.Child(0, StepKind::kPartial, shape);
  auto r = root.Child(0, StepKind::kResidual, shape);
  auto calc = Procedure3Calculator::Make(shape, {*p, *r});
  ASSERT_TRUE(calc.ok());
  // Root: one synthesis stage, Vol(root) ops.
  EXPECT_EQ(calc->Cost(root), 16u);
}

TEST(Procedure3Test, UnreachableIsInfinite) {
  const CubeShape shape = Shape({4, 4});
  auto p = ElementId::Root(2).Child(0, StepKind::kPartial, shape);
  auto calc = Procedure3Calculator::Make(shape, {*p});
  EXPECT_EQ(calc->Cost(ElementId::Root(2)), kInfiniteCost);
  // But descendants of the stored element are fine.
  auto pp = p->Child(0, StepKind::kPartial, shape);
  EXPECT_EQ(calc->Cost(*pp), 4u);  // vol 8 -> vol 4
}

// `count` distinct elements drawn uniformly from `all`, appended to `base`
// (skipping any already present).
std::vector<ElementId> WithRandomElements(std::vector<ElementId> base,
                                          const std::vector<ElementId>& all,
                                          size_t count, Rng* rng) {
  const size_t target = base.size() + count;
  while (base.size() < target) {
    const ElementId& pick = all[rng->UniformU64(all.size())];
    if (std::find(base.begin(), base.end(), pick) == base.end()) {
      base.push_back(pick);
    }
  }
  return base;
}

TEST(Procedure3Test, MatchesAssemblyEnginePlanOnRandomBases) {
  // The unpruned Procedure-3 recursion is the oracle for the engine's
  // planner: on every element of every store, PlanCost must equal it
  // (kInfiniteCost included), and executing every aggregated view must
  // count exactly PlanCost ops. The stores cover the bases of the paper,
  // random supersets of the complete ones, and arbitrary, possibly
  // incomplete sets whose elements overlap without nesting.
  const std::vector<std::vector<uint32_t>> shapes = {
      {4, 4, 4}, {8, 4, 2}, {2, 2, 2, 2}, {8, 8}, {16, 4}};
  Rng rng(3);
  for (const auto& extents : shapes) {
    const CubeShape shape = Shape(extents);
    auto cube = UniformIntegerCube(shape, &rng);
    ASSERT_TRUE(cube.ok());
    ElementComputer computer(shape, &*cube);
    ViewElementGraph graph(shape);
    std::vector<ElementId> all;
    graph.ForEachElement([&](const ElementId& id) { all.push_back(id); });

    std::vector<std::vector<ElementId>> sets = {
        CubeOnlySet(shape),
        WaveletBasisSet(shape),
        GaussianPyramidSet(shape),
        ViewHierarchySet(shape),
    };
    for (int i = 0; i < 20; ++i) {
      sets.push_back(WithRandomElements(
          i % 2 == 0 ? CubeOnlySet(shape) : WaveletBasisSet(shape), all, 4,
          &rng));
    }
    for (size_t size = 1; size <= 8; ++size) {
      sets.push_back(WithRandomElements({}, all, size, &rng));
    }

    for (const auto& set : sets) {
      auto store = computer.Materialize(set);
      ASSERT_TRUE(store.ok());
      AssemblyEngine engine(&*store);
      auto calc = Procedure3Calculator::Make(shape, set);
      ASSERT_TRUE(calc.ok());
      for (const ElementId& id : all) {
        ASSERT_EQ(calc->Cost(id), engine.PlanCost(id))
            << shape.ToString() << " target " << id.ToString();
      }
      for (const ElementId& view : graph.AggregatedViews()) {
        OpCounter ops;
        auto out = engine.Assemble(view, &ops);
        const uint64_t planned = engine.PlanCost(view);
        if (planned == kInfiniteCost) {
          EXPECT_FALSE(out.ok()) << view.ToString();
          continue;
        }
        ASSERT_TRUE(out.ok()) << view.ToString();
        EXPECT_EQ(ops.adds, planned) << view.ToString();
      }
    }
  }
}

TEST(Procedure3Test, OverlapWithoutNestingStillReachesTheTarget) {
  // On the 4x4 wavelet basis, (0@0, 2@2) has no stored ancestor and no
  // stored element inside it, yet splitting along dimension 0 reaches the
  // stored (1@1, 1@1), whose rectangle overlaps the target's without
  // nesting. A planner that skipped synthesis here would call it
  // unreachable.
  const CubeShape shape = Shape({4, 4});
  const std::vector<ElementId> set = WaveletBasisSet(shape);
  auto target = ElementId::Make({{0, 0}, {2, 2}}, shape);
  ASSERT_TRUE(target.ok());
  auto calc = Procedure3Calculator::Make(shape, set);
  ASSERT_TRUE(calc.ok());
  EXPECT_EQ(calc->Cost(*target), 8u);

  Rng rng(5);
  auto cube = UniformIntegerCube(shape, &rng);
  ASSERT_TRUE(cube.ok());
  ElementComputer computer(shape, &*cube);
  auto store = computer.Materialize(set);
  ASSERT_TRUE(store.ok());
  AssemblyEngine engine(&*store);
  EXPECT_EQ(engine.PlanCost(*target), 8u);
}

TEST(Procedure3Test, TotalCostWeightsByFrequency) {
  const CubeShape shape = Shape({4, 4});
  auto calc = Procedure3Calculator::Make(shape, CubeOnlySet(shape));
  auto v1 = ElementId::AggregatedView(1, shape);  // cost 16-4 = 12
  auto v3 = ElementId::AggregatedView(3, shape);  // cost 16-1 = 15
  auto pop = FixedPopulation({{*v1, 0.25}, {*v3, 0.75}}, shape);
  EXPECT_DOUBLE_EQ(calc->TotalCost(*pop), 0.25 * 12 + 0.75 * 15);
}

TEST(Procedure3Test, TotalCostInfiniteWhenAnyQueryUnreachable) {
  const CubeShape shape = Shape({4, 4});
  auto p = ElementId::Root(2).Child(0, StepKind::kPartial, shape);
  auto calc = Procedure3Calculator::Make(shape, {*p});
  auto pop = FixedPopulation({{ElementId::Root(2), 1.0}}, shape);
  EXPECT_EQ(calc->TotalCost(*pop), static_cast<double>(kInfiniteCost));
}

TEST(Procedure3Test, RedundantElementsReduceCost) {
  const CubeShape shape = Shape({8, 8});
  auto view = ElementId::AggregatedView(0b01, shape);
  auto pop = FixedPopulation({{*view, 1.0}}, shape);

  auto base = Procedure3Calculator::Make(shape, CubeOnlySet(shape));
  std::vector<ElementId> with_view = CubeOnlySet(shape);
  with_view.push_back(*view);
  auto better = Procedure3Calculator::Make(shape, with_view);
  EXPECT_GT(base->TotalCost(*pop), 0.0);
  EXPECT_DOUBLE_EQ(better->TotalCost(*pop), 0.0);
}

TEST(Procedure3Test, IntermediateAncestorBeatsRoot) {
  // Storing the half-aggregated intermediate makes deeper aggregates
  // cheaper than recomputing from the cube.
  const CubeShape shape = Shape({16});
  auto p2 = ElementId::Intermediate({2}, shape);  // vol 4
  std::vector<ElementId> set = CubeOnlySet(shape);
  set.push_back(*p2);
  auto calc = Procedure3Calculator::Make(shape, set);
  auto p4 = ElementId::Intermediate({4}, shape);  // vol 1
  EXPECT_EQ(calc->Cost(*p4), 3u);  // 4 - 1, not 16 - 1
}

TEST(Procedure3Test, ValidatesSelectedIds) {
  const CubeShape shape = Shape({4});
  EXPECT_FALSE(
      Procedure3Calculator::Make(shape, {ElementId::Root(2)}).ok());
}

}  // namespace
}  // namespace vecube
