#include "cube/tensor.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

namespace vecube {
namespace {

TEST(TensorTest, ZerosInitializes) {
  auto t = Tensor::Zeros({2, 3});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 6u);
  for (uint64_t i = 0; i < t->size(); ++i) EXPECT_EQ((*t)[i], 0.0);
}

TEST(TensorTest, NonPowerOfTwoExtentsAllowed) {
  // View element data arrays can have extent 1, 3, etc. along aggregated
  // dimensions; Tensor does not impose the cube's power-of-two rule.
  EXPECT_TRUE(Tensor::Zeros({3, 5}).ok());
  EXPECT_TRUE(Tensor::Zeros({1, 1, 1}).ok());
}

TEST(TensorTest, ZeroExtentRejected) {
  EXPECT_FALSE(Tensor::Zeros({2, 0}).ok());
  EXPECT_FALSE(Tensor::Zeros({}).ok());
}

TEST(TensorTest, FromDataValidatesSize) {
  EXPECT_TRUE(Tensor::FromData({2, 2}, {1, 2, 3, 4}).ok());
  EXPECT_FALSE(Tensor::FromData({2, 2}, {1, 2, 3}).ok());
}

TEST(TensorTest, RowMajorLayout) {
  auto t = Tensor::FromData({2, 3}, {0, 1, 2, 10, 11, 12});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->At({0, 0}), 0.0);
  EXPECT_EQ(t->At({0, 2}), 2.0);
  EXPECT_EQ(t->At({1, 0}), 10.0);
  EXPECT_EQ(t->At({1, 2}), 12.0);
}

TEST(TensorTest, SetAndAt) {
  auto t = Tensor::Zeros({4, 4});
  t->Set({2, 3}, 7.5);
  EXPECT_EQ(t->At({2, 3}), 7.5);
  EXPECT_EQ(t->At({3, 2}), 0.0);
}

TEST(TensorTest, FlatIndexMatchesStrides) {
  auto t = Tensor::Zeros({2, 3, 4});
  EXPECT_EQ(t->FlatIndex({0, 0, 0}), 0u);
  EXPECT_EQ(t->FlatIndex({0, 0, 3}), 3u);
  EXPECT_EQ(t->FlatIndex({0, 1, 0}), 4u);
  EXPECT_EQ(t->FlatIndex({1, 0, 0}), 12u);
  EXPECT_EQ(t->FlatIndex({1, 2, 3}), 23u);
}

TEST(TensorTest, Total) {
  auto t = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t->Total(), 10.0);
}

TEST(TensorTest, ApproxEquals) {
  auto a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  auto b = Tensor::FromData({2, 2}, {1, 2, 3, 4 + 1e-12});
  auto c = Tensor::FromData({2, 2}, {1, 2, 3, 5});
  auto d = Tensor::FromData({4}, {1, 2, 3, 4});
  EXPECT_TRUE(a->ApproxEquals(*b));
  EXPECT_FALSE(a->ApproxEquals(*c));
  EXPECT_FALSE(a->ApproxEquals(*d));  // different shape
}

TEST(TensorTest, ShapeString) {
  auto t = Tensor::Zeros({2, 8});
  EXPECT_EQ(t->ShapeString(), "[2, 8]");
}

TEST(TensorTest, CopyIsDeep) {
  auto t = Tensor::FromData({2}, {1, 2});
  Tensor copy = *t;
  copy[0] = 99;
  EXPECT_EQ((*t)[0], 1.0);
}

TEST(TensorTest, CopyAssignmentIsDeep) {
  auto t = Tensor::FromData({2}, {1, 2});
  Tensor copy;
  copy = *t;
  EXPECT_NE(std::as_const(copy).raw(), std::as_const(*t).raw());
  copy[1] = 99;
  EXPECT_EQ((*t)[1], 2.0);
}

// ---------------------------------------------------------------------------
// Sharing: Share() aliases the payload, and writes detach (copy-on-write).

TEST(TensorTest, ShareAliasesThePayload) {
  auto t = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  ASSERT_TRUE(t.ok());
  const Tensor& original = *t;
  const Tensor shared = original.Share();
  EXPECT_EQ(shared.raw(), original.raw());  // same cells, no copy
  EXPECT_EQ(shared.extents(), original.extents());
  EXPECT_EQ(shared.stride(0), 2u);
  EXPECT_EQ(shared.At({1, 0}), 3.0);
}

TEST(TensorTest, CopyOfASharedTensorIsDeep) {
  auto t = Tensor::FromData({2}, {1, 2});
  const Tensor shared = std::as_const(*t).Share();
  const Tensor copy = shared;  // the copy constructor still copies
  EXPECT_NE(copy.raw(), shared.raw());
  EXPECT_EQ(copy.data(), shared.data());
}

TEST(TensorTest, EachMutableAccessorDetachesASharedPayload) {
  const std::vector<std::function<void(Tensor&)>> writes = {
      [](Tensor& t) { t.data()[0] = 99; },
      [](Tensor& t) { t.raw()[0] = 99; },
      [](Tensor& t) { t[0] = 99; },
      [](Tensor& t) { t.Set({0, 0}, 99); },
  };
  for (size_t w = 0; w < writes.size(); ++w) {
    auto t = Tensor::FromData({2, 2}, {1, 2, 3, 4});
    ASSERT_TRUE(t.ok());
    const Tensor& owner = *t;
    Tensor writer = owner.Share();
    writes[w](writer);
    EXPECT_NE(std::as_const(writer).raw(), owner.raw()) << "accessor " << w;
    EXPECT_EQ(owner[0], 1.0) << "accessor " << w << " wrote through";
    EXPECT_EQ(std::as_const(writer)[0], 99.0) << "accessor " << w;
    EXPECT_EQ(std::as_const(writer)[3], 4.0) << "accessor " << w;
    EXPECT_EQ(writer.extents(), owner.extents()) << "accessor " << w;
  }
}

TEST(TensorTest, SoleOwnerWritesInPlace) {
  auto t = Tensor::FromData({4}, {1, 2, 3, 4});
  ASSERT_TRUE(t.ok());
  const double* cells = std::as_const(*t).raw();
  (*t)[0] = 5;
  t->raw()[1] = 6;
  t->data()[2] = 7;
  t->Set({3}, 8);
  EXPECT_EQ(std::as_const(*t).raw(), cells);
  // Once the other owner is gone, the survivor owns the cells alone again.
  { const Tensor dropped = std::as_const(*t).Share(); }
  (*t)[0] = 9;
  EXPECT_EQ(std::as_const(*t).raw(), cells);
  EXPECT_EQ(t->data(), (TensorBuffer{9, 6, 7, 8}));
}

TEST(TensorTest, MoveHandsOverThePayload) {
  auto t = Tensor::FromData({2}, {1, 2});
  Tensor shared = std::as_const(*t).Share();
  const double* cells = std::as_const(shared).raw();
  Tensor moved(std::move(shared));
  EXPECT_EQ(std::as_const(moved).raw(), cells);
  Tensor assigned;
  assigned = std::move(moved);
  EXPECT_EQ(std::as_const(assigned).raw(), cells);
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.ndim(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(TensorTest, EmptyTensorsShareAndDetachCleanly) {
  const Tensor empty;
  const Tensor shared = empty.Share();
  EXPECT_EQ(shared.size(), 0u);
  Tensor writer = empty.Share();
  writer.data().push_back(1.0);  // detaches onto a private payload
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(Tensor().size(), 0u);
}

}  // namespace
}  // namespace vecube
