/**
 * @file
 * Unit tests for the tensor library.
 */
#include <gtest/gtest.h>

#include "tensor/scratch_arena.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace eva2 {
namespace {

Tensor
random_tensor(Shape s, u64 seed)
{
    Tensor t(s);
    Rng rng(seed);
    for (i64 i = 0; i < t.size(); ++i) {
        t[i] = rng.uniform_f(-1.0f, 1.0f);
    }
    return t;
}

TEST(Tensor, ShapeAndSize)
{
    Tensor t(3, 4, 5);
    EXPECT_EQ(t.channels(), 3);
    EXPECT_EQ(t.height(), 4);
    EXPECT_EQ(t.width(), 5);
    EXPECT_EQ(t.size(), 60);
    EXPECT_EQ(t.shape().str(), "3x4x5");
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t(2, 3, 3);
    for (i64 i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t[i], 0.0f);
    }
}

TEST(Tensor, ElementAccessRowMajor)
{
    Tensor t(2, 2, 2);
    t.at(1, 0, 1) = 5.0f;
    // CHW layout: index = (c*h + y)*w + x = (1*2+0)*2+1 = 5.
    EXPECT_EQ(t[5], 5.0f);
}

TEST(Tensor, PaddedAccessReturnsZeroOutside)
{
    Tensor t(1, 2, 2);
    t.fill(3.0f);
    EXPECT_EQ(t.at_padded(0, -1, 0), 0.0f);
    EXPECT_EQ(t.at_padded(0, 0, 2), 0.0f);
    EXPECT_EQ(t.at_padded(0, 1, 1), 3.0f);
}

TEST(Tensor, ChannelView)
{
    Tensor t(2, 2, 2);
    t.at(1, 1, 1) = 9.0f;
    auto ch = t.channel(1);
    EXPECT_EQ(ch.size(), 4u);
    EXPECT_EQ(ch[3], 9.0f);
}

TEST(TensorOps, TranslateMovesContent)
{
    Tensor t(1, 3, 3);
    t.at(0, 1, 1) = 1.0f;
    Tensor moved = translate(t, 1, 0);
    EXPECT_EQ(moved.at(0, 2, 1), 1.0f);
    EXPECT_EQ(moved.at(0, 1, 1), 0.0f);
}

TEST(TensorOps, TranslateFillsZeros)
{
    Tensor t(1, 2, 2);
    t.fill(1.0f);
    Tensor moved = translate(t, 0, 1);
    EXPECT_EQ(moved.at(0, 0, 0), 0.0f);
    EXPECT_EQ(moved.at(0, 1, 0), 0.0f);
    EXPECT_EQ(moved.at(0, 0, 1), 1.0f);
}

TEST(TensorOps, TranslateByZeroIsIdentity)
{
    Tensor t = random_tensor({3, 5, 5}, 1);
    EXPECT_TRUE(all_close(translate(t, 0, 0), t, 0.0));
}

TEST(TensorOps, TranslateComposes)
{
    Tensor t = random_tensor({2, 8, 8}, 2);
    Tensor a = translate(translate(t, 1, 0), 0, 2);
    Tensor b = translate(t, 1, 2);
    EXPECT_TRUE(all_close(a, b, 0.0));
}

TEST(TensorOps, AddSubInverse)
{
    Tensor a = random_tensor({2, 4, 4}, 3);
    Tensor b = random_tensor({2, 4, 4}, 4);
    EXPECT_TRUE(all_close(sub(add(a, b), b), a, 1e-6));
}

TEST(TensorOps, ScaleLinear)
{
    Tensor a = random_tensor({1, 4, 4}, 5);
    Tensor twice = scale(a, 2.0f);
    for (i64 i = 0; i < a.size(); ++i) {
        EXPECT_FLOAT_EQ(twice[i], 2.0f * a[i]);
    }
}

TEST(TensorOps, ReluClamps)
{
    Tensor a(1, 1, 3);
    a[0] = -1.0f;
    a[1] = 0.0f;
    a[2] = 2.0f;
    Tensor r = relu(a);
    EXPECT_EQ(r[0], 0.0f);
    EXPECT_EQ(r[1], 0.0f);
    EXPECT_EQ(r[2], 2.0f);
}

TEST(TensorOps, MaxAbsDiff)
{
    Tensor a(1, 1, 2);
    Tensor b(1, 1, 2);
    a[0] = 1.0f;
    b[0] = -1.0f;
    EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 2.0);
}

TEST(TensorOps, ZeroFraction)
{
    Tensor a(1, 2, 2);
    a[0] = 1.0f;
    EXPECT_DOUBLE_EQ(zero_fraction(a), 0.75);
    EXPECT_DOUBLE_EQ(zero_fraction(a, 2.0f), 1.0);
}

TEST(TensorOps, SumMatches)
{
    Tensor a(1, 1, 3);
    a[0] = 1.0f;
    a[1] = 2.0f;
    a[2] = 3.0f;
    EXPECT_DOUBLE_EQ(sum(a), 6.0);
}

TEST(TensorOps, BilinearSampleAtGridPoints)
{
    Tensor t = random_tensor({1, 4, 4}, 6);
    for (i64 y = 0; y < 4; ++y) {
        for (i64 x = 0; x < 4; ++x) {
            EXPECT_NEAR(bilinear_sample(t, 0, y, x), t.at(0, y, x), 1e-6);
        }
    }
}

TEST(TensorOps, BilinearSampleMidpoint)
{
    Tensor t(1, 2, 2);
    t.at(0, 0, 0) = 0.0f;
    t.at(0, 0, 1) = 1.0f;
    t.at(0, 1, 0) = 2.0f;
    t.at(0, 1, 1) = 3.0f;
    EXPECT_NEAR(bilinear_sample(t, 0, 0.5, 0.5), 1.5f, 1e-6);
    EXPECT_NEAR(bilinear_sample(t, 0, 0.0, 0.5), 0.5f, 1e-6);
}

TEST(TensorOps, BilinearSampleOutsideIsZeroPadded)
{
    Tensor t(1, 2, 2);
    t.fill(4.0f);
    // Half a cell outside: averages with zero padding.
    EXPECT_NEAR(bilinear_sample(t, 0, -0.5, 0.0), 2.0f, 1e-6);
    EXPECT_NEAR(bilinear_sample(t, 0, -2.0, 0.0), 0.0f, 1e-6);
}

TEST(TensorOps, ShapeMismatchThrows)
{
    Tensor a(1, 2, 2);
    Tensor b(1, 2, 3);
    EXPECT_THROW(add(a, b), ConfigError);
    EXPECT_THROW(max_abs_diff(a, b), ConfigError);
}

/** Property: translation preserves total mass for interior content. */
class TranslateProperty : public ::testing::TestWithParam<std::pair<i64, i64>>
{
};

TEST_P(TranslateProperty, InteriorContentPreserved)
{
    auto [dy, dx] = GetParam();
    Tensor t(1, 16, 16);
    // Content only in the middle so translation never clips it.
    t.at(0, 7, 7) = 2.0f;
    t.at(0, 8, 8) = 3.0f;
    Tensor moved = translate(t, dy, dx);
    EXPECT_NEAR(sum(moved), sum(t), 1e-6);
    EXPECT_EQ(moved.at(0, 7 + dy, 7 + dx), 2.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Offsets, TranslateProperty,
    ::testing::Values(std::pair<i64, i64>{0, 0}, std::pair<i64, i64>{1, 0},
                      std::pair<i64, i64>{0, 1}, std::pair<i64, i64>{-2, 3},
                      std::pair<i64, i64>{4, -4},
                      std::pair<i64, i64>{-5, -5}));

TEST(Tensor, ReshapeToChangesShapeAndKeepsCapacity)
{
    Tensor t(Shape{4, 8, 8});
    const u64 before = Tensor::buffer_allocations();
    // Shrinking and re-growing within the original footprint must
    // not touch the heap: this is what scratch-arena slot reuse
    // rests on.
    t.reshape_to(Shape{2, 3, 5});
    EXPECT_EQ(t.shape(), (Shape{2, 3, 5}));
    EXPECT_EQ(t.size(), 30);
    t.reshape_to(Shape{4, 8, 8});
    EXPECT_EQ(t.size(), 4 * 8 * 8);
    EXPECT_EQ(Tensor::buffer_allocations() - before, 0u);

    // Growing past the original footprint allocates (once).
    t.reshape_to(Shape{8, 8, 8});
    EXPECT_GE(Tensor::buffer_allocations() - before, 1u);
    EXPECT_EQ(t.size(), 8 * 8 * 8);
    EXPECT_EQ(t.capacity(), 8 * 8 * 8);
}

TEST(ScratchArena, BytesReservedCountsRetainedCapacity)
{
    ScratchArena arena;
    arena.slot(0, Shape{4, 16, 16});
    arena.slot(1, Shape{1, 2, 2});
    // Slot 0 shrinks but keeps its 4x16x16 buffer, and the arena
    // reports what it holds, not what the current shapes use.
    arena.slot(0, Shape{1, 3, 3});
    EXPECT_EQ(arena.bytes_reserved(), (4 * 16 * 16 + 4) * sizeof(float));
    arena.release_slots();
    EXPECT_EQ(arena.num_slots(), 2);
    EXPECT_EQ(arena.bytes_reserved(), 0u);
}

TEST(Tensor, ReshapeToRejectsNegativeDimensions)
{
    Tensor t(Shape{1, 2, 2});
    EXPECT_THROW(t.reshape_to(Shape{-1, 2, 2}), ConfigError);
}

TEST(Tensor, BufferAllocationCounterIsMonotonic)
{
    const u64 before = Tensor::buffer_allocations();
    Tensor a(Shape{2, 2, 2});
    Tensor b = a; // Copies allocate too.
    (void)b;
    EXPECT_GE(Tensor::buffer_allocations() - before, 2u);
}

#ifndef NDEBUG
TEST(Tensor, DebugBoundsCheckCatchesOutOfRangeAccess)
{
    // Active in Debug builds (the Debug half of the CI matrix);
    // compiled out in Release, where the hot loops pay nothing.
    Tensor t(Shape{2, 3, 4});
    EXPECT_THROW(t.at(2, 0, 0), InternalError);
    EXPECT_THROW(t.at(0, 3, 0), InternalError);
    EXPECT_THROW(t.at(0, 0, 4), InternalError);
    EXPECT_THROW(t.at(-1, 0, 0), InternalError);
    const Tensor &ct = t;
    EXPECT_THROW(ct.at(0, -1, 0), InternalError);
    EXPECT_NO_THROW(ct.at(1, 2, 3));
    // at_padded still zero-extends spatially.
    EXPECT_EQ(ct.at_padded(0, -1, 0), 0.0f);
}
#endif

} // namespace
} // namespace eva2
