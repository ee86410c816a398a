/**
 * @file
 * Tests for the cycle-level microarchitecture simulators: the diff
 * tile producer/consumer pipeline (rolling-sum RFBME, Figure 8) must
 * agree with the functional algorithm, and the warp engine's
 * fixed-point datapath (Figures 9-11) must agree with the float
 * reference to within Q8.8 precision while skipping zeros.
 */
#include <gtest/gtest.h>

#include "core/warp.h"
#include "hw/diff_tile_sim.h"
#include "hw/warp_engine_sim.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "video/synthetic_video.h"

namespace eva2 {
namespace {

Tensor
noise_frame(i64 h, i64 w, u64 seed)
{
    ValueNoise noise(seed, 9.0);
    Tensor t(1, h, w);
    for (i64 y = 0; y < h; ++y) {
        for (i64 x = 0; x < w; ++x) {
            t.at(0, y, x) = static_cast<float>(noise.sample(y, x));
        }
    }
    return t;
}

Tensor
sparse_activation(Shape s, double density, u64 seed)
{
    Tensor t(s);
    Rng rng(seed);
    for (i64 i = 0; i < t.size(); ++i) {
        if (rng.chance(density)) {
            t[i] = static_cast<float>(rng.uniform_int(1, 1500)) / 256.0f;
        }
    }
    return t;
}

/** Parameterized equivalence: hardware pipeline == functional RFBME. */
struct DiffTileCase
{
    i64 h;
    i64 w;
    RfbmeConfig cfg;
    u64 seed;
};

class DiffTileEquivalence : public ::testing::TestWithParam<DiffTileCase>
{
};

TEST_P(DiffTileEquivalence, MatchesFunctionalRfbme)
{
    const DiffTileCase &tc = GetParam();
    Tensor key = noise_frame(tc.h, tc.w, tc.seed);
    Tensor cur = translate(key, -1, 2);
    RfbmeResult sw = rfbme(key, cur, tc.cfg);
    DiffTileSimResult hw = simulate_diff_tile_pipeline(key, cur, tc.cfg);
    ASSERT_EQ(sw.field.height(), hw.field.height());
    ASSERT_EQ(sw.field.width(), hw.field.width());
    // Same u8 pixels, integer sums and tie rule: exact agreement.
    for (i64 y = 0; y < sw.field.height(); ++y) {
        for (i64 x = 0; x < sw.field.width(); ++x) {
            const size_t i =
                static_cast<size_t>(y * sw.field.width() + x);
            EXPECT_EQ(sw.field.at(y, x), hw.field.at(y, x))
                << y << "," << x;
            EXPECT_EQ(sw.rf_errors[i], hw.rf_errors[i]) << y << "," << x;
        }
    }
    EXPECT_EQ(sw.total_error, hw.total_error);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DiffTileEquivalence,
    ::testing::Values(DiffTileCase{48, 48, {16, 8, 0, 8, 4}, 1},
                      DiffTileCase{64, 48, {24, 8, 8, 16, 8}, 2},
                      DiffTileCase{36, 36, {6, 2, 2, 4, 2}, 3},
                      DiffTileCase{64, 64, {32, 16, 16, 16, 8}, 4}));

TEST(DiffTileSim, CyclesAccumulate)
{
    Tensor key = noise_frame(64, 64, 5);
    Tensor cur = translate(key, 1, 1);
    RfbmeConfig cfg{16, 8, 0, 8, 4};
    DiffTileSimResult r = simulate_diff_tile_pipeline(key, cur, cfg);
    EXPECT_GT(r.producer_cycles, 0);
    EXPECT_GT(r.consumer_cycles, 0);
    EXPECT_GT(r.latency_ms(), 0.0);
    // A wider adder tree finishes the producer faster.
    DiffTileSimResult wide =
        simulate_diff_tile_pipeline(key, cur, cfg, 64);
    EXPECT_LT(wide.producer_cycles, r.producer_cycles);
    EXPECT_EQ(wide.consumer_cycles, r.consumer_cycles);
}

TEST(DiffTileSim, ConsumerReusesRollingSums)
{
    // The consumer's cycle count must be far below one-cycle-per-tile
    // -per-receptive-field (the exhaustive alternative).
    Tensor key = noise_frame(96, 96, 6);
    Tensor cur = translate(key, 2, -2);
    RfbmeConfig cfg{48, 16, 16, 16, 8};
    DiffTileSimResult r = simulate_diff_tile_pipeline(key, cur, cfg);
    const i64 offsets = 5 * 5;
    const i64 rfs = rfbme_out_size(96, cfg) * rfbme_out_size(96, cfg);
    const i64 tiles_per_rf = (48 / 16) * (48 / 16);
    const i64 exhaustive = offsets * rfs * tiles_per_rf;
    EXPECT_LT(r.consumer_cycles, exhaustive / 2);
}

TEST(InterpolateQ88, MatchesFloatReference)
{
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const double v00 = rng.uniform(-10.0, 10.0);
        const double v01 = rng.uniform(-10.0, 10.0);
        const double v10 = rng.uniform(-10.0, 10.0);
        const double v11 = rng.uniform(-10.0, 10.0);
        const i32 fu = static_cast<i32>(rng.uniform_int(0, 256));
        const i32 fv = static_cast<i32>(rng.uniform_int(0, 256));
        const double u = fu / 256.0;
        const double v = fv / 256.0;
        const double expect = v00 * (1 - u) * (1 - v) +
                              v01 * (1 - u) * v + v10 * u * (1 - v) +
                              v11 * u * v;
        const i16 got = interpolate_q88(
            static_cast<i16>(Q88::from_double(v00).raw()),
            static_cast<i16>(Q88::from_double(v01).raw()),
            static_cast<i16>(Q88::from_double(v10).raw()),
            static_cast<i16>(Q88::from_double(v11).raw()), fu, fv);
        EXPECT_NEAR(Q88::from_raw(got).to_double(), expect,
                    3.0 * Q88::resolution());
    }
}

TEST(InterpolateQ88, CornersExact)
{
    const i16 a = Q88::from_double(1.5).raw();
    const i16 b = Q88::from_double(-2.25).raw();
    EXPECT_EQ(interpolate_q88(a, 0, 0, 0, 0, 0), a);
    EXPECT_EQ(interpolate_q88(0, a, 0, 0, 0, 256), a);
    EXPECT_EQ(interpolate_q88(0, 0, b, 0, 256, 0), b);
    EXPECT_EQ(interpolate_q88(0, 0, 0, b, 256, 256), b);
}

TEST(WarpEngineSim, MatchesFloatWarpWithinQuantization)
{
    Tensor act = sparse_activation({8, 12, 12}, 0.3, 8);
    RleActivation enc = rle_encode(act);
    // Fractional motion everywhere.
    MotionField field(12, 12);
    Rng rng(9);
    for (i64 y = 0; y < 12; ++y) {
        for (i64 x = 0; x < 12; ++x) {
            field.at(y, x) = Vec2{rng.uniform(-20.0, 20.0),
                                  rng.uniform(-20.0, 20.0)};
        }
    }
    WarpEngineResult hw = simulate_warp_engine(enc, field, 16);
    Tensor sw = warp_activation(rle_decode(enc), field, 16,
                                InterpMode::kBilinear);
    EXPECT_LT(max_abs_diff(hw.output, sw), 0.03);
}

TEST(WarpEngineSim, ZeroFieldRoundTrips)
{
    Tensor act = sparse_activation({4, 10, 10}, 0.25, 10);
    RleActivation enc = rle_encode(act);
    MotionField zero(10, 10);
    WarpEngineResult r = simulate_warp_engine(enc, zero, 16);
    EXPECT_TRUE(all_close(r.output, act, 1e-6));
}

TEST(WarpEngineSim, SparserActivationsRunFaster)
{
    MotionField field = MotionField::uniform(12, 12, Vec2{3.0, -5.0});
    Tensor dense = sparse_activation({8, 12, 12}, 0.9, 11);
    Tensor sparse = sparse_activation({8, 12, 12}, 0.05, 12);
    WarpEngineResult dr = simulate_warp_engine(rle_encode(dense), field, 16);
    WarpEngineResult sr =
        simulate_warp_engine(rle_encode(sparse), field, 16);
    EXPECT_LT(sr.cycles * 2, dr.cycles)
        << "zero skipping must cut cycles on sparse data";
    EXPECT_GT(sr.zero_skips, dr.zero_skips);
}

TEST(WarpEngineSim, CycleAccountingConsistent)
{
    Tensor act = sparse_activation({4, 8, 8}, 0.5, 13);
    MotionField field(8, 8);
    WarpEngineResult r = simulate_warp_engine(rle_encode(act), field, 16);
    EXPECT_EQ(r.interpolations + r.zero_skips,
              act.size());
    EXPECT_GT(r.cycles, r.interpolations);
}

TEST(WarpEngineSim, GridMismatchThrows)
{
    Tensor act = sparse_activation({2, 8, 8}, 0.5, 14);
    MotionField field(7, 8);
    EXPECT_THROW(simulate_warp_engine(rle_encode(act), field, 16),
                 ConfigError);
}

} // namespace
} // namespace eva2
