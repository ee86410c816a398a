/**
 * @file
 * Tests for the AMC core: activation warping, key-frame policies, and
 * the AMC pipeline's bookkeeping and approximation behaviour,
 * including the conv/translation commutativity property the whole
 * technique rests on (Section II-B).
 */
#include <gtest/gtest.h>

#include "cnn/model_zoo.h"
#include "core/amc_pipeline.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

Tensor
random_activation(Shape s, u64 seed, double density = 0.4)
{
    Tensor t(s);
    Rng rng(seed);
    for (i64 i = 0; i < t.size(); ++i) {
        if (rng.chance(density)) {
            t[i] = rng.uniform_f(0.1f, 2.0f);
        }
    }
    return t;
}

TEST(Warp, ZeroFieldIsIdentity)
{
    Tensor act = random_activation({4, 8, 8}, 1);
    MotionField zero(8, 8);
    EXPECT_TRUE(all_close(warp_activation(act, zero, 16), act, 1e-6));
}

TEST(Warp, IntegerCellShiftMatchesTranslate)
{
    Tensor act = random_activation({3, 10, 10}, 2);
    for (i64 cells : {-2, -1, 1, 2}) {
        MotionField f = MotionField::uniform(
            10, 10, Vec2{0.0, static_cast<double>(-16 * cells)});
        Tensor w = warp_activation(act, f, 16, InterpMode::kBilinear);
        EXPECT_TRUE(all_close(w, translate(act, 0, cells), 1e-6))
            << "cells=" << cells;
    }
}

TEST(Warp, NearestEqualsBilinearOnIntegerShifts)
{
    Tensor act = random_activation({2, 6, 6}, 3);
    MotionField f = MotionField::uniform(6, 6, Vec2{-16.0, 16.0});
    Tensor b = warp_activation(act, f, 16, InterpMode::kBilinear);
    Tensor n = warp_activation(act, f, 16, InterpMode::kNearest);
    EXPECT_TRUE(all_close(b, n, 1e-6));
}

TEST(Warp, HalfCellBilinearAverages)
{
    Tensor act(1, 1, 3);
    act.at(0, 0, 0) = 0.0f;
    act.at(0, 0, 1) = 2.0f;
    act.at(0, 0, 2) = 4.0f;
    // Source offset of +0.5 cells in x.
    MotionField f = MotionField::uniform(1, 3, Vec2{0.0, 8.0});
    Tensor w = warp_activation(act, f, 16, InterpMode::kBilinear);
    EXPECT_NEAR(w.at(0, 0, 0), 1.0f, 1e-6);
    EXPECT_NEAR(w.at(0, 0, 1), 3.0f, 1e-6);
}

TEST(Warp, FieldGridMustMatch)
{
    Tensor act = random_activation({1, 4, 4}, 4);
    MotionField f(3, 4);
    EXPECT_THROW(warp_activation(act, f, 16), ConfigError);
}

TEST(Warp, FitFieldCropsAndExtends)
{
    MotionField f(3, 3);
    f.at(2, 2) = Vec2{1.0, 1.0};
    MotionField grown = fit_field(f, 4, 4);
    EXPECT_EQ(grown.height(), 4);
    EXPECT_DOUBLE_EQ(grown.at(3, 3).dy, 1.0);
    MotionField shrunk = fit_field(f, 2, 2);
    EXPECT_EQ(shrunk.height(), 2);
}

TEST(WarpInto, MatchesAllocatingFormsWithoutAllocating)
{
    const Tensor key = random_activation(Shape{3, 12, 12}, 41);
    MotionField field = MotionField::uniform(12, 12, Vec2{3.0, -1.5});
    field.at(4, 7) = Vec2{-2.0, 2.5};

    for (const InterpMode mode :
         {InterpMode::kBilinear, InterpMode::kNearest}) {
        const Tensor expect = warp_activation(key, field, 2, mode);
        Tensor out;
        warp_activation_into(key, field, 2, mode, out);
        EXPECT_TRUE(out == expect);

        // Steady state: re-warping into the same tensor reuses its
        // buffer — the per-predicted-frame guarantee the compiled
        // frame path is pinned to.
        const u64 before = Tensor::buffer_allocations();
        warp_activation_into(key, field, 2, mode, out);
        EXPECT_EQ(Tensor::buffer_allocations() - before, 0u);
        EXPECT_TRUE(out == expect);
    }
}

TEST(WarpInto, FitFieldIntoMatchesAndCopiesEvenWhenSameSize)
{
    MotionField f(3, 3);
    f.at(2, 2) = Vec2{1.0, 1.0};
    MotionField out;
    fit_field_into(f, 4, 4, out);
    EXPECT_DOUBLE_EQ(out.at(3, 3).dy, 1.0);
    fit_field_into(f, 3, 3, out);
    EXPECT_EQ(out.height(), 3);
    EXPECT_DOUBLE_EQ(out.at(2, 2).dx, 1.0);
    EXPECT_DOUBLE_EQ(out.at(0, 0).dx, 0.0);
}

/** Property sweep: warping by any integer-cell uniform field equals
 * plain translation at every receptive-field stride and both
 * interpolation modes. */
class WarpSweep
    : public ::testing::TestWithParam<std::tuple<i64, i64, i64>>
{
};

TEST_P(WarpSweep, UniformIntegerFieldMatchesTranslate)
{
    const auto [stride, cy, cx] = GetParam();
    Tensor act = random_activation({3, 9, 9}, 17);
    MotionField f = MotionField::uniform(
        9, 9,
        Vec2{static_cast<double>(-stride * cy),
             static_cast<double>(-stride * cx)});
    for (InterpMode mode :
         {InterpMode::kBilinear, InterpMode::kNearest}) {
        Tensor warped = warp_activation(act, f, stride, mode);
        EXPECT_TRUE(all_close(warped, translate(act, cy, cx), 1e-6))
            << "stride=" << stride << " cy=" << cy << " cx=" << cx;
    }
}

INSTANTIATE_TEST_SUITE_P(
    StridesAndShifts, WarpSweep,
    ::testing::Values(std::tuple<i64, i64, i64>{8, 1, 0},
                      std::tuple<i64, i64, i64>{8, 0, -2},
                      std::tuple<i64, i64, i64>{16, 2, 2},
                      std::tuple<i64, i64, i64>{16, -1, 3},
                      std::tuple<i64, i64, i64>{32, -2, -2},
                      std::tuple<i64, i64, i64>{1, 3, -3}));

/** Property: fractional warps interpolate between the two nearest
 * integer-cell warps, so their values are bounded by the envelope of
 * neighbouring cells. */
TEST(Warp, FractionalWarpBoundedByNeighbours)
{
    Tensor act = random_activation({2, 8, 8}, 18, 0.8);
    for (double frac : {0.25, 0.5, 0.75}) {
        // Backward source offset +frac cells in x: output(x) samples
        // between act(x) and act(x + 1).
        MotionField f =
            MotionField::uniform(8, 8, Vec2{0.0, 16.0 * frac});
        Tensor warped =
            warp_activation(act, f, 16, InterpMode::kBilinear);
        for (i64 c = 0; c < 2; ++c) {
            for (i64 y = 0; y < 8; ++y) {
                for (i64 x = 0; x + 1 < 8; ++x) {
                    const float lo = std::min(act.at(c, y, x),
                                              act.at(c, y, x + 1));
                    const float hi = std::max(act.at(c, y, x),
                                              act.at(c, y, x + 1));
                    EXPECT_GE(warped.at(c, y, x), lo - 1e-6f);
                    EXPECT_LE(warped.at(c, y, x), hi + 1e-6f);
                }
            }
        }
    }
}

TEST(Policy, StaticRate)
{
    StaticRatePolicy policy(3);
    FrameFeatures f;
    f.frames_since_key = 1;
    EXPECT_FALSE(policy.is_key_frame(f));
    f.frames_since_key = 2;
    EXPECT_FALSE(policy.is_key_frame(f));
    f.frames_since_key = 3;
    EXPECT_TRUE(policy.is_key_frame(f));
}

TEST(Policy, BlockErrorThreshold)
{
    BlockErrorPolicy policy(0.05);
    FrameFeatures f;
    f.frames_since_key = 1;
    f.match_error = 0.01;
    EXPECT_FALSE(policy.is_key_frame(f));
    f.match_error = 0.10;
    EXPECT_TRUE(policy.is_key_frame(f));
}

TEST(Policy, MotionMagnitudeThresholdAndMaxGap)
{
    MotionMagnitudePolicy policy(100.0, 5);
    FrameFeatures f;
    f.frames_since_key = 1;
    f.motion_magnitude = 10.0;
    EXPECT_FALSE(policy.is_key_frame(f));
    f.motion_magnitude = 500.0;
    EXPECT_TRUE(policy.is_key_frame(f));
    f.motion_magnitude = 0.0;
    f.frames_since_key = 5;
    EXPECT_TRUE(policy.is_key_frame(f)) << "max gap must force a key";
}

TEST(Policy, InvalidConfigsThrow)
{
    EXPECT_THROW(StaticRatePolicy(0), ConfigError);
    EXPECT_THROW(BlockErrorPolicy(-1.0), ConfigError);
}

class PipelineTest : public ::testing::Test
{
  protected:
    PipelineTest()
        : spec_(fasterm_spec()),
          net_([this] {
              ScaledBuildOptions opts;
              opts.input = Shape{1, 192, 192};
              return build_scaled(spec_, opts);
          }())
    {
    }

    AmcOptions
    options() const
    {
        AmcOptions opts;
        opts.target_choice = TargetChoice::kExplicit;
        opts.explicit_target = net_.find_layer(spec_.late_target);
        return opts;
    }

    NetworkSpec spec_;
    Network net_;
};

TEST_F(PipelineTest, FirstFrameIsAlwaysKey)
{
    AmcPipeline p(net_, std::make_unique<StaticRatePolicy>(100),
                  options());
    SyntheticVideo video(static_scene(1, 192));
    AmcFrameResult r = p.process(video.render(0).image);
    EXPECT_TRUE(r.is_key);
    EXPECT_EQ(p.stats().key_frames, 1);
}

TEST_F(PipelineTest, StaticPolicyKeyPattern)
{
    AmcPipeline p(net_, std::make_unique<StaticRatePolicy>(3), options());
    SyntheticVideo video(panning_scene(2, 1.0, 192));
    std::vector<bool> keys;
    for (i64 t = 0; t < 7; ++t) {
        keys.push_back(p.process(video.render(t).image).is_key);
    }
    const std::vector<bool> expect{true, false, false, true,
                                   false, false, true};
    EXPECT_EQ(keys, expect);
    EXPECT_EQ(p.stats().frames, 7);
    EXPECT_EQ(p.stats().key_frames, 3);
    EXPECT_NEAR(p.stats().key_fraction(), 3.0 / 7.0, 1e-9);
}

TEST_F(PipelineTest, StaticSceneHasNearPerfectPredictions)
{
    AmcPipeline p(net_, std::make_unique<StaticRatePolicy>(100),
                  options());
    SyntheticVideo video(static_scene(3, 192));
    Tensor key_out = p.run_key(video.render(0).image);
    AmcFrameResult pred = p.run_predicted(video.render(5).image);
    EXPECT_FALSE(pred.is_key);
    // A static scene predicts almost exactly (only Q8.8 storage
    // quantization differs).
    // Near-perfect, not exact: stored activations pass through the
    // Q8.8 RLE codec with near-zero pruning, as in the hardware.
    EXPECT_LT(max_abs_diff(pred.output, key_out), 0.1);
    EXPECT_LT(pred.features.match_error, 0.01);
}

TEST_F(PipelineTest, AdaptivePolicyFiresOnSceneCut)
{
    AmcPipeline p(net_, std::make_unique<BlockErrorPolicy>(0.04),
                  options());
    SceneConfig cfg = static_scene(4, 192);
    cfg.scene_cut_frame = 3;
    SyntheticVideo video(cfg);
    EXPECT_TRUE(p.process(video.render(0).image).is_key);
    EXPECT_FALSE(p.process(video.render(1).image).is_key);
    EXPECT_FALSE(p.process(video.render(2).image).is_key);
    // The cut makes block matching fail; the policy must fall back.
    EXPECT_TRUE(p.process(video.render(3).image).is_key);
}

TEST_F(PipelineTest, MemoizationReturnsStoredActivation)
{
    AmcOptions opts = options();
    opts.motion_mode = MotionMode::kMemoization;
    AmcPipeline p(net_, std::make_unique<StaticRatePolicy>(100), opts);
    SyntheticVideo video(panning_scene(5, 2.0, 192));
    p.run_key(video.render(0).image);
    AmcFrameResult pred = p.run_predicted(video.render(4).image);
    EXPECT_TRUE(
        all_close(pred.target_activation, p.stored_activation(), 0.0));
}

TEST_F(PipelineTest, CompensationTracksMotionBetterThanMemoization)
{
    // On a fast pan, the warped activation must be closer to the true
    // activation than the stale one (the core AMC claim).
    SceneConfig cfg;
    cfg.height = 192;
    cfg.width = 192;
    cfg.seed = 6;
    cfg.pan_vx = 4.0;
    SyntheticVideo video(cfg);
    const i64 target = net_.find_layer(spec_.late_target);
    const Tensor oracle =
        net_.forward_prefix(video.render(4).image, target);

    AmcOptions warp_opts = options();
    AmcPipeline warped(net_, std::make_unique<StaticRatePolicy>(100),
                       warp_opts);
    warped.run_key(video.render(0).image);
    Tensor w = warped.run_predicted(video.render(4).image).target_activation;

    AmcOptions memo_opts = options();
    memo_opts.motion_mode = MotionMode::kMemoization;
    AmcPipeline memo(net_, std::make_unique<StaticRatePolicy>(100),
                     memo_opts);
    memo.run_key(video.render(0).image);
    Tensor m = memo.run_predicted(video.render(4).image).target_activation;

    // Compare on the interior (border cells are boundary-dominated).
    auto interior_err = [&](const Tensor &a) {
        double acc = 0.0;
        i64 n = 0;
        for (i64 c = 0; c < a.channels(); ++c) {
            for (i64 y = 3; y < a.height() - 3; ++y) {
                for (i64 x = 3; x < a.width() - 3; ++x) {
                    acc += std::abs(a.at(c, y, x) - oracle.at(c, y, x));
                    ++n;
                }
            }
        }
        return acc / static_cast<double>(n);
    };
    EXPECT_LT(interior_err(w), interior_err(m));
}

TEST_F(PipelineTest, ResetClearsState)
{
    AmcPipeline p(net_, std::make_unique<StaticRatePolicy>(2), options());
    SyntheticVideo video(static_scene(7, 192));
    p.process(video.render(0).image);
    p.process(video.render(1).image);
    p.reset();
    EXPECT_EQ(p.stats().frames, 0);
    EXPECT_THROW(p.stored_activation(), ConfigError);
    EXPECT_TRUE(p.process(video.render(0).image).is_key);
}

TEST_F(PipelineTest, TargetResolution)
{
    EXPECT_EQ(AmcPipeline::resolve_target(net_, TargetChoice::kEarly, -1),
              net_.first_pool_index());
    // build_scaled designates the spec's late target (relu5, the end
    // of the feature extractor) rather than the mechanical last
    // spatial layer, which for Faster R-CNN sits inside the RPN head.
    EXPECT_EQ(AmcPipeline::resolve_target(net_,
                                          TargetChoice::kLastSpatial, -1),
              net_.default_target_index());
    EXPECT_EQ(net_.default_target_index(),
              net_.find_layer(spec_.late_target));
    EXPECT_LT(net_.default_target_index(), net_.last_spatial_index());
    EXPECT_THROW(
        AmcPipeline::resolve_target(net_, TargetChoice::kExplicit, 9999),
        ConfigError);
}

TEST_F(PipelineTest, StoredActivationCompressed)
{
    AmcPipeline p(net_, std::make_unique<StaticRatePolicy>(2), options());
    SyntheticVideo video(object_scene(8, 2, 1.0, 192));
    p.process(video.render(0).image);
    const Shape act_shape =
        net_.shape_at(net_.find_layer(spec_.late_target));
    const i64 dense_bytes = act_shape.size() * 2;
    // Sparse storage must beat the dense 16-bit baseline. The paper's
    // quantitative claim ("more than 80%" for Faster16, Section III-B)
    // is checked by bench/sparsity_storage; this unit test guards the
    // qualitative property on the shallower FasterM, whose calibrated
    // substitute reaches ~45-50% savings on busy detection scenes.
    EXPECT_LT(p.stored_activation_bytes(), (dense_bytes * 3) / 5);
}

TEST_F(PipelineTest, RejectsWrongFrameShape)
{
    AmcPipeline p(net_, nullptr, options());
    Tensor bad(1, 50, 50);
    EXPECT_THROW(p.process(bad), ConfigError);
}

TEST_F(PipelineTest, PruningShrinksStorageMonotonically)
{
    SyntheticVideo video(object_scene(8, 2, 1.0, 192));
    const Tensor frame = video.render(0).image;
    i64 prev = std::numeric_limits<i64>::max();
    for (const double rel : {0.0, 0.1, 0.3}) {
        AmcOptions opts = options();
        opts.storage_prune_rel = rel;
        AmcPipeline p(net_, std::make_unique<StaticRatePolicy>(2), opts);
        p.process(frame);
        EXPECT_LE(p.stored_activation_bytes(), prev) << "rel=" << rel;
        prev = p.stored_activation_bytes();
    }
}

TEST_F(PipelineTest, PrunedStorageStillPredictsWell)
{
    // Mild pruning must not break prediction: compare the predicted
    // activation against an unpruned, unquantized pipeline on a
    // gentle translation.
    SyntheticVideo video(panning_scene(31, 1.0, 192));
    AmcOptions exact = options();
    exact.quantize_storage = false;
    exact.storage_prune_rel = 0.0;
    AmcOptions pruned = options();

    AmcPipeline a(net_, std::make_unique<StaticRatePolicy>(100), exact);
    AmcPipeline b(net_, std::make_unique<StaticRatePolicy>(100), pruned);
    a.process(video.render(0).image);
    b.process(video.render(0).image);
    const Tensor pa =
        a.run_predicted(video.render(2).image).target_activation;
    const Tensor pb =
        b.run_predicted(video.render(2).image).target_activation;

    double num = 0.0;
    double den = 0.0;
    for (i64 i = 0; i < pa.size(); ++i) {
        num += std::fabs(static_cast<double>(pa[i]) - pb[i]);
        den += std::fabs(static_cast<double>(pa[i]));
    }
    EXPECT_LT(num, 0.2 * den)
        << "pruned prediction diverged from exact storage";
}

/** Property: prefix/suffix split at any spatial layer reproduces the
 * full network output on key frames. */
class SplitPoint : public ::testing::TestWithParam<i64>
{
};

TEST_P(SplitPoint, KeyFrameOutputMatchesFullExecution)
{
    NetworkSpec spec = alexnet_spec();
    Network net = build_scaled(spec);
    const i64 target = GetParam() < net.last_spatial_index()
                           ? GetParam()
                           : net.last_spatial_index();
    AmcOptions opts;
    opts.target_choice = TargetChoice::kExplicit;
    opts.explicit_target = target;
    AmcPipeline p(net, nullptr, opts);
    SyntheticVideo video(classification_scene(10, 3, 0.0, 128));
    const Tensor frame = video.render(0).image;
    const Tensor direct = net.forward(frame);
    const Tensor via_pipeline = p.process(frame).output;
    EXPECT_TRUE(all_close(direct, via_pipeline, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(Targets, SplitPoint,
                         ::testing::Values(0, 3, 7, 11, 15, 99));

} // namespace
} // namespace eva2
