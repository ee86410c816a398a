/**
 * @file
 * Unit tests for the CNN engine: layer semantics (including the
 * paper's Figure 4 worked examples), receptive-field algebra
 * (Figure 7's geometry), network plumbing, the model zoo's analytic
 * costs (checked against the numbers the paper quotes), and weight
 * calibration.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "cnn/activation_layer.h"
#include "cnn/conv_layer.h"
#include "cnn/fc_layer.h"
#include "cnn/model_zoo.h"
#include "cnn/pool_layer.h"
#include "cnn/weights.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace eva2 {
namespace {

/** Run one layer through its entry point under a reference context. */
Tensor
run(const Layer &layer, const Tensor &in)
{
    Tensor out(layer.out_shape(in.shape()));
    ForwardCtx ctx;
    ctx.out = &out;
    layer.forward_into(in, ctx);
    return out;
}

/** The 3x3 input image of the paper's Figure 4a. */
Tensor
figure4_image()
{
    Tensor img(1, 3, 3);
    img.at(0, 0, 0) = 1.0f;
    img.at(0, 1, 0) = 1.0f;
    return img;
}

/** The vertical-edge filter of Figure 4 (column of ones). */
ConvLayer
figure4_conv()
{
    ConvLayer conv(1, 1, 3, 1, 1);
    conv.weights()[conv.weight_index(0, 0, 0, 1)] = 1.0f;
    conv.weights()[conv.weight_index(0, 0, 1, 1)] = 1.0f;
    conv.weights()[conv.weight_index(0, 0, 2, 1)] = 1.0f;
    return conv;
}

TEST(ConvLayer, Figure4aReference)
{
    // conv 3x3 s=1 (with pad 1 to keep 3x3 output as in the figure).
    Tensor out = run(figure4_conv(), figure4_image());
    Tensor expect(1, 3, 3);
    expect.at(0, 0, 0) = 2.0f;
    expect.at(0, 1, 0) = 2.0f;
    expect.at(0, 2, 0) = 1.0f;
    EXPECT_TRUE(all_close(out, expect, 1e-6)) << "Figure 4a mismatch";
}

TEST(ConvLayer, Figure4bTranslationCommutes)
{
    // Figure 4b: translating the image right by 2 translates the conv
    // output right by 2.
    ConvLayer conv = figure4_conv();
    Tensor base = run(conv, figure4_image());
    Tensor moved = run(conv, translate(figure4_image(), 0, 2));
    EXPECT_TRUE(all_close(moved, translate(base, 0, 2), 1e-6));
}

TEST(MaxPool, Figure4aReference)
{
    // 2x2 max pool with stride 1 on the conv output of Figure 4a.
    Tensor conv_out = run(figure4_conv(), figure4_image());
    MaxPoolLayer pool(2, 1);
    Tensor out = run(pool, conv_out);
    EXPECT_EQ(out.height(), 2);
    EXPECT_EQ(out.width(), 2);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.0f);
    EXPECT_FLOAT_EQ(out.at(0, 0, 1), 0.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 0), 2.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 1), 0.0f);
}

TEST(MaxPool, ClampedWindowsMatchPerTapLoop)
{
    // The reference visits every tap and skips out-of-bounds ones; the
    // layer clamps each window once. Same taps, same (ky, kx) order,
    // so the result must match bit for bit — including signed zeros
    // (max keeps the first of -0.0/+0.0) and windows that are all
    // padding (pad >= kernel), which yield 0.
    Tensor in(3, 7, 6);
    Rng rng(61);
    for (i64 i = 0; i < in.size(); ++i) {
        in[i] = rng.uniform_f(-1.0f, 1.0f);
    }
    in[0] = -0.0f;
    in[1] = 0.0f;
    for (const i64 kernel : {1, 2, 3}) {
        for (const i64 stride : {1, 2, 3}) {
            for (const i64 pad : {0, 1, 2}) {
                const MaxPoolLayer pool(kernel, stride, pad);
                const Shape os = pool.out_shape(in.shape());
                if (os.h < 1 || os.w < 1) {
                    continue;
                }
                Tensor want(os);
                for (i64 c = 0; c < os.c; ++c) {
                    for (i64 oy = 0; oy < os.h; ++oy) {
                        for (i64 ox = 0; ox < os.w; ++ox) {
                            float best =
                                -std::numeric_limits<float>::infinity();
                            bool any = false;
                            for (i64 ky = 0; ky < kernel; ++ky) {
                                for (i64 kx = 0; kx < kernel; ++kx) {
                                    const i64 y = oy * stride - pad + ky;
                                    const i64 x = ox * stride - pad + kx;
                                    if (y < 0 || y >= in.height() ||
                                        x < 0 || x >= in.width()) {
                                        continue;
                                    }
                                    best = std::max(best, in.at(c, y, x));
                                    any = true;
                                }
                            }
                            want.at(c, oy, ox) = any ? best : 0.0f;
                        }
                    }
                }
                const Tensor got = run(pool, in);
                ASSERT_EQ(got.shape(), os);
                EXPECT_EQ(std::memcmp(got.data().data(),
                                      want.data().data(),
                                      static_cast<size_t>(got.size()) *
                                          sizeof(float)),
                          0)
                    << "k=" << kernel << " s=" << stride << " p=" << pad;
            }
        }
    }
}

TEST(MaxPool, Figure4ePoolingBreaksCommutativity)
{
    // Figure 4e: a 1-pixel translation commutes with the conv layer
    // but NOT with the stride-1 2x2 pooling layer.
    ConvLayer conv = figure4_conv();
    MaxPoolLayer pool(2, 1);
    Tensor img = figure4_image();
    Tensor moved_img = translate(img, 0, 1);

    Tensor conv_base = run(conv, img);
    Tensor conv_moved = run(conv, moved_img);
    EXPECT_TRUE(all_close(conv_moved, translate(conv_base, 0, 1), 1e-6))
        << "conv layer should commute with the 1px translation";

    Tensor pooled_base = run(pool, conv_base);
    Tensor pooled_moved = run(pool, conv_moved);
    EXPECT_FALSE(
        all_close(pooled_moved, translate(pooled_base, 0, 1), 1e-6))
        << "pooling should break exact commutativity (Figure 4e)";
}

TEST(ConvLayer, OutShapeAndMacs)
{
    ConvLayer conv(3, 8, 5, 2, 1);
    Shape out = conv.out_shape(Shape{3, 32, 32});
    EXPECT_EQ(out, (Shape{8, 15, 15}));
    // MACs = outputs * in_c * k * k.
    EXPECT_EQ(conv.macs(Shape{3, 32, 32}), 15 * 15 * 8 * 3 * 5 * 5);
}

TEST(ConvLayer, BiasApplied)
{
    ConvLayer conv(1, 1, 1, 1, 0);
    conv.weights()[0] = 2.0f;
    conv.biases()[0] = 0.5f;
    Tensor in(1, 1, 1);
    in[0] = 3.0f;
    EXPECT_FLOAT_EQ(run(conv, in)[0], 6.5f);
}

TEST(ConvLayer, RejectsWrongChannelCount)
{
    ConvLayer conv(3, 4, 3, 1, 1);
    EXPECT_THROW(conv.out_shape(Shape{2, 8, 8}), ConfigError);
}

TEST(ReluLayer, Elementwise)
{
    ReluLayer relu_layer;
    Tensor in(1, 1, 2);
    in[0] = -2.0f;
    in[1] = 2.0f;
    Tensor out = run(relu_layer, in);
    EXPECT_EQ(out[0], 0.0f);
    EXPECT_EQ(out[1], 2.0f);
}

TEST(LrnLayer, NormalizesAcrossChannels)
{
    LrnLayer lrn;
    Tensor in(3, 1, 1);
    in[0] = 1.0f;
    in[1] = 1.0f;
    in[2] = 1.0f;
    Tensor out = run(lrn, in);
    // All channels identical, so outputs stay equal and < input.
    EXPECT_NEAR(out[0], out[1], 1e-6);
    EXPECT_LT(out[0], 1.0f);
    EXPECT_GT(out[0], 0.5f);
}

TEST(FcLayer, MatrixVectorProduct)
{
    FcLayer fc(3, 2);
    // W = [[1,2,3],[4,5,6]], b = [1, -1].
    for (int i = 0; i < 6; ++i) {
        fc.weights()[static_cast<size_t>(i)] = static_cast<float>(i + 1);
    }
    fc.biases()[0] = 1.0f;
    fc.biases()[1] = -1.0f;
    Tensor in(3, 1, 1);
    in[0] = 1.0f;
    in[1] = 0.0f;
    in[2] = 2.0f;
    Tensor out = run(fc, in);
    EXPECT_FLOAT_EQ(out[0], 1.0f + 1.0f + 6.0f);
    EXPECT_FLOAT_EQ(out[1], -1.0f + 4.0f + 12.0f);
}

TEST(FcLayer, NonSpatial)
{
    FcLayer fc(4, 2);
    EXPECT_FALSE(fc.spatial());
    EXPECT_EQ(fc.macs(Shape{4, 1, 1}), 8);
}

TEST(SoftmaxLayer, NormalizesToOne)
{
    SoftmaxLayer sm;
    Tensor in(3, 1, 1);
    in[0] = 1.0f;
    in[1] = 2.0f;
    in[2] = 3.0f;
    Tensor out = run(sm, in);
    double total = 0.0;
    for (i64 i = 0; i < 3; ++i) {
        total += out[i];
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
    EXPECT_GT(out[2], out[1]);
    EXPECT_GT(out[1], out[0]);
}

TEST(ReceptiveField, SingleLayer)
{
    ReceptiveField rf;
    rf = rf.compose(WindowGeometry{6, 2, 2});
    EXPECT_EQ(rf.size, 6);
    EXPECT_EQ(rf.stride, 2);
    EXPECT_EQ(rf.pad, 2);
    // Figure 7: the first receptive field starts at -2.
    EXPECT_EQ(rf.start(0), -2);
    EXPECT_EQ(rf.start(1), 0);
}

TEST(ReceptiveField, ComposeTwoLayers)
{
    // conv k3 s1 p1 then pool k2 s2 p0.
    ReceptiveField rf;
    rf = rf.compose(WindowGeometry{3, 1, 1});
    rf = rf.compose(WindowGeometry{2, 2, 0});
    EXPECT_EQ(rf.size, 3 + (2 - 1) * 1);
    EXPECT_EQ(rf.stride, 2);
    EXPECT_EQ(rf.pad, 1);
}

TEST(ReceptiveField, Vgg16Conv5_3Geometry)
{
    // The canonical VGG-16 numbers: conv5_3 has a 196x196 receptive
    // field with stride 16.
    ReceptiveField rf;
    int convs_per_stage[5] = {2, 2, 3, 3, 3};
    for (int stage = 0; stage < 5; ++stage) {
        for (int i = 0; i < convs_per_stage[stage]; ++i) {
            rf = rf.compose(WindowGeometry{3, 1, 1});
        }
        if (stage < 4) {
            rf = rf.compose(WindowGeometry{2, 2, 0});
        }
    }
    EXPECT_EQ(rf.size, 196);
    EXPECT_EQ(rf.stride, 16);
}

TEST(Network, ShapesAndTargets)
{
    Network net = build_scaled(fasterm_spec());
    EXPECT_GT(net.num_layers(), 10);
    const i64 late = net.find_layer("relu5");
    ASSERT_GE(late, 0);
    const Shape s = net.shape_at(late);
    EXPECT_GT(s.c, 0);
    EXPECT_GT(s.h, 0);
    const i64 pool1 = net.first_pool_index();
    EXPECT_GT(pool1, 0);
    EXPECT_EQ(net.layer(pool1).kind(), LayerKind::kPool);
}

TEST(Network, PrefixSuffixComposition)
{
    Network net = build_scaled(alexnet_spec());
    Tensor in(net.input_shape());
    Rng rng(2);
    for (i64 i = 0; i < in.size(); ++i) {
        in[i] = rng.uniform_f(0.0f, 1.0f);
    }
    const i64 target = net.find_layer("pool5");
    ASSERT_GE(target, 0);
    Tensor full = net.forward(in);
    Tensor prefix = net.forward_prefix(in, target);
    Tensor composed = net.forward_suffix(prefix, target);
    EXPECT_TRUE(all_close(full, composed, 1e-5));
}

TEST(Network, MacAccountingAdds)
{
    Network net = build_scaled(fasterm_spec());
    const i64 target = net.find_layer("relu5");
    EXPECT_EQ(net.prefix_macs(target) + net.suffix_macs(target),
              net.total_macs());
    EXPECT_GT(net.prefix_macs(target), net.suffix_macs(target));
}

TEST(ModelZoo, AlexNetConvMacsMatchLiterature)
{
    // Grouped AlexNet conv stack is ~0.67 GMAC.
    const auto costs = analyze(alexnet_spec());
    const double gmacs = static_cast<double>(total_conv_macs(costs)) / 1e9;
    EXPECT_NEAR(gmacs, 0.67, 0.08);
}

TEST(ModelZoo, Vgg16ConvMacsMatchLiterature)
{
    // VGG-16 conv stack is ~15.3 GMAC at 224x224.
    const auto costs = analyze(vgg16_spec());
    const double gmacs = static_cast<double>(total_conv_macs(costs)) / 1e9;
    EXPECT_NEAR(gmacs, 15.3, 0.5);
}

TEST(ModelZoo, Faster16PrefixMacsMatchPaperSectionIVA)
{
    // Section IV-A: "For a Faster16 prefix ending at layer conv5_3 on
    // 1000x562 images ... the total is 1.7e11 MACs."
    NetworkSpec spec = faster16_spec();
    const auto costs = analyze_at(spec, Shape{3, 562, 1000});
    i64 prefix = 0;
    for (const LayerCost &c : costs) {
        if (c.kind == LayerKind::kConv) {
            prefix += c.macs;
        }
        if (c.name == "conv5_3") {
            break;
        }
    }
    EXPECT_NEAR(static_cast<double>(prefix), 1.7e11, 0.15e11);
}

TEST(ModelZoo, SpecTargetsExist)
{
    for (const NetworkSpec &spec : paper_network_specs()) {
        bool early = false;
        bool late = false;
        for (const LayerSpec &l : spec.layers) {
            early |= l.name == spec.early_target;
            late |= l.name == spec.late_target;
        }
        EXPECT_TRUE(early) << spec.name;
        EXPECT_TRUE(late) << spec.name;
    }
}

TEST(ModelZoo, DefaultTargetIsSpecLateTarget)
{
    for (const NetworkSpec &spec : paper_network_specs()) {
        Network net = build_scaled(spec);
        EXPECT_EQ(net.default_target_index(),
                  net.find_layer(spec.late_target))
            << spec.name;
        if (spec.task == VisionTask::kDetection) {
            // Faster R-CNN variants have RPN convs and an RoI pool
            // after the feature extractor; the designated target must
            // precede them even though they are mechanically spatial.
            EXPECT_LT(net.default_target_index(),
                      net.last_spatial_index())
                << spec.name;
        } else {
            EXPECT_EQ(net.default_target_index(),
                      net.last_spatial_index())
                << spec.name;
        }
    }
}

TEST(ModelZoo, DefaultTargetFallsBackWhenUnset)
{
    Network net("bare", Shape{1, 16, 16});
    net.add(std::make_unique<ConvLayer>(1, 4, 3, 1, 1));
    net.add(std::make_unique<ReluLayer>());
    EXPECT_EQ(net.default_target_index(), net.last_spatial_index());
    net.set_default_target(0);
    EXPECT_EQ(net.default_target_index(), 0);
    EXPECT_THROW(net.set_default_target(99), ConfigError);
}

TEST(ModelZoo, ScaledBuildRunsForward)
{
    for (const NetworkSpec &spec : paper_network_specs()) {
        ScaledBuildOptions opts;
        Network net = build_scaled(spec, opts);
        Tensor in(net.input_shape());
        Tensor out = net.forward(in);
        EXPECT_GT(out.size(), 0) << spec.name;
    }
}

TEST(ModelZoo, ScaledBuildDeterministic)
{
    Network a = build_scaled(alexnet_spec());
    Network b = build_scaled(alexnet_spec());
    Tensor in(a.input_shape());
    Rng rng(9);
    for (i64 i = 0; i < in.size(); ++i) {
        in[i] = rng.uniform_f(0.0f, 1.0f);
    }
    EXPECT_TRUE(all_close(a.forward(in), b.forward(in), 0.0));
}

TEST(Weights, CalibratedSparsityInTargetRange)
{
    for (const NetworkSpec &spec : paper_network_specs()) {
        Network net = build_scaled(spec);
        const i64 target = net.find_layer(spec.late_target);
        ASSERT_GE(target, 0) << spec.name;
        // Feed a realistic textured input.
        Tensor in(net.input_shape());
        Rng rng(31);
        for (i64 i = 0; i < in.size(); ++i) {
            in[i] = rng.uniform_f(0.0f, 1.0f);
        }
        Tensor act = net.forward_prefix(in, target);
        const double z = zero_fraction(act);
        EXPECT_GT(z, 0.4) << spec.name;
        EXPECT_LT(z, 0.98) << spec.name;
    }
}

TEST(Weights, FirstLayerBankNormalized)
{
    ConvLayer conv(1, 12, 7, 2, 0);
    fill_first_layer_bank(conv);
    // Each filter has near-zero mean (edge-like, not DC-sensitive).
    for (i64 oc = 0; oc < conv.out_channels(); ++oc) {
        double mean = 0.0;
        for (i64 ky = 0; ky < 7; ++ky) {
            for (i64 kx = 0; kx < 7; ++kx) {
                mean += conv.weights()[static_cast<size_t>(
                    conv.weight_index(oc, 0, ky, kx))];
            }
        }
        EXPECT_NEAR(mean, 0.0, 1e-4) << "filter " << oc;
    }
}

/** FNV-1a over the bit patterns of every conv's weights, then biases. */
u64
conv_params_digest(const Network &net)
{
    u64 hash = 1469598103934665603ull;
    auto fold = [&hash](const std::vector<float> &xs) {
        for (const float v : xs) {
            u32 bits;
            std::memcpy(&bits, &v, sizeof(bits));
            for (int b = 0; b < 4; ++b) {
                hash ^= (bits >> (8 * b)) & 0xffu;
                hash *= 1099511628211ull;
            }
        }
    };
    for (i64 i = 0; i < net.num_layers(); ++i) {
        if (net.layer(i).kind() == LayerKind::kConv) {
            const auto &conv = static_cast<const ConvLayer &>(net.layer(i));
            fold(conv.weights());
            fold(conv.biases());
        }
    }
    return hash;
}

TEST(Weights, CalibratedConvParametersArePinned)
{
    // Calibration runs each conv on stimuli and rescales its weights
    // from the measured pre-activations, so any change in how it
    // executes layers shows up here. Every bit-exact conv path must
    // reproduce these constants, with and without SIMD.
    const Network faster16 = build_scaled(faster16_spec());
    EXPECT_EQ(conv_params_digest(faster16), 0xd9f4af60b1ff23a9ull)
        << std::hex << conv_params_digest(faster16);

    ScaledBuildOptions opts;
    opts.input = Shape{1, 80, 80};
    opts.fc_dim = 2048;
    const Network alexnet = build_scaled(alexnet_spec(), opts);
    EXPECT_EQ(conv_params_digest(alexnet), 0x4e2b650c36ce1cd8ull)
        << std::hex << conv_params_digest(alexnet);
}

/** Property: every spec's analyze() matches the scaled network's
 * structural shape sequence (same spatial downsampling pattern). */
class ZooShapes : public ::testing::TestWithParam<int>
{
};

TEST_P(ZooShapes, AnalyticAndBuiltShapesConsistent)
{
    const NetworkSpec spec =
        paper_network_specs()[static_cast<size_t>(GetParam())];
    // Build at the analytic input to compare exactly; force channel
    // scale 1 so channel counts match too. Use a small analytic input
    // to keep this fast.
    Shape probe{1, 96, 96};
    ScaledBuildOptions opts;
    opts.input = probe;
    Network net = build_scaled(spec, opts);
    const auto costs = analyze_at(spec, Shape{1, 96, 96});
    // Compare spatial dims of conv/pool outputs up to the late
    // target (beyond it the scaled build clamps tiny pool windows).
    i64 li = 0;
    for (const LayerCost &c : costs) {
        if (li >= net.num_layers()) {
            break; // scaled build drops the softmax
        }
        if (c.kind == LayerKind::kConv || c.kind == LayerKind::kPool) {
            const Shape got = net.shape_at(li);
            EXPECT_EQ(got.h, c.out.h) << spec.name << " layer " << c.name;
            EXPECT_EQ(got.w, c.out.w) << spec.name << " layer " << c.name;
        }
        ++li;
        if (c.name == spec.late_target) {
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, ZooShapes, ::testing::Values(0, 1, 2));

} // namespace
} // namespace eva2
