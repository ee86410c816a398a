/**
 * @file
 * Tests for the planned execution engine: ExecutionPlan compilation,
 * scratch-arena reuse, and the im2col/blocked-GEMM conv kernel (its
 * per-strip panel packer included).
 *
 * The central property is *bit-exactness*: the planned paths (the
 * default GEMM tile, fused with ReLU, batched or not, through the
 * pipeline or the Engine) must reproduce the reference
 * Network::forward outputs bit for bit, so every parity assertion
 * here uses exact tensor equality or digests, never tolerances. The
 * second property is *zero steady-state allocation*: once arena slots
 * have grown, planned execution must stop touching the heap.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "api/engine.h"
#include "cnn/activation_layer.h"
#include "cnn/conv_kernels.h"
#include "cnn/conv_layer.h"
#include "cnn/execution_plan.h"
#include "cnn/fc_layer.h"
#include "cnn/model_zoo.h"
#include "cnn/pool_layer.h"
#include "core/amc_pipeline.h"
#include "runtime/stream_executor.h"
#include "runtime/thread_pool.h"
#include "simd/simd_kernels.h"
#include "util/rng.h"
#include "video/scenarios.h"
#include "video/synthetic_video.h"

namespace eva2 {
namespace {

void
fill_random(std::vector<float> &v, Rng &rng, float lo = -1.0f,
            float hi = 1.0f)
{
    for (float &x : v) {
        x = rng.uniform_f(lo, hi);
    }
}

Tensor
random_tensor(Shape shape, u64 seed)
{
    Tensor t(shape);
    Rng rng(seed);
    for (i64 i = 0; i < t.size(); ++i) {
        t[i] = rng.uniform_f(-1.0f, 1.0f);
    }
    return t;
}

/** Restores the global pool's default size when a test ends. */
struct PoolSizeGuard
{
    ~PoolSizeGuard()
    {
        ThreadPool::set_global_size(ThreadPool::default_num_threads());
    }
};

/** A one-conv network with random weights at the given geometry. */
Network
conv_net(Shape input, i64 out_c, i64 kernel, i64 stride, i64 pad,
         u64 seed, bool with_relu = false)
{
    Network net("conv_net", input);
    auto conv = std::make_unique<ConvLayer>(input.c, out_c, kernel,
                                            stride, pad);
    Rng rng(seed);
    fill_random(conv->weights(), rng);
    fill_random(conv->biases(), rng);
    conv->set_name("conv");
    net.add(std::move(conv));
    if (with_relu) {
        auto relu = std::make_unique<ReluLayer>();
        relu->set_name("relu");
        net.add(std::move(relu));
    }
    return net;
}

/** Conv geometries the parity suite sweeps (the CI smoke shapes). */
struct ConvCase
{
    const char *label;
    Shape input;
    i64 out_c, kernel, stride, pad;
};

const ConvCase kConvCases[] = {
    {"padded_3x3", {8, 16, 16}, 12, 3, 1, 1},
    {"strided_5x5", {4, 23, 23}, 8, 5, 2, 2},
    {"odd_rect", {3, 9, 13}, 5, 3, 2, 1},
    {"one_by_one", {16, 12, 12}, 24, 1, 1, 0},
    {"kernel_wider_than_pad", {2, 7, 7}, 4, 7, 1, 3},
};

class ConvParity : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvParity, GemmPlanMatchesSeedBitExactly)
{
    const ConvCase &c = GetParam();
    const Network net =
        conv_net(c.input, c.out_c, c.kernel, c.stride, c.pad, 77);
    const Tensor in = random_tensor(c.input, 99);
    const Tensor seed_out = net.forward(in);

    const Tensor via_gemm = ExecutionPlan(net).forward(in);
    EXPECT_TRUE(seed_out == via_gemm) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParity, ::testing::ValuesIn(kConvCases),
    [](const ::testing::TestParamInfo<ConvCase> &info) {
        return info.param.label;
    });

TEST(ExecutionPlan, FusedConvReluMatchesSeparatePasses)
{
    // The reference runs conv and ReLU as two passes; the plan folds
    // the ReLU into the conv's output write.
    const Network net =
        conv_net({6, 14, 14}, 10, 3, 1, 1, 5, /*with_relu=*/true);
    const Tensor in = random_tensor(net.input_shape(), 6);
    const Tensor seed_out = net.forward(in);

    const ExecutionPlan fused_plan(net);
    EXPECT_EQ(fused_plan.num_steps(), 1); // ReLU step elided.
    EXPECT_TRUE(seed_out == fused_plan.forward(in));
}

TEST(ExecutionPlan, ModelZooNetworkMatchesSeedBitExactly)
{
    // A full heterogeneous stack: conv/relu/lrn/pool prefix plus the
    // FC/softmax suffix, as built by the zoo.
    ScaledBuildOptions opts;
    opts.input = Shape{1, 64, 64};
    const Network net = build_scaled(alexnet_spec(), opts);
    const Tensor in = random_tensor(net.input_shape(), 3);
    const Tensor seed_out = net.forward(in);

    EXPECT_TRUE(seed_out == ExecutionPlan(net).forward(in));
}

TEST(ExecutionPlan, ChainedPrefixSuffixPlansShareOneArena)
{
    ScaledBuildOptions opts;
    opts.input = Shape{1, 64, 64};
    const Network net = build_scaled(alexnet_spec(), opts);
    const i64 target = net.default_target_index();
    const ExecutionPlan prefix(net, 0, target + 1, net.input_shape());
    const ExecutionPlan suffix(net, target + 1, net.num_layers(),
                               prefix.out_shape());

    const Tensor in = random_tensor(net.input_shape(), 21);
    ScratchArena arena;
    // The suffix consumes the prefix's output *in the arena*; the
    // plan must shift its ping-pong parity rather than overwrite its
    // own input.
    const Tensor &mid = prefix.run(in, arena);
    const Tensor out = suffix.run(mid, arena);
    EXPECT_TRUE(net.forward(in) == out);
}

TEST(ExecutionPlan, EmptyRangeReturnsInputUnchanged)
{
    const Network net = conv_net({2, 6, 6}, 3, 3, 1, 1, 11);
    const ExecutionPlan plan(net, 1, 1, net.layer(0).out_shape(
                                            net.input_shape()));
    const Tensor in = random_tensor(plan.in_shape(), 4);
    ScratchArena arena;
    EXPECT_EQ(&plan.run(in, arena), &in);
}

TEST(ExecutionPlan, CompilationRejectsBadInputShape)
{
    const Network net = conv_net({2, 6, 6}, 3, 3, 1, 1, 11);
    EXPECT_THROW(ExecutionPlan(net, 0, 1, Shape{5, 6, 6}),
                 ConfigError);
}

TEST(ExecutionPlan, DescribeReportsKernelSelectionAndFusion)
{
    Network net = conv_net({4, 10, 10}, 6, 3, 1, 1, 9,
                           /*with_relu=*/true);
    net.add(std::make_unique<MaxPoolLayer>(2, 2));

    const ExecutionPlan gemm(net);
    const auto gemm_steps = gemm.describe();
    ASSERT_EQ(gemm_steps.size(), 2u);
    EXPECT_EQ(gemm_steps[0].layer, "conv");
    EXPECT_EQ(gemm_steps[0].kernel, "im2col_gemm");
    EXPECT_TRUE(gemm_steps[0].fused_relu);
    EXPECT_EQ(gemm_steps[1].kernel, "pool");
}

// --------------------------------------------------------------------
// Strip panels: the packer every GEMM variant runs

/**
 * The per-element definition of im2col: tap (ic, ky, kx) of output
 * pixel (oy, ox) reads in[ic][oy*s - p + ky][ox*s - p + kx], or 0 out
 * of bounds. Returns the K x N matrix densely packed.
 */
std::vector<float>
im2col_oracle(const Tensor &in, const ConvGeometry &g, const Shape &os)
{
    const i64 n = os.h * os.w;
    std::vector<float> col(static_cast<size_t>(im2col_rows(g) * n));
    for (i64 ic = 0; ic < g.in_c; ++ic) {
        for (i64 ky = 0; ky < g.kernel; ++ky) {
            for (i64 kx = 0; kx < g.kernel; ++kx) {
                const i64 k = (ic * g.kernel + ky) * g.kernel + kx;
                for (i64 oy = 0; oy < os.h; ++oy) {
                    for (i64 ox = 0; ox < os.w; ++ox) {
                        const i64 y = oy * g.stride - g.pad + ky;
                        const i64 x = ox * g.stride - g.pad + kx;
                        const bool inside = y >= 0 && y < in.height() &&
                                            x >= 0 && x < in.width();
                        col[static_cast<size_t>(k * n + oy * os.w +
                                                ox)] =
                            inside ? in.at(ic, y, x) : 0.0f;
                    }
                }
            }
        }
    }
    return col;
}

/** Every variant this machine can run: the scalar oracle, plus the
 * bit-exact SIMD tile when SIMD is supported. */
std::vector<GemmVariant>
runnable_variants()
{
    std::vector<GemmVariant> vs = {GemmVariant::kScalar};
    if (simd_supported()) {
        vs.push_back(GemmVariant::kExact);
    }
    return vs;
}

/** Input extent whose conv output is `out` wide (at least 1). */
i64
input_extent(i64 out, i64 kernel, i64 stride, i64 pad)
{
    return std::max<i64>(1, (out - 1) * stride + kernel - 2 * pad);
}

/** The strip-panel sweep: geometry and output widths. */
const i64 kPackKernels[] = {1, 3, 5, 11};
const i64 kPackStrides[] = {1, 2, 4};
const i64 kPackPads[] = {0, 1, 2};
const i64 kPackWidths[] = {5, 8, 33, 128};

TEST(Im2colPackStrip, EveryStripMatchesPerElementPacking)
{
    // Every strip (j0, jn) at every variant's strip width, for one
    // sample and for three samples numbered side by side. Output
    // widths 5, 8 and 33 make strips start mid-row and cross several
    // rows (and, batched, sample boundaries); 128 is the cams
    // workloads' plane. Packed bits must equal the definition,
    // signed zeros included (a copy must not canonicalize -0.0).
    std::vector<i64> widths;
    for (const GemmVariant v : runnable_variants()) {
        widths.push_back(conv_strip_width(v));
    }
    std::sort(widths.begin(), widths.end());
    widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
    std::vector<float> panel;
    i64 checked = 0;
    for (const i64 kernel : kPackKernels) {
        for (const i64 stride : kPackStrides) {
            for (const i64 pad : kPackPads) {
                for (const i64 ow : kPackWidths) {
                    const ConvGeometry g{2, 3, kernel, stride, pad};
                    const Shape is{2, input_extent(3, kernel, stride, pad),
                                   input_extent(ow, kernel, stride, pad)};
                    const Shape os{3,
                                   conv_out_size(is.h, kernel, stride, pad),
                                   conv_out_size(is.w, kernel, stride, pad)};
                    const i64 pix = os.h * os.w;
                    const i64 taps = im2col_rows(g);
                    std::vector<Tensor> samples;
                    for (u64 i = 0; i < 3; ++i) {
                        samples.push_back(random_tensor(is, 31 + i));
                        samples.back()[0] = -0.0f;
                    }
                    for (const i64 nb : {1, 3}) {
                        std::vector<const Tensor *> ins;
                        std::vector<std::vector<float>> want;
                        for (i64 i = 0; i < nb; ++i) {
                            ins.push_back(&samples[static_cast<size_t>(i)]);
                            want.push_back(
                                im2col_oracle(*ins.back(), g, os));
                        }
                        const i64 ncols = nb * pix;
                        for (const i64 width : widths) {
                            for (i64 j0 = 0; j0 < ncols; j0 += width) {
                                const i64 jn = std::min(width, ncols - j0);
                                panel.assign(
                                    static_cast<size_t>(taps * jn), 7.0f);
                                im2col_pack_strip(ins.data(), g, os, j0,
                                                  jn, panel.data());
                                for (i64 k = 0; k < taps; ++k) {
                                    for (i64 j = 0; j < jn; ++j) {
                                        const i64 col = j0 + j;
                                        const float expect =
                                            want[static_cast<size_t>(
                                                col / pix)]
                                                [static_cast<size_t>(
                                                    k * pix + col % pix)];
                                        const float got =
                                            panel[static_cast<size_t>(
                                                k * jn + j)];
                                        ASSERT_EQ(std::memcmp(&expect, &got,
                                                              sizeof(float)),
                                                  0)
                                            << "k=" << kernel
                                            << " s=" << stride
                                            << " p=" << pad << " ow=" << ow
                                            << " nb=" << nb
                                            << " W=" << width
                                            << " j0=" << j0 << " tap " << k
                                            << " col " << col;
                                    }
                                }
                                ++checked;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 1000);
}

TEST(Im2colPackStrip, VariantsAndPoolSizesMatchSeedBitExactly)
{
    // The strip sweep's geometries end to end: the scalar oracle, the
    // bit-exact SIMD tile and the plan (batched or not) must equal
    // Network::forward bit for bit at pool sizes 1, 2 and 4.
    PoolSizeGuard guard;
    i64 checked = 0;
    for (const i64 kernel : kPackKernels) {
        for (const i64 stride : kPackStrides) {
            for (const i64 pad : kPackPads) {
                for (const i64 ow : kPackWidths) {
                    const Shape is{3, input_extent(4, kernel, stride, pad),
                                   input_extent(ow, kernel, stride, pad)};
                    const Network net =
                        conv_net(is, 5, kernel, stride, pad, 61,
                                 /*with_relu=*/true);
                    const auto &conv =
                        static_cast<const ConvLayer &>(net.layer(0));
                    const ConvGeometry g{is.c, 5, kernel, stride, pad};
                    const Tensor a = random_tensor(is, 63);
                    const Tensor b = random_tensor(is, 64);
                    const Tensor want_a = net.forward(a);
                    const Tensor want_b = net.forward(b);
                    const ExecutionPlan plan(net);
                    const BatchedExecutionPlan batched(plan, 2);
                    for (const i64 threads : {1, 2, 4}) {
                        ThreadPool::set_global_size(threads);
                        const std::string what =
                            "k=" + std::to_string(kernel) +
                            " s=" + std::to_string(stride) +
                            " p=" + std::to_string(pad) +
                            " ow=" + std::to_string(ow) + " x" +
                            std::to_string(threads);
                        for (const GemmVariant v : runnable_variants()) {
                            Tensor out(want_a.shape());
                            conv_im2col_gemm(a, g, conv.weights().data(),
                                             conv.biases().data(), out,
                                             /*fuse_relu=*/true, v);
                            EXPECT_TRUE(out == want_a)
                                << what << " " << gemm_variant_name(v);
                        }
                        ScratchArena arena;
                        EXPECT_TRUE(plan.run(a, arena) == want_a) << what;
                        const Tensor *ins[] = {&a, &b};
                        const Tensor *outs[2] = {nullptr, nullptr};
                        batched.run(ins, 2, outs, arena);
                        EXPECT_TRUE(*outs[0] == want_a) << what;
                        EXPECT_TRUE(*outs[1] == want_b) << what;
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, 4 * 3 * 3 * 4 * 3);
}

TEST(BatchedExecutionPlan, DefaultVariantMatchesSeedBitExactly)
{
    // Four 16x16 samples number 4 * 256 = 1024 columns side by side:
    // the batched GEMM runs the plan's default variant over strips
    // that cross sample boundaries, and every sample must equal the
    // seed's Network::forward bit for bit.
    const Network net = conv_net({5, 16, 16}, 7, 3, 1, 1, 47,
                                 /*with_relu=*/true);
    const ExecutionPlan single(net);
    const BatchedExecutionPlan batched(single, /*max_batch=*/4);
    std::vector<Tensor> ins;
    for (u64 i = 0; i < 4; ++i) {
        ins.push_back(random_tensor(net.input_shape(), 50 + i));
    }
    for (const i64 nb : {1, 3, 4}) {
        std::vector<const Tensor *> in_ptrs;
        for (i64 i = 0; i < nb; ++i) {
            in_ptrs.push_back(&ins[static_cast<size_t>(i)]);
        }
        std::vector<const Tensor *> outs(static_cast<size_t>(nb));
        ScratchArena arena;
        batched.run(in_ptrs.data(), nb, outs.data(), arena);
        for (i64 i = 0; i < nb; ++i) {
            EXPECT_TRUE(*outs[static_cast<size_t>(i)] ==
                        net.forward(ins[static_cast<size_t>(i)]))
                << "nb=" << nb << " sample " << i;
        }
    }
}

// --------------------------------------------------------------------
// Allocation accounting

TEST(ExecutionPlan, RunIsAllocationFreeAfterWarmup)
{
    ScaledBuildOptions opts;
    opts.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), opts);
    const ExecutionPlan plan(net);
    const Tensor in = random_tensor(net.input_shape(), 8);

    ScratchArena arena;
    Tensor warm = plan.run(in, arena); // Slots grow here.
    const u64 before = Tensor::buffer_allocations();
    for (int i = 0; i < 5; ++i) {
        const Tensor &out = plan.run(in, arena);
        ASSERT_TRUE(out == warm);
    }
    EXPECT_EQ(Tensor::buffer_allocations() - before, 0u)
        << "plan.run allocated in steady state";
}

TEST(ExecutionPlan, Faster16ArenaHoldsOnlyPingPongSlots)
{
    // The cams workloads' network. Conv strips pack into thread-local
    // panels, so the arena holds the two activation ping-pong slots
    // and nothing else (no K x N im2col matrix: conv1_2 alone would
    // be 144 x 16384 floats), and a second run allocates nothing.
    const Network net =
        build_scaled(faster16_spec(), ScaledBuildOptions{});
    const ExecutionPlan plan(net);
    const Tensor in = random_tensor(net.input_shape(), 12);
    u64 largest = 0;
    for (const PlanStepInfo &step : plan.describe()) {
        largest = std::max<u64>(
            largest, static_cast<u64>(step.out.size()) * sizeof(float));
    }
    ScratchArena arena;
    const Tensor first = plan.run(in, arena);
    const u64 before = Tensor::buffer_allocations();
    const Tensor &second = plan.run(in, arena);
    EXPECT_EQ(Tensor::buffer_allocations() - before, 0u)
        << "second run allocated";
    EXPECT_TRUE(second == first);
    EXPECT_EQ(arena.num_slots(), 2);
    EXPECT_LE(arena.bytes_reserved(), 2 * largest);
}

TEST(Network, ReferenceForwardAllocatesOnlyActivations)
{
    // Network::forward allocates the input copy and one output per
    // layer; its conv layers need no packing workspace.
    const Network net =
        build_scaled(faster16_spec(), ScaledBuildOptions{});
    const Tensor in = random_tensor(net.input_shape(), 13);
    const u64 before = Tensor::buffer_allocations();
    const Tensor out = net.forward(in);
    EXPECT_EQ(Tensor::buffer_allocations() - before,
              static_cast<u64>(net.num_layers()) + 1);
}

TEST(AmcPipeline, PredictedFramesReachAllocationSteadyState)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 64, 64};
    const Network net = build_scaled(alexnet_spec(), build);
    AmcPipeline pipeline(net, std::make_unique<StaticRatePolicy>(1000));
    ScratchArena arena;
    pipeline.set_arena(&arena);

    SyntheticVideo video(classification_scene(7, 2, 0.5, 64));
    pipeline.process(video.render(0).image); // Key frame.

    // Warm-up predicted frames, then every further predicted frame
    // must allocate exactly the same (small) number of buffers: the
    // escaping result tensors only, nothing per layer.
    pipeline.run_predicted(video.render(1).image);
    pipeline.run_predicted(video.render(2).image);
    std::vector<u64> deltas;
    u64 last = Tensor::buffer_allocations();
    for (i64 t = 3; t < 7; ++t) {
        pipeline.run_predicted(video.render(t).image);
        const u64 now = Tensor::buffer_allocations();
        deltas.push_back(now - last);
        last = now;
    }
    for (const u64 d : deltas) {
        EXPECT_EQ(d, deltas.front()) << "allocations still growing";
        // Far below one-per-layer: only result marshalling remains.
        EXPECT_LT(d, 6u);
    }
}

// --------------------------------------------------------------------
// Instrumentation and the serving API

class PlanCapture : public AmcObserver
{
  public:
    void on_stage(AmcStage, double) override {}
    void on_plan(const PlanRecord &plan) override
    {
        plans.push_back(plan);
    }

    std::vector<PlanRecord> plans;
};

TEST(AmcPipeline, ObserverReceivesCompiledPlanRecords)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), build);
    AmcPipeline pipeline(net, nullptr);
    PlanCapture capture;
    pipeline.set_observer(&capture);

    ASSERT_EQ(capture.plans.size(), 3u);
    EXPECT_EQ(capture.plans[0].scope, "prefix");
    EXPECT_EQ(capture.plans[1].scope, "suffix");
    EXPECT_EQ(capture.plans[2].scope, "motion");
    bool saw_gemm = false;
    for (const PlanStepInfo &step : capture.plans[0].steps) {
        if (step.kernel == "im2col_gemm") {
            saw_gemm = true;
        }
    }
    EXPECT_TRUE(saw_gemm);
    // The motion record reports the compiled RFBME kernel choice
    // like the CNN steps do.
    ASSERT_EQ(capture.plans[2].steps.size(), 1u);
    const PlanStepInfo &me = capture.plans[2].steps[0];
    EXPECT_EQ(me.layer, "rfbme");
    EXPECT_EQ(me.kernel.rfind("rfbme_tile/", 0), 0u);
    // The bit-exact SIMD tile producer is the default under every
    // kernel spec; scalar only where the CPU lacks SIMD.
    EXPECT_EQ(me.variant, simd_supported() ? "simd" : "scalar");
}

TEST(Engine, RunAndSessionsProduceIdenticalDigests)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 64, 64};
    const Network net = build_scaled(alexnet_spec(), build);
    const std::vector<Sequence> streams =
        multi_stream_set(13, 2, 5, 64);

    EngineConfig serial;
    serial.kernel = "gemm";
    serial.policy = "adaptive_error:th=0.02,max_gap=4";
    serial.num_threads = 1;
    Engine serial_engine(net, serial);
    const RunReport serial_report = serial_engine.run(streams);

    EngineConfig gemm;
    gemm.kernel = "gemm";
    gemm.policy = "adaptive_error:th=0.02,max_gap=4";
    gemm.num_threads = 2;
    Engine gemm_engine(net, gemm);
    // Feed the second engine frame by frame through sessions on two
    // threads: the end-to-end identity covers the whole serving path,
    // not just the kernels.
    for (const Sequence &seq : streams) {
        gemm_engine.session(seq.name).submit_all(seq);
    }
    const RunReport session_report = gemm_engine.report();

    EXPECT_EQ(serial_report.digest, session_report.digest);
    EXPECT_EQ(serial_report.frames, session_report.frames);
    EXPECT_EQ(serial_report.key_frames, session_report.key_frames);
}

TEST(Engine, ReportEchoesKernelSelection)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), build);
    EngineConfig config;
    config.num_threads = 1;
    Engine engine(net, config);
    const RunReport report =
        engine.run(multi_stream_set(3, 1, 2, 48));

    EXPECT_EQ(report.kernel, "gemm");
    ASSERT_EQ(report.plan.size(), 3u);
    bool saw_gemm = false;
    for (const PlanRecord &record : report.plan) {
        EXPECT_TRUE(record.scope == "prefix" ||
                    record.scope == "suffix" ||
                    record.scope == "motion");
        for (const PlanStepInfo &step : record.steps) {
            if (step.kernel == "im2col_gemm") {
                saw_gemm = true;
            }
        }
    }
    EXPECT_TRUE(saw_gemm);
    EXPECT_NE(report.to_json().find("\"kernel\": \"gemm\""),
              std::string::npos);
    EXPECT_NE(report.to_json().find("\"plan\""), std::string::npos);
}

TEST(Engine, KernelSpecsValidateEagerly)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), build);

    EngineConfig typo;
    typo.kernel = "gem";
    EXPECT_THROW(typo.validate(net), ConfigError);
    try {
        typo.validate(net);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        // The error names the one kernel there is.
        EXPECT_NE(std::string(e.what()).find("gemm"),
                  std::string::npos);
    }

    // Parameters, and the removed `direct` and `tuned` kinds and
    // `fuse` and `budget_us` parameters, are rejected before any
    // frame runs.
    for (const char *spec :
         {"gemm:fused=1", "direct", "gemm:fuse=0", "tuned:fuse=1", "tuned",
          "tuned:budget_us=1000", "gemm:budget_us=1"}) {
        EngineConfig bad;
        bad.kernel = spec;
        EXPECT_THROW(bad.validate(net), ConfigError) << spec;
    }
}

} // namespace
} // namespace eva2
