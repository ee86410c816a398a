/**
 * @file
 * Tests for the SIMD kernel backend and its two-tier verification
 * contract (docs/simd_kernels.md):
 *
 *  - tier 1, bit-exact: the scalar kernels stay the reference oracle,
 *    and the lane-parallel SIMD kernels that only reorder value-safe
 *    ops (ReLU, warp gather/select, the mul+add GEMM tile) must match
 *    them bit for bit;
 *  - tier 2, bounded divergence: the fma/tree-reduction kernels
 *    (GEMM register tiles, FC dot) may differ from the scalar chains
 *    only within a small ulp/absolute envelope, and end-task results
 *    (classification argmax) must be unchanged.
 *
 * Plus the ulp-distance helpers the envelope is measured with, the
 * per-shape autotuner (determinism, process-wide caching), the
 * `kernel=tuned` registry spec, zero-steady-state allocation of tuned
 * plans, and the RunReport provenance rows (simd_isa, per-step
 * variant).
 *
 * Every SIMD-dependent case self-skips when simd_supported() is
 * false, so this suite stays green on the EVA2_SIMD=OFF CI leg and on
 * machines without AVX2.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "api/run_report.h"
#include "cnn/conv_kernels.h"
#include "cnn/conv_layer.h"
#include "cnn/execution_plan.h"
#include "cnn/fc_layer.h"
#include "cnn/kernel_tuner.h"
#include "cnn/model_zoo.h"
#include "simd/simd_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

/// Divergence envelope for the bounded-divergence kernels: fma and
/// 4-chain tree reduction reassociate long dot products, so per-tap
/// rounding differences accumulate. 64 ulps is orders of magnitude
/// tighter than any task-level tolerance while leaving room for the
/// longest suffix reductions; the absolute escape covers results near
/// zero, where a single reordered rounding can cross many ulps.
constexpr i64 kMaxUlp = 64;
constexpr double kMaxAbs = 1e-4;

Tensor
random_tensor(const Shape &shape, u64 seed)
{
    Tensor t(shape);
    Rng rng(seed);
    for (i64 i = 0; i < t.size(); ++i) {
        t[i] = rng.uniform_f(-1.0f, 1.0f);
    }
    return t;
}

// --------------------------------------------------------------------
// Ulp-distance helpers (the tier-2 measuring stick)

TEST(UlpDiff, ZerosAndAdjacentValues)
{
    EXPECT_EQ(ulp_diff(0.0f, 0.0f), 0);
    EXPECT_EQ(ulp_diff(0.0f, -0.0f), 0);
    EXPECT_EQ(ulp_diff(1.0f, 1.0f), 0);
    EXPECT_EQ(ulp_diff(1.0f, std::nextafterf(1.0f, 2.0f)), 1);
    EXPECT_EQ(ulp_diff(-1.0f, std::nextafterf(-1.0f, -2.0f)), 1);
    // One step either side of zero: exactly one ulp from +-0.
    const float tiny = std::nextafterf(0.0f, 1.0f);
    EXPECT_EQ(ulp_diff(0.0f, tiny), 1);
    EXPECT_EQ(ulp_diff(-0.0f, -tiny), 1);
    // The mapping is continuous across zero.
    EXPECT_EQ(ulp_diff(-tiny, tiny), 2);
}

TEST(UlpDiff, NonFiniteValues)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const i64 huge = std::numeric_limits<i64>::max();
    EXPECT_EQ(ulp_diff(inf, inf), 0);
    EXPECT_EQ(ulp_diff(-inf, -inf), 0);
    EXPECT_EQ(ulp_diff(inf, -inf), huge);
    EXPECT_EQ(ulp_diff(inf, 1.0f), huge);
    EXPECT_EQ(ulp_diff(nan, nan), huge);
    EXPECT_EQ(ulp_diff(nan, 0.0f), huge);
}

TEST(Divergence, ReportsWorstElement)
{
    Tensor a(1, 1, 4);
    Tensor b(1, 1, 4);
    for (i64 i = 0; i < 4; ++i) {
        a[i] = b[i] = 1.0f + static_cast<float>(i);
    }
    b[2] = std::nextafterf(std::nextafterf(b[2], 10.0f), 10.0f);
    const DivergenceReport rep = divergence(a, b);
    EXPECT_EQ(rep.max_ulp, 2);
    EXPECT_EQ(rep.worst_index, 2);
    EXPECT_GT(rep.max_abs, 0.0);
    EXPECT_EQ(max_ulp_diff(a, b), 2);
}

TEST(WithinTolerance, UlpAndAbsoluteEscapes)
{
    Tensor a(1, 1, 2);
    Tensor b(1, 1, 2);
    a[0] = 1.0f;
    b[0] = std::nextafterf(1.0f, 2.0f);
    a[1] = 1e-30f;
    b[1] = -1e-30f; // Many ulps apart, absolutely negligible.
    // Ulp budget covers element 0, absolute escape covers element 1.
    EXPECT_TRUE(within_tolerance(a, b, 1, 1e-6));
    // Without the absolute escape the near-zero sign flip fails.
    EXPECT_FALSE(within_tolerance(a, b, 1, 0.0));
    // One ulp at 1.0 is ~1.2e-7, inside the absolute escape too.
    EXPECT_TRUE(within_tolerance(a, b, 0, 1e-6));
    EXPECT_FALSE(within_tolerance(a, b, 0, 0.0));
    Tensor c(1, 2, 1);
    EXPECT_FALSE(within_tolerance(a, c, 1 << 30, 1e9));
}

// --------------------------------------------------------------------
// Tier 1: bit-exact SIMD kernels

TEST(SimdKernels, ReluMatchesScalarBitForBit)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    // Sizes straddling the vector width, values including -0.0 and
    // denormals: ReLU is max(x, 0), value-safe lane-parallel.
    for (const i64 n : {1, 7, 8, 9, 64, 1000}) {
        std::vector<float> in(n), out(n);
        Rng rng(41);
        for (i64 i = 0; i < n; ++i) {
            in[i] = rng.uniform_f(-2.0f, 2.0f);
        }
        if (n >= 4) {
            in[0] = -0.0f;
            in[1] = 0.0f;
            in[2] = std::nextafterf(0.0f, -1.0f);
            in[3] = -std::numeric_limits<float>::denorm_min();
        }
        relu_simd(in.data(), out.data(), n);
        for (i64 i = 0; i < n; ++i) {
            const float ref = in[i] > 0.0f ? in[i] : 0.0f;
            EXPECT_EQ(out[i], ref) << "n=" << n << " i=" << i;
        }
    }
}

TEST(SimdKernels, WarpGathersMatchScalarSelectsBitForBit)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    const i64 plane_n = 37;
    std::vector<float> plane(plane_n);
    Rng rng(43);
    for (float &v : plane) {
        v = rng.uniform_f(-3.0f, 3.0f);
    }
    const i64 n = 61; // Not a lane multiple: exercises the tail.
    // Nearest: offset -1 means out of bounds -> exact +0.0f.
    std::vector<i32> off(n);
    for (i64 p = 0; p < n; ++p) {
        off[p] = p % 5 == 0 ? -1 : static_cast<i32>(p % plane_n);
    }
    std::vector<float> out(n, -99.0f);
    warp_apply_nearest_simd(plane.data(), off.data(), n, out.data());
    for (i64 p = 0; p < n; ++p) {
        const float ref = off[p] >= 0 ? plane[off[p]] : 0.0f;
        EXPECT_EQ(out[p], ref) << "p=" << p;
        if (off[p] < 0) {
            // Exactly +0.0, matching at_padded's padding — a
            // multiply-by-0.0 mask would yield -0.0 for negative
            // activations, which is why the kernel bit-selects.
            EXPECT_FALSE(std::signbit(out[p])) << "p=" << p;
        }
    }
    // Bilinear: per-corner offset + select mask (0 / -1), weights in
    // double, same expression tree as the scalar path.
    std::vector<i32> o00(n), o01(n), o10(n), o11(n);
    std::vector<i32> k00(n), k01(n), k10(n), k11(n);
    std::vector<double> wx0(n), wx1(n), wy0(n), wy1(n);
    Rng wrng(47);
    for (i64 p = 0; p < n; ++p) {
        o00[p] = static_cast<i32>(p % plane_n);
        o01[p] = static_cast<i32>((p + 1) % plane_n);
        o10[p] = static_cast<i32>((p + 7) % plane_n);
        o11[p] = static_cast<i32>((p + 11) % plane_n);
        k00[p] = -1;
        k01[p] = p % 3 == 0 ? 0 : -1; // Some corners out of bounds.
        k10[p] = -1;
        k11[p] = p % 4 == 0 ? 0 : -1;
        const double fx = wrng.uniform(0.0, 1.0);
        const double fy = wrng.uniform(0.0, 1.0);
        wx0[p] = 1.0 - fx;
        wx1[p] = fx;
        wy0[p] = 1.0 - fy;
        wy1[p] = fy;
    }
    std::vector<float> bout(n, -99.0f);
    warp_apply_bilinear_simd(plane.data(), o00.data(), o01.data(),
                             o10.data(), o11.data(), k00.data(),
                             k01.data(), k10.data(), k11.data(),
                             wx0.data(), wx1.data(), wy0.data(),
                             wy1.data(), n, bout.data());
    for (i64 p = 0; p < n; ++p) {
        const double v00 = k00[p] ? plane[o00[p]] : 0.0;
        const double v01 = k01[p] ? plane[o01[p]] : 0.0;
        const double v10 = k10[p] ? plane[o10[p]] : 0.0;
        const double v11 = k11[p] ? plane[o11[p]] : 0.0;
        const double top = v00 * wx0[p] + v01 * wx1[p];
        const double bot = v10 * wx0[p] + v11 * wx1[p];
        const float ref =
            static_cast<float>(top * wy0[p] + bot * wy1[p]);
        EXPECT_EQ(bout[p], ref) << "p=" << p;
    }
}

/**
 * One awkward GEMM strip shape for the bit-exact tile race: `n`
 * output columns per row, panel rows `ld` floats apart.
 */
struct StripCase
{
    i64 out_c, taps, n, ld;
};

TEST(SimdKernels, ExactGemmStripMatchesScalarBitForBit)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    const StripCase cases[] = {
        {8, 27, 37, 37},     // n not a multiple of 8 or 16.
        {4, 9, 5, 5},        // n below one vector: all scalar tail.
        {5, 1, 24, 24},      // out_c not a multiple of 4; one tap.
        {7, 1, 3, 3},        // Both, and a one-tap tail.
        {6, 18, 50, 66},     // Panel rows wider than the strip.
        {16, 144, 64, 64},   // conv1_2 of Faster16-128: one W=64 panel.
        {13, 40, 129, 144},  // Everything at once.
    };
    for (const StripCase &c : cases) {
        std::vector<float> w(static_cast<size_t>(c.out_c * c.taps));
        std::vector<float> b(static_cast<size_t>(c.out_c));
        std::vector<float> panel(static_cast<size_t>(c.taps * c.ld));
        Rng rng(67);
        for (float &x : w) {
            x = rng.uniform_f(-1.0f, 1.0f);
        }
        for (float &x : b) {
            x = rng.uniform_f(-1.0f, 1.0f);
        }
        const size_t out_size = static_cast<size_t>(c.out_c * c.n);
        for (const bool fuse : {false, true}) {
            // Whole strip, and a strip starting off a vector boundary.
            for (const i64 j0 : {i64{0}, std::min<i64>(3, c.n - 1)}) {
                const i64 jn = c.n - j0;
                // Panel column j feeds output column j0 + j; columns
                // past jn hold NaN: reading one poisons an output.
                for (i64 k = 0; k < c.taps; ++k) {
                    for (i64 j = 0; j < c.ld; ++j) {
                        panel[static_cast<size_t>(k * c.ld + j)] =
                            j < jn
                                ? rng.uniform_f(-1.0f, 1.0f)
                                : std::numeric_limits<float>::quiet_NaN();
                    }
                }
                std::vector<float> ref(out_size, -7.0f);
                std::vector<float> out(out_size, -7.0f);
                gemm_strip_scalar(w.data(), b.data(), panel.data(), c.ld,
                                  c.out_c, c.taps, c.n, j0, jn,
                                  ref.data(), fuse);
                gemm_strip_simd(GemmVariant::kExact, w.data(), b.data(),
                                panel.data(), c.ld, c.out_c, c.taps, c.n,
                                j0, jn, out.data(), fuse);
                EXPECT_EQ(std::memcmp(ref.data(), out.data(),
                                      out_size * sizeof(float)),
                          0)
                    << "out_c=" << c.out_c << " taps=" << c.taps
                    << " n=" << c.n << " ld=" << c.ld << " j0=" << j0
                    << " fuse=" << fuse;
            }
        }
    }
}

// --------------------------------------------------------------------
// Tier 2: bounded-divergence SIMD kernels vs the scalar oracle

/** Conv geometries spanning the model zoo's shapes. */
struct GemmCase
{
    i64 in_c, out_c, kernel, stride, pad, size;
};

constexpr GemmCase kGemmCases[] = {
    {3, 8, 3, 1, 1, 16},   // Early layer: few channels.
    {16, 32, 3, 1, 1, 12}, // Mid layer.
    {32, 16, 5, 2, 2, 15}, // Large kernel, strided, odd size.
    {24, 12, 1, 1, 0, 9},  // 1x1: taps == in_c, tiny planes.
    {8, 5, 3, 1, 0, 7},    // out_c and n not tile multiples.
};

TEST(SimdKernels, GemmVariantsWithinToleranceOfScalar)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    for (const GemmCase &c : kGemmCases) {
        const ConvGeometry g{c.in_c, c.out_c, c.kernel, c.stride,
                             c.pad};
        ConvLayer conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad);
        Rng rng(53);
        for (float &w : conv.weights()) {
            w = rng.uniform_f(-0.5f, 0.5f);
        }
        for (float &b : conv.biases()) {
            b = rng.uniform_f(-0.5f, 0.5f);
        }
        const Tensor in =
            random_tensor(Shape{c.in_c, c.size, c.size}, 59);
        Tensor ref(conv.out_shape(in.shape()));
        Tensor out(conv.out_shape(in.shape()));
        for (const bool fuse : {false, true}) {
            conv_im2col_gemm(in, g, conv.weights().data(),
                             conv.biases().data(), ref, fuse,
                             GemmVariant::kScalar);
            for (const GemmVariant v : simd_gemm_variants()) {
                conv_im2col_gemm(in, g, conv.weights().data(),
                                 conv.biases().data(), out, fuse, v);
                const DivergenceReport rep = divergence(ref, out);
                EXPECT_TRUE(
                    within_tolerance(ref, out, kMaxUlp, kMaxAbs))
                    << gemm_variant_name(v) << " fuse=" << fuse
                    << " in_c=" << c.in_c << ": max_ulp="
                    << rep.max_ulp << " max_abs=" << rep.max_abs;
            }
        }
    }
}

TEST(SimdKernels, FcDotWithinToleranceOfScalar)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    for (const i64 in_dim : {5, 32, 100, 515}) {
        FcLayer fc(in_dim, 17);
        Rng rng(61);
        for (float &w : fc.weights()) {
            w = rng.uniform_f(-0.5f, 0.5f);
        }
        for (float &b : fc.biases()) {
            b = rng.uniform_f(-0.5f, 0.5f);
        }
        const Tensor in = random_tensor(Shape{in_dim, 1, 1}, 67);
        Tensor ref(fc.out_shape(in.shape()));
        Tensor out(fc.out_shape(in.shape()));
        ForwardCtx ctx;
        ctx.out = &ref;
        fc.forward_into(in, ctx);
        ctx.out = &out;
        ctx.simd_fc = true;
        fc.forward_into(in, ctx);
        EXPECT_TRUE(within_tolerance(ref, out, kMaxUlp, kMaxAbs))
            << "in_dim=" << in_dim
            << " max_ulp=" << max_ulp_diff(ref, out);
    }
}

TEST(SimdKernels, BatchedFcDotWithinToleranceAcrossBatchSizes)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "no SIMD on this machine";
    }
    const i64 in_dim = 130;
    const i64 out_dim = 19;
    FcLayer fc(in_dim, out_dim);
    Rng rng(71);
    for (float &w : fc.weights()) {
        w = rng.uniform_f(-0.5f, 0.5f);
    }
    for (float &b : fc.biases()) {
        b = rng.uniform_f(-0.5f, 0.5f);
    }
    for (const i64 nb : {1, 3, 8, 11}) {
        std::vector<Tensor> ins;
        std::vector<Tensor> refs(nb, Tensor(Shape{out_dim, 1, 1}));
        std::vector<Tensor> outs(nb, Tensor(Shape{out_dim, 1, 1}));
        for (i64 i = 0; i < nb; ++i) {
            ins.push_back(random_tensor(Shape{in_dim, 1, 1},
                                        100 + static_cast<u64>(i)));
        }
        std::vector<const Tensor *> in_ptrs;
        std::vector<Tensor *> ref_ptrs;
        std::vector<Tensor *> out_ptrs;
        for (i64 i = 0; i < nb; ++i) {
            in_ptrs.push_back(&ins[i]);
            ref_ptrs.push_back(&refs[i]);
            out_ptrs.push_back(&outs[i]);
        }
        fc.forward_batched(in_ptrs.data(), nb, ref_ptrs.data(),
                           /*fuse_relu=*/false, /*simd=*/false);
        fc.forward_batched(in_ptrs.data(), nb, out_ptrs.data(),
                           /*fuse_relu=*/false, /*simd=*/true);
        for (i64 i = 0; i < nb; ++i) {
            EXPECT_TRUE(
                within_tolerance(refs[i], outs[i], kMaxUlp, kMaxAbs))
                << "nb=" << nb << " sample " << i;
        }
    }
}

// --------------------------------------------------------------------
// Autotuner

TEST(KernelTuner, ConvPickIsCachedAndDeterministic)
{
    const ConvGeometry g{16, 16, 3, 1, 1};
    const GemmVariant first =
        tune_conv_gemm(g, 14, 14, /*fuse_relu=*/true,
                       /*budget_us=*/2000);
    const i64 contests = KernelTuner::instance().contests();
    const GemmVariant second =
        tune_conv_gemm(g, 14, 14, /*fuse_relu=*/true,
                       /*budget_us=*/2000);
    EXPECT_EQ(first, second);
    // Same shape key -> cache hit, no second contest.
    EXPECT_EQ(KernelTuner::instance().contests(), contests);
    if (!simd_supported()) {
        EXPECT_EQ(first, GemmVariant::kScalar);
    }
}

TEST(KernelTuner, ExactTileReplacesScalarAsTheConvReference)
{
    // Under SIMD the contest's reference is the bit-exact tile, so
    // the slow scalar strip can never win a conv contest.
    const GemmVariant pick =
        tune_conv_gemm(ConvGeometry{12, 20, 3, 1, 1}, 9, 11,
                       /*fuse_relu=*/false, /*budget_us=*/1000);
    if (simd_supported()) {
        EXPECT_NE(pick, GemmVariant::kScalar);
    } else {
        EXPECT_EQ(pick, GemmVariant::kScalar);
    }
}

TEST(KernelTuner, FuseIsPartOfTheTuningKey)
{
    const ConvGeometry g{8, 8, 3, 1, 1};
    tune_conv_gemm(g, 10, 10, /*fuse_relu=*/false, 1000);
    const i64 contests = KernelTuner::instance().contests();
    tune_conv_gemm(g, 10, 10, /*fuse_relu=*/true, 1000);
    if (simd_supported()) {
        // Different epilogue -> different key -> a fresh contest.
        EXPECT_EQ(KernelTuner::instance().contests(), contests + 1);
    }
}

TEST(KernelTuner, FcPickIsCachedAndDeterministic)
{
    const bool first = tune_fc_simd(256, 32, 2000);
    const i64 contests = KernelTuner::instance().contests();
    const bool second = tune_fc_simd(256, 32, 2000);
    EXPECT_EQ(first, second);
    EXPECT_EQ(KernelTuner::instance().contests(), contests);
    if (!simd_supported()) {
        EXPECT_FALSE(first);
    }
}

// --------------------------------------------------------------------
// `kernel=tuned` registry spec

TEST(KernelRegistry, TunedSpecSetsPlanOptions)
{
    KernelRegistry &reg = KernelRegistry::instance();
    PlanOptions plan;
    reg.apply("tuned", plan);
    EXPECT_TRUE(plan.tune);
    EXPECT_EQ(plan.tune_budget_us, 20000);
    reg.apply("tuned:budget_us=5000", plan);
    EXPECT_EQ(plan.tune_budget_us, 5000);
    reg.apply("gemm", plan);
    EXPECT_FALSE(plan.tune);
}

TEST(KernelRegistry, TunedSpecRejectsBadParams)
{
    KernelRegistry &reg = KernelRegistry::instance();
    PlanOptions plan;
    EXPECT_THROW(reg.apply("tuned:bogus=1", plan), ConfigError);
    EXPECT_THROW(reg.apply("tuned:fuse=1", plan), ConfigError);
    EXPECT_THROW(reg.apply("tuned:budget_us=0", plan), ConfigError);
    EXPECT_THROW(reg.apply("tuned:budget_us=-3", plan), ConfigError);
}

// --------------------------------------------------------------------
// Tuned plans: end-to-end tolerance, end-task parity, zero-alloc,
// report rows

TEST(TunedPlan, MatchesGemmPlanWithinToleranceAndAgreesOnArgmax)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), build);

    const ExecutionPlan gemm(net);
    PlanOptions topts;
    topts.tune = true;
    topts.tune_budget_us = 2000;
    const ExecutionPlan tuned(net, topts);

    ScratchArena ga, ta;
    for (u64 seed = 0; seed < 3; ++seed) {
        const Tensor in = random_tensor(net.input_shape(), 80 + seed);
        const Tensor &ref = gemm.run(in, ga);
        const Tensor &out = tuned.run(in, ta);
        const DivergenceReport rep = divergence(ref, out);
        EXPECT_TRUE(within_tolerance(ref, out, kMaxUlp, kMaxAbs))
            << "seed " << seed << ": max_ulp=" << rep.max_ulp
            << " max_abs=" << rep.max_abs;
        // End-task parity: the classification decision is identical.
        i64 ref_arg = 0, out_arg = 0;
        for (i64 i = 1; i < ref.size(); ++i) {
            if (ref[i] > ref[ref_arg]) {
                ref_arg = i;
            }
            if (out[i] > out[out_arg]) {
                out_arg = i;
            }
        }
        EXPECT_EQ(ref_arg, out_arg) << "seed " << seed;
    }
}

TEST(TunedPlan, ReportsChosenVariants)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), build);
    PlanOptions topts;
    topts.tune = true;
    topts.tune_budget_us = 1000;
    const ExecutionPlan tuned(net, topts);
    bool saw_conv = false, saw_fc = false;
    for (const PlanStepInfo &s : tuned.describe()) {
        if (s.kernel == "im2col_gemm") {
            saw_conv = true;
            if (simd_supported()) {
                EXPECT_FALSE(s.variant.empty());
            } else {
                EXPECT_EQ(s.variant, "scalar");
            }
        }
        if (s.kernel == "fc") {
            saw_fc = true;
            EXPECT_TRUE(s.variant == "simd" || s.variant == "scalar");
        }
    }
    EXPECT_TRUE(saw_conv);
    EXPECT_TRUE(saw_fc);
    // The untuned plan runs the bit-exact GEMM tile: the SIMD one
    // where the CPU supports it, the scalar reference otherwise. FC
    // layers keep the scalar chain.
    for (const PlanStepInfo &s : ExecutionPlan(net).describe()) {
        if (s.kernel == "im2col_gemm") {
            EXPECT_EQ(s.variant,
                      simd_supported() ? "simd_exact" : "scalar")
                << s.layer;
        }
        if (s.kernel == "fc") {
            EXPECT_EQ(s.variant, "scalar") << s.layer;
        }
    }
}

TEST(TunedPlan, ReachesAllocationSteadyState)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), build);
    PlanOptions topts;
    topts.tune = true;
    topts.tune_budget_us = 1000;
    const ExecutionPlan plan(net, topts);
    const Tensor in = random_tensor(net.input_shape(), 91);
    ScratchArena arena;
    const Tensor warm = plan.run(in, arena);
    const u64 before = Tensor::buffer_allocations();
    for (int i = 0; i < 5; ++i) {
        const Tensor &out = plan.run(in, arena);
        ASSERT_TRUE(out == warm);
    }
    EXPECT_EQ(Tensor::buffer_allocations() - before, 0u)
        << "tuned plan.run allocated in steady state";
}

TEST(TunedPlan, BatchedRunWithinToleranceOfUnbatchedTuned)
{
    ScaledBuildOptions build;
    build.input = Shape{1, 48, 48};
    const Network net = build_scaled(alexnet_spec(), build);
    PlanOptions topts;
    topts.tune = true;
    topts.tune_budget_us = 1000;
    const ExecutionPlan single(net, topts);
    const BatchedExecutionPlan batched(single, /*max_batch=*/4);

    std::vector<Tensor> ins;
    for (u64 i = 0; i < 4; ++i) {
        ins.push_back(random_tensor(net.input_shape(), 120 + i));
    }
    std::vector<const Tensor *> in_ptrs;
    for (const Tensor &t : ins) {
        in_ptrs.push_back(&t);
    }
    std::vector<const Tensor *> outs(4);
    ScratchArena batch_arena, single_arena;
    batched.run(in_ptrs.data(), 4, outs.data(), batch_arena);
    for (i64 i = 0; i < 4; ++i) {
        const Tensor &ref = single.run(ins[i], single_arena);
        // Both sides run the same tuner-picked kernels on the same
        // per-sample accumulation chains; batching only changes the
        // column-matrix layout, so samples stay bit-identical here —
        // but the contract we pin is the tolerance envelope.
        EXPECT_TRUE(within_tolerance(ref, *outs[i], kMaxUlp, kMaxAbs))
            << "sample " << i;
    }
}

TEST(Engine, TunedKernelRunsAndReportsProvenance)
{
    const Network net = build_scaled(alexnet_spec());
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/9, /*num_streams=*/2,
                         /*frames_per_stream=*/3);

    EngineConfig gemm_cfg;
    gemm_cfg.policy = "static:interval=2";
    gemm_cfg.num_threads = 1;
    EngineConfig tuned_cfg = gemm_cfg;
    tuned_cfg.kernel = "tuned:budget_us=1000";

    Engine gemm_engine(net, gemm_cfg);
    const RunReport gemm_report = gemm_engine.run(streams);
    Engine tuned_engine(net, tuned_cfg);
    const RunReport report = tuned_engine.run(streams);

    EXPECT_TRUE(report.simd_isa == "avx2" ||
                report.simd_isa == "sse2" ||
                report.simd_isa == "neon" ||
                report.simd_isa == "scalar")
        << report.simd_isa;
    EXPECT_EQ(report.simd_isa == "scalar", !simd_supported());
    EXPECT_EQ(report.kernel, "tuned:budget_us=1000");

    // End-task parity with the scalar-kernel engine: same frames,
    // same key-frame schedule, same motion-estimation work. (Digests
    // are not compared: tuned kernels are bounded-divergence, not
    // bit-exact.)
    EXPECT_EQ(report.frames, gemm_report.frames);
    EXPECT_EQ(report.key_frames, gemm_report.key_frames);
    EXPECT_EQ(report.me_add_ops, gemm_report.me_add_ops);

    ASSERT_FALSE(report.plan.empty());
    bool saw_variant = false;
    for (const PlanRecord &rec : report.plan) {
        for (const PlanStepInfo &s : rec.steps) {
            if (!s.variant.empty()) {
                saw_variant = true;
            }
        }
    }
    EXPECT_TRUE(saw_variant);

    // The motion front end reports its diff-tile variant like the
    // CNN steps do. The SIMD producer is bit-exact, so every kernel
    // spec runs it wherever the CPU supports it, with no race; only
    // a CPU without SIMD pins the scalar oracle.
    for (const RunReport *r : {&gemm_report, &report}) {
        bool saw_motion = false;
        for (const PlanRecord &rec : r->plan) {
            if (rec.scope != "motion") {
                continue;
            }
            saw_motion = true;
            ASSERT_EQ(rec.steps.size(), 1u);
            EXPECT_EQ(rec.steps[0].layer, "rfbme");
            EXPECT_EQ(rec.steps[0].kernel.rfind("rfbme_tile/", 0), 0u);
            EXPECT_EQ(rec.steps[0].variant,
                      simd_supported() ? "simd" : "scalar")
                << r->kernel;
        }
        EXPECT_TRUE(saw_motion) << r->kernel;
    }

    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"simd_isa\""), std::string::npos);
    EXPECT_NE(json.find("\"variant\""), std::string::npos);
}

} // namespace
} // namespace eva2
