/**
 * @file
 * Tests for the SIMD kernel backend and its contract
 * (docs/simd_kernels.md): the scalar kernels are the reference oracle,
 * and every SIMD kernel (ReLU, warp gather/select, the mul+add GEMM
 * tile) only reorders value-safe ops across independent outputs, so
 * it must match the oracle bit for bit. Plus the RunReport provenance
 * rows (simd_isa, per-step variant).
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
#include "api/run_report.h"
#include "cnn/conv_kernels.h"
#include "cnn/model_zoo.h"
#include "simd/simd_kernels.h"
#include "util/rng.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

// --------------------------------------------------------------------
// Bit-exact SIMD kernels vs the scalar oracle

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
                gemm_strip_simd(w.data(), b.data(), panel.data(), c.ld,
                                c.out_c, c.taps, c.n, j0, jn, out.data(),
                                fuse);
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
// Provenance

TEST(Engine, ReportsSimdIsaAndBitExactVariants)
{
    const Network net = build_scaled(alexnet_spec());
    EngineConfig config;
    config.policy = "static:interval=2";
    config.num_threads = 1;
    Engine engine(net, config);
    const RunReport report = engine.run(
        multi_stream_set(/*seed=*/9, /*num_streams=*/2,
                         /*frames_per_stream=*/3));

    EXPECT_TRUE(report.simd_isa == "avx2" ||
                report.simd_isa == "sse2" ||
                report.simd_isa == "neon" ||
                report.simd_isa == "scalar")
        << report.simd_isa;
    EXPECT_EQ(report.simd_isa == "scalar", !simd_supported());

    // Every conv runs the bit-exact GEMM tile: the SIMD one where the
    // CPU supports it, the scalar reference otherwise. FC layers run
    // the scalar chain, and the motion front end reports its
    // bit-exact diff-tile variant the same way.
    bool saw_conv = false, saw_fc = false, saw_motion = false;
    for (const PlanRecord &rec : report.plan) {
        for (const PlanStepInfo &s : rec.steps) {
            if (s.kernel == "im2col_gemm") {
                saw_conv = true;
                EXPECT_EQ(s.variant,
                          simd_supported() ? "simd_exact" : "scalar")
                    << s.layer;
            } else if (s.kernel == "fc") {
                saw_fc = true;
                EXPECT_EQ(s.variant, "scalar") << s.layer;
            }
        }
        if (rec.scope == "motion") {
            saw_motion = true;
            ASSERT_EQ(rec.steps.size(), 1u);
            EXPECT_EQ(rec.steps[0].variant,
                      simd_supported() ? "simd" : "scalar");
        }
    }
    EXPECT_TRUE(saw_conv);
    EXPECT_TRUE(saw_fc);
    EXPECT_TRUE(saw_motion);

    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"simd_isa\""), std::string::npos);
    EXPECT_NE(json.find("\"variant\""), std::string::npos);
}

} // namespace
} // namespace eva2
