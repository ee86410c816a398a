/**
 * @file
 * Seeded fuzz of the integer RFBME contract. On random frames —
 * textured, constant, few-level (many exact ties), saturated past
 * [0, 1] with infinities, and NaN-laced — and on geometries that clip
 * at every border, every implementation must agree bit for bit:
 *
 *  - the scalar and SIMD diff-tile producers at 1, 2 and 4 worker
 *    threads (field, rf_errors, total_error, mean_error, add_ops);
 *  - rfbme_naive, the per-field reference without tile reuse;
 *  - simulate_diff_tile_pipeline, the cycle-level producer/consumer
 *    model (field, rf_errors, total_error).
 *
 * The kernels underneath (the u8 quantizer, the SAD span and the
 * masked tile band) are checked scalar against SIMD directly.
 * Everything is deterministic: fixed seeds, no fuzzing engine.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "flow/rfbme.h"
#include "flow/sad_kernels.h"
#include "hw/diff_tile_sim.h"
#include "runtime/thread_pool.h"
#include "simd/simd_kernels.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace eva2 {
namespace {

enum class FrameKind
{
    kNoise,     ///< Uniform [0, 1].
    kConstant,  ///< One value everywhere.
    kLevels,    ///< Four grey levels: many equal-error offsets.
    kSaturated, ///< Uniform [-0.5, 1.5] with some +-inf.
    kNanLaced,  ///< Uniform [0, 1] with about 1 in 8 NaN.
};

constexpr FrameKind kKinds[] = {FrameKind::kNoise, FrameKind::kConstant,
                                FrameKind::kLevels, FrameKind::kSaturated,
                                FrameKind::kNanLaced};

float
random_pixel(FrameKind kind, Rng &rng)
{
    const float inf = std::numeric_limits<float>::infinity();
    switch (kind) {
      case FrameKind::kNoise:
      case FrameKind::kConstant:
        return rng.uniform_f(0.0f, 1.0f);
      case FrameKind::kLevels:
        return static_cast<float>(rng.uniform_int(0, 3)) / 3.0f;
      case FrameKind::kSaturated:
        if (rng.chance(1.0 / 16.0)) {
            return rng.chance(0.5) ? inf : -inf;
        }
        return rng.uniform_f(-0.5f, 1.5f);
      case FrameKind::kNanLaced:
        return rng.chance(1.0 / 8.0) ? std::nanf("")
                                      : rng.uniform_f(0.0f, 1.0f);
    }
    return 0.0f;
}

Tensor
random_frame(i64 h, i64 w, FrameKind kind, Rng &rng)
{
    Tensor t(1, h, w);
    if (kind == FrameKind::kConstant) {
        t.fill(random_pixel(kind, rng));
        return t;
    }
    for (i64 i = 0; i < t.size(); ++i) {
        t[i] = random_pixel(kind, rng);
    }
    return t;
}

/**
 * A current frame related to the key: shifted by (sy, sx) with the
 * uncovered border redrawn, and one pixel in eight redrawn, so the
 * search has a real minimum to find.
 */
Tensor
moved_frame(const Tensor &key, FrameKind kind, Rng &rng)
{
    const i64 h = key.height();
    const i64 w = key.width();
    const i64 sy = rng.uniform_int(-3, 3);
    const i64 sx = rng.uniform_int(-3, 3);
    Tensor t(1, h, w);
    for (i64 y = 0; y < h; ++y) {
        for (i64 x = 0; x < w; ++x) {
            const i64 ky = y + sy;
            const i64 kx = x + sx;
            const bool inside = ky >= 0 && ky < h && kx >= 0 && kx < w;
            t.at(0, y, x) = inside && !rng.chance(1.0 / 8.0)
                                ? key.at(0, ky, kx)
                                : random_pixel(kind, rng);
        }
    }
    return t;
}

struct Geometry
{
    const char *label;
    i64 h;
    i64 w;
    RfbmeConfig cfg; ///< {rf_size, rf_stride, rf_pad, radius, stride}
};

const Geometry kGeometries[] = {
    {"s1", 12, 17, {3, 1, 1, 3, 1}},
    {"s2_nonsquare", 24, 30, {6, 2, 2, 6, 2}},
    {"s3_scalar_path", 21, 19, {9, 3, 3, 6, 3}},
    {"s4_tall", 36, 20, {12, 4, 4, 8, 4}},
    {"s6_scalar_path", 30, 42, {18, 6, 6, 12, 6}},
    {"s8_wide", 40, 57, {24, 8, 8, 16, 2}},
    {"s16", 64, 48, {48, 16, 16, 16, 8}},
    {"s24_lanes_per_tile", 48, 75, {48, 24, 12, 24, 12}},
    {"s32", 96, 70, {96, 32, 32, 32, 8}},
    {"radius0", 32, 32, {16, 8, 4, 0, 2}},
    {"radius_past_edges", 20, 28, {8, 4, 2, 40, 4}},
    {"search_stride_gt_rf_stride", 32, 40, {8, 2, 2, 12, 6}},
    {"amc_cams_like", 64, 64, {98, 16, 45, 14, 2}},
};

/** Bitwise equality of two doubles (distinguishes -0.0, any NaN). */
bool
same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template <typename A, typename B>
void
expect_same_estimate(const A &a, const B &b, const std::string &what)
{
    ASSERT_EQ(a.field.height(), b.field.height()) << what;
    ASSERT_EQ(a.field.width(), b.field.width()) << what;
    for (i64 y = 0; y < a.field.height(); ++y) {
        for (i64 x = 0; x < a.field.width(); ++x) {
            EXPECT_EQ(a.field.at(y, x), b.field.at(y, x))
                << what << " cell " << y << "," << x;
        }
    }
    ASSERT_EQ(a.rf_errors.size(), b.rf_errors.size()) << what;
    for (size_t i = 0; i < a.rf_errors.size(); ++i) {
        EXPECT_TRUE(same_bits(a.rf_errors[i], b.rf_errors[i]))
            << what << " rf_error " << i << ": " << a.rf_errors[i]
            << " vs " << b.rf_errors[i];
    }
    EXPECT_TRUE(same_bits(a.total_error, b.total_error)) << what;
}

/** Restores the global pool's default size when a test ends. */
struct PoolSizeGuard
{
    ~PoolSizeGuard()
    {
        ThreadPool::set_global_size(ThreadPool::default_num_threads());
    }
};

TEST(RfbmeFuzz, EveryImplementationAgreesBitForBit)
{
    PoolSizeGuard guard;
    i64 pairs = 0;
    for (const Geometry &g : kGeometries) {
        Rng rng(0x5eed0000u + static_cast<u64>(g.h * 131 + g.w));
        for (const FrameKind kind : kKinds) {
            for (i64 rep = 0; rep < 2; ++rep) {
                const Tensor key = random_frame(g.h, g.w, kind, rng);
                // One related pair, one unrelated pair per kind.
                const Tensor cur = rep == 0
                                       ? moved_frame(key, kind, rng)
                                       : random_frame(g.h, g.w, kind, rng);
                const std::string what =
                    std::string(g.label) + " kind " +
                    std::to_string(static_cast<int>(kind)) + " rep " +
                    std::to_string(rep);

                const RfbmeResult naive = rfbme_naive(key, cur, g.cfg);
                const DiffTileSimResult sim =
                    simulate_diff_tile_pipeline(key, cur, g.cfg);
                expect_same_estimate(naive, sim, what + " sim");

                i64 add_ops = -1;
                for (const RfbmeVariant v :
                     {RfbmeVariant::kScalar, RfbmeVariant::kSimd}) {
                    for (const i64 threads : {1, 2, 4}) {
                        ThreadPool::set_global_size(threads);
                        RfbmeConfig cfg = g.cfg;
                        cfg.variant = v;
                        const RfbmeResult r = rfbme(key, cur, cfg);
                        const std::string tag =
                            what + " " + rfbme_variant_name(v) + " x" +
                            std::to_string(threads);
                        expect_same_estimate(naive, r, tag);
                        EXPECT_TRUE(
                            same_bits(naive.mean_error, r.mean_error))
                            << tag;
                        if (add_ops < 0) {
                            add_ops = r.add_ops;
                        }
                        EXPECT_EQ(r.add_ops, add_ops) << tag;
                    }
                }
                ++pairs;
            }
        }
    }
    EXPECT_EQ(pairs, static_cast<i64>(std::size(kGeometries) *
                                      std::size(kKinds) * 2));
}

TEST(RfbmeFuzz, AddOpsCountEveryValidPixelOncePerOffset)
{
    // add_ops keeps the per-pixel account of the tile producer: one
    // add per in-frame pixel of every full tile and offset, plus six
    // per prefix-sum cell and six per live receptive field. Recount
    // it from its definition by brute force.
    for (const Geometry &g : kGeometries) {
        Rng rng(77);
        const Tensor key = random_frame(g.h, g.w, FrameKind::kNoise, rng);
        const RfbmeConfig &c = g.cfg;
        const i64 s = c.rf_stride;
        const i64 tiles_y = g.h / s;
        const i64 tiles_x = g.w / s;
        i64 live = 0;
        for (i64 uy = 0; uy < rfbme_out_size(g.h, c); ++uy) {
            for (i64 ux = 0; ux < rfbme_out_size(g.w, c); ++ux) {
                i64 y0, y1, x0, x1;
                rfbme_tile_range(uy, c, tiles_y, y0, y1);
                rfbme_tile_range(ux, c, tiles_x, x0, x1);
                live += (y0 < y1 && x0 < x1) ? 1 : 0;
            }
        }
        i64 expect = 0;
        const i64 steps = c.search_radius / c.search_stride;
        for (i64 oy = -steps; oy <= steps; ++oy) {
            for (i64 ox = -steps; ox <= steps; ++ox) {
                const i64 dy = oy * c.search_stride;
                const i64 dx = ox * c.search_stride;
                for (i64 y = 0; y < tiles_y * s; ++y) {
                    for (i64 x = 0; x < tiles_x * s; ++x) {
                        expect += (y + dy >= 0 && y + dy < g.h &&
                                   x + dx >= 0 && x + dx < g.w)
                                      ? 1
                                      : 0;
                    }
                }
                expect += 6 * tiles_y * tiles_x + 6 * live;
            }
        }
        EXPECT_EQ(rfbme(key, key, c).add_ops, expect) << g.label;
    }
}

TEST(RfbmeFuzz, PlaneOverloadMatchesTensorKey)
{
    // The compiled frame path hands RFBME the key it quantized when
    // the key was stored; that must be exactly the Tensor-key call.
    Rng rng(91);
    const Geometry &g = kGeometries[6];
    const Tensor key = random_frame(g.h, g.w, FrameKind::kSaturated, rng);
    const Tensor cur = moved_frame(key, FrameKind::kSaturated, rng);
    PixelPlane plane;
    quantize_frame(key, plane);
    RfbmeResult from_plane;
    RfbmeWorkspace ws;
    rfbme_into(plane, cur, g.cfg, from_plane, ws);
    const RfbmeResult from_tensor = rfbme(key, cur, g.cfg);
    expect_same_estimate(from_tensor, from_plane, "plane overload");
    EXPECT_EQ(from_tensor.add_ops, from_plane.add_ops);
}

TEST(RfbmeFuzz, QuantizerScalarAndSimdAgree)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "SIMD kernels unavailable on this machine/build";
    }
    // A dense sweep through [-0.02, 1.02] (every rounding boundary
    // of the 255 scale is crossed many times), the special values,
    // and random lengths/alignments for the vector tails.
    std::vector<float> in;
    for (i64 i = -1300; i <= 66836; ++i) {
        in.push_back(static_cast<float>(i) / 65536.0f);
    }
    for (i64 k = 0; k < 255; ++k) {
        in.push_back((static_cast<float>(k) + 0.5f) / 255.0f);
    }
    const float inf = std::numeric_limits<float>::infinity();
    for (const float v : {std::nanf(""), -std::nanf(""), inf, -inf, -0.0f,
                          std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::lowest()}) {
        in.push_back(v);
    }
    std::vector<u8> a(in.size());
    std::vector<u8> b(in.size());
    quantize_pixels(in.data(), static_cast<i64>(in.size()), a.data());
    quantize_pixels_simd(in.data(), static_cast<i64>(in.size()), b.data());
    EXPECT_EQ(a, b);

    Rng rng(5);
    for (i64 rep = 0; rep < 200; ++rep) {
        const i64 off = rng.uniform_int(0, 7);
        const i64 n = rng.uniform_int(0, 100);
        std::fill(a.begin(), a.end(), 0);
        std::fill(b.begin(), b.end(), 0);
        quantize_pixels(in.data() + off * 997, n, a.data() + off);
        quantize_pixels_simd(in.data() + off * 997, n, b.data() + off);
        ASSERT_EQ(a, b) << "off " << off << " n " << n;
    }
}

TEST(RfbmeFuzz, SadKernelsScalarAndSimdAgree)
{
    if (!simd_supported()) {
        GTEST_SKIP() << "SIMD kernels unavailable on this machine/build";
    }
    Rng rng(17);
    const auto pixels = [&](i64 n) {
        std::vector<u8> px(static_cast<size_t>(n));
        for (u8 &p : px) {
            // Mostly extremes, so |a - b| = 255 lanes are common.
            p = static_cast<u8>(rng.chance(0.3) ? 255 * rng.uniform_int(0, 1)
                                                : rng.uniform_int(0, 255));
        }
        return px;
    };
    for (i64 rep = 0; rep < 300; ++rep) {
        const i64 n = rng.uniform_int(0, 200);
        const std::vector<u8> a = pixels(n);
        const std::vector<u8> b = pixels(n);
        ASSERT_EQ(sad_span_u8(a.data(), b.data(), n),
                  sad_span_u8_simd(a.data(), b.data(), n))
            << "n " << n;
    }
    for (const i64 s : {1, 2, 3, 4, 5, 8, 12, 16, 24, 32, 40}) {
        for (i64 rep = 0; rep < 40; ++rep) {
            const i64 tiles = rng.uniform_int(1, 9);
            const i64 rows = rng.uniform_int(0, 5);
            const i64 readable = ceil_div(tiles * s, 32) * 32;
            const i64 cur_stride = readable + 32 * rng.uniform_int(0, 1);
            const i64 key_stride = readable + rng.uniform_int(0, 40);
            const std::vector<u8> cur = pixels(std::max<i64>(rows, 1) *
                                               cur_stride);
            const std::vector<u8> key = pixels(std::max<i64>(rows, 1) *
                                               key_stride);
            std::vector<u8> mask(static_cast<size_t>(readable));
            for (u8 &m : mask) {
                m = rng.chance(0.8) ? 0xff : 0;
            }
            std::vector<i32> want(static_cast<size_t>(tiles), -1);
            std::vector<i32> got(static_cast<size_t>(tiles), -2);
            sad_tile_band_u8(cur.data(), cur_stride, key.data(), key_stride,
                             mask.data(), rows, tiles, s, want.data());
            sad_tile_band_u8_simd(cur.data(), cur_stride, key.data(),
                                  key_stride, mask.data(), rows, tiles, s,
                                  got.data());
            ASSERT_EQ(want, got) << "s " << s << " tiles " << tiles
                                 << " rows " << rows;
        }
    }
}

} // namespace
} // namespace eva2
