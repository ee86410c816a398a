#include "core/warp.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "simd/simd_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/fixed_point.h"

namespace eva2 {

namespace {

/**
 * Per-pixel warp coefficients, precomputed once per call and applied
 * to every channel. The source coordinate depends only on (y, x), so
 * hoisting the floor/fraction/bounds work out of the channel loop is
 * a pure win — the original code recomputed it c_count times — and it
 * is what lets the per-channel apply loop vectorize: the SIMD kernels
 * consume these arrays directly. thread_local so concurrent warps
 * (pipelined frames, parallel streams) never share; plain vectors, so
 * the Tensor buffer-allocation counter (the zero-alloc tests' probe)
 * is untouched, and capacity persists across calls.
 */
struct WarpWorkspace
{
    // Bilinear: four corner offsets, their validity masks (0 / -1:
    // *select* masks, not multiplicands — see warp_apply_bilinear_simd
    // on why multiplying by 0.0 would not be bit-exact), and the
    // interpolation weights.
    std::vector<i32> o00, o01, o10, o11;
    std::vector<i32> k00, k01, k10, k11;
    std::vector<double> wx0, wx1, wy0, wy1;
    // Nearest: source offset, -1 when out of bounds.
    std::vector<i32> off;
    // RLE expansion buffer: one channel's decoded plane at a time,
    // reused across channels, frames, and sessions on this thread.
    std::vector<float> plane;
};

WarpWorkspace &
workspace()
{
    thread_local WarpWorkspace ws;
    return ws;
}

/**
 * Scalar bilinear apply over one plane: the exact expression tree of
 * bilinear_sample (and of warp_apply_bilinear_simd), for builds and
 * machines where the SIMD kernels may not run.
 */
void
apply_bilinear_scalar(const float *plane, const WarpWorkspace &ws,
                      i64 n, float *out)
{
    for (i64 p = 0; p < n; ++p) {
        const double v00 =
            ws.k00[p] ? static_cast<double>(plane[ws.o00[p]]) : 0.0;
        const double v01 =
            ws.k01[p] ? static_cast<double>(plane[ws.o01[p]]) : 0.0;
        const double v10 =
            ws.k10[p] ? static_cast<double>(plane[ws.o10[p]]) : 0.0;
        const double v11 =
            ws.k11[p] ? static_cast<double>(plane[ws.o11[p]]) : 0.0;
        const double top = v00 * ws.wx0[p] + v01 * ws.wx1[p];
        const double bot = v10 * ws.wx0[p] + v11 * ws.wx1[p];
        out[p] =
            static_cast<float>(top * ws.wy0[p] + bot * ws.wy1[p]);
    }
}

void
apply_nearest_scalar(const float *plane, const WarpWorkspace &ws,
                     i64 n, float *out)
{
    for (i64 p = 0; p < n; ++p) {
        out[p] = ws.off[static_cast<size_t>(p)] >= 0
                     ? plane[ws.off[static_cast<size_t>(p)]]
                     : 0.0f;
    }
}

void
apply_bilinear(const float *plane, const WarpWorkspace &ws, i64 n,
               float *out, bool simd)
{
    if (simd) {
        warp_apply_bilinear_simd(
            plane, ws.o00.data(), ws.o01.data(), ws.o10.data(),
            ws.o11.data(), ws.k00.data(), ws.k01.data(), ws.k10.data(),
            ws.k11.data(), ws.wx0.data(), ws.wx1.data(), ws.wy0.data(),
            ws.wy1.data(), n, out);
    } else {
        apply_bilinear_scalar(plane, ws, n, out);
    }
}

void
apply_nearest(const float *plane, const WarpWorkspace &ws, i64 n,
              float *out, bool simd)
{
    if (simd) {
        warp_apply_nearest_simd(plane, ws.off.data(), n, out);
    } else {
        apply_nearest_scalar(plane, ws, n, out);
    }
}

/** Fill ws.off for an (h, w) grid; hoisted out of the channel loop. */
void
build_nearest_coeffs(const MotionField &field, i64 h, i64 w,
                     double inv_stride, WarpWorkspace &ws)
{
    const i64 n = h * w;
    ws.off.resize(static_cast<size_t>(n));
    for (i64 y = 0; y < h; ++y) {
        for (i64 x = 0; x < w; ++x) {
            const Vec2 v = field.at(y, x);
            const i64 ny = static_cast<i64>(std::lround(
                static_cast<double>(y) + v.dy * inv_stride));
            const i64 nx = static_cast<i64>(std::lround(
                static_cast<double>(x) + v.dx * inv_stride));
            const bool inb = ny >= 0 && ny < h && nx >= 0 && nx < w;
            ws.off[static_cast<size_t>(y * w + x)] =
                inb ? static_cast<i32>(ny * w + nx) : -1;
        }
    }
}

/** Fill the bilinear corner/weight arrays for an (h, w) grid. */
void
build_bilinear_coeffs(const MotionField &field, i64 h, i64 w,
                      double inv_stride, WarpWorkspace &ws)
{
    const i64 n = h * w;
    const auto grow = [n](auto &v) {
        v.resize(static_cast<size_t>(n));
    };
    grow(ws.o00), grow(ws.o01), grow(ws.o10), grow(ws.o11);
    grow(ws.k00), grow(ws.k01), grow(ws.k10), grow(ws.k11);
    grow(ws.wx0), grow(ws.wx1), grow(ws.wy0), grow(ws.wy1);
    for (i64 y = 0; y < h; ++y) {
        for (i64 x = 0; x < w; ++x) {
            const Vec2 v = field.at(y, x);
            const double sy =
                static_cast<double>(y) + v.dy * inv_stride;
            const double sx =
                static_cast<double>(x) + v.dx * inv_stride;
            const i64 y0 = static_cast<i64>(std::floor(sy));
            const i64 x0 = static_cast<i64>(std::floor(sx));
            const double fy = sy - static_cast<double>(y0);
            const double fx = sx - static_cast<double>(x0);
            const size_t p = static_cast<size_t>(y * w + x);
            ws.wx0[p] = 1.0 - fx;
            ws.wx1[p] = fx;
            ws.wy0[p] = 1.0 - fy;
            ws.wy1[p] = fy;
            const auto corner = [&](i64 cy, i64 cx, std::vector<i32> &o,
                                    std::vector<i32> &k) {
                const bool inb =
                    cy >= 0 && cy < h && cx >= 0 && cx < w;
                o[p] = inb ? static_cast<i32>(cy * w + cx) : 0;
                k[p] = inb ? -1 : 0;
            };
            corner(y0, x0, ws.o00, ws.k00);
            corner(y0, x0 + 1, ws.o01, ws.k01);
            corner(y0 + 1, x0, ws.o10, ws.k10);
            corner(y0 + 1, x0 + 1, ws.o11, ws.k11);
        }
    }
}

} // namespace

void
fit_field_into(const MotionField &field, i64 h, i64 w, MotionField &out)
{
    require(&out != &field, "fit_field_into: out aliases input");
    require(field.height() > 0 && field.width() > 0,
            "fit_field: empty source field");
    out.resize_grid(h, w);
    for (i64 y = 0; y < h; ++y) {
        const i64 sy = std::min(y, field.height() - 1);
        for (i64 x = 0; x < w; ++x) {
            const i64 sx = std::min(x, field.width() - 1);
            out.at(y, x) = field.at(sy, sx);
        }
    }
}

MotionField
fit_field(const MotionField &field, i64 h, i64 w)
{
    if (field.height() == h && field.width() == w) {
        return field;
    }
    MotionField out;
    fit_field_into(field, h, w, out);
    return out;
}

void
warp_activation_into(const Tensor &key_activation,
                     const MotionField &field, i64 rf_stride,
                     InterpMode mode, Tensor &out)
{
    require(&out != &key_activation,
            "warp_activation_into: out aliases the key activation");
    require(field.height() == key_activation.height() &&
                field.width() == key_activation.width(),
            "warp_activation: field grid does not match activation");
    require(rf_stride > 0, "warp_activation: stride must be positive");

    const i64 c_count = key_activation.channels();
    const i64 h = key_activation.height();
    const i64 w = key_activation.width();
    const i64 n = h * w;
    const double inv_stride = 1.0 / static_cast<double>(rf_stride);
    out.reshape_to(key_activation.shape());

    WarpWorkspace &ws = workspace();
    const bool simd = simd_supported();
    if (mode == InterpMode::kNearest) {
        build_nearest_coeffs(field, h, w, inv_stride, ws);
        for (i64 c = 0; c < c_count; ++c) {
            apply_nearest(key_activation.channel(c).data(), ws, n,
                          out.data().data() + c * n, simd);
        }
        return;
    }
    build_bilinear_coeffs(field, h, w, inv_stride, ws);
    for (i64 c = 0; c < c_count; ++c) {
        apply_bilinear(key_activation.channel(c).data(), ws, n,
                       out.data().data() + c * n, simd);
    }
}

void
warp_activation_rle_into(const RleActivation &key,
                         const MotionField &field, i64 rf_stride,
                         InterpMode mode, Tensor &out)
{
    const i64 c_count = key.shape.c;
    const i64 h = key.shape.h;
    const i64 w = key.shape.w;
    const i64 n = h * w;
    require(field.height() == h && field.width() == w,
            "warp_activation_rle: field grid does not match encoded "
            "shape");
    require(rf_stride > 0,
            "warp_activation_rle: stride must be positive");
    require(static_cast<i64>(key.channels.size()) == c_count,
            "warp_activation_rle: channel count mismatch");
    const double inv_stride = 1.0 / static_cast<double>(rf_stride);
    out.reshape_to(key.shape);

    WarpWorkspace &ws = workspace();
    if (mode == InterpMode::kNearest) {
        build_nearest_coeffs(field, h, w, inv_stride, ws);
    } else {
        build_bilinear_coeffs(field, h, w, inv_stride, ws);
    }
    ws.plane.resize(static_cast<size_t>(n));
    const bool simd = simd_supported();
    for (i64 c = 0; c < c_count; ++c) {
        const RleChannel &ch = key.channels[static_cast<size_t>(c)];
        invariant(ch.dense_length == n,
                  "warp_activation_rle: channel length mismatch");
        float *dst = out.data().data() + c * n;
        if (ch.entries.empty()) {
            // Fully pruned channel: every source tap is 0.0, and the
            // interpolation weights are non-negative, so the full
            // expression tree produces exactly +0.0 at every output
            // pixel — a fill is bit-exact and skips the gather.
            std::fill(dst, dst + n, 0.0f);
            continue;
        }
        // Expand the runs into the reused plane buffer with a linear
        // cursor — the same values rle_decode writes, minus its dense
        // tensor allocation (and its per-iteration page-fault churn)
        // and per-entry divmod. The plane is a few hundred bytes, so
        // the refill is a single hot-cache memset.
        std::fill(ws.plane.begin(), ws.plane.end(), 0.0f);
        i64 pos = 0;
        for (const RleEntry &e : ch.entries) {
            pos += e.zero_gap;
            if (e.value_raw != 0) {
                invariant(pos < n,
                          "warp_activation_rle: entry past plane end");
                ws.plane[static_cast<size_t>(pos)] = static_cast<float>(
                    Q88::from_raw(e.value_raw).to_double());
                ++pos;
            }
        }
        if (mode == InterpMode::kNearest) {
            apply_nearest(ws.plane.data(), ws, n, dst, simd);
        } else {
            apply_bilinear(ws.plane.data(), ws, n, dst, simd);
        }
    }
}

Tensor
warp_activation_rle(const RleActivation &key, const MotionField &field,
                    i64 rf_stride, InterpMode mode)
{
    Tensor out;
    warp_activation_rle_into(key, field, rf_stride, mode, out);
    return out;
}

Tensor
warp_activation(const Tensor &key_activation, const MotionField &field,
                i64 rf_stride, InterpMode mode)
{
    Tensor out;
    warp_activation_into(key_activation, field, rf_stride, mode, out);
    return out;
}

} // namespace eva2
