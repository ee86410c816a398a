#include "flow/block_matching.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "flow/sad_kernels.h"
#include "runtime/parallel_for.h"
#include "simd/simd_kernels.h"

namespace eva2 {

double
block_mad(const PixelPlane &key, const PixelPlane &current, i64 by,
          i64 bx, i64 block, i64 dy, i64 dx)
{
    // Per in-bounds block row, the in-bounds pixels form one
    // contiguous span, so the whole row is a single u8 SAD call
    // (flow/sad_kernels.h) on raw row pointers. The sums are exact
    // integers, so the one-time SIMD dispatch never changes them.
    static const auto sad =
        simd_supported() ? &sad_span_u8_simd : &sad_span_u8;
    const i64 h = key.height;
    const i64 w = key.width;
    const i64 y_lo = std::max(by, -dy);
    const i64 y_hi = std::min(std::min(by + block, h), h - dy);
    const i64 x_lo = std::max(bx, -dx);
    const i64 x_hi = std::min(std::min(bx + block, w), w - dx);
    const i64 span = x_hi - x_lo;
    if (span <= 0 || y_lo >= y_hi) {
        return std::numeric_limits<double>::infinity();
    }
    const u8 *cur_base = current.pixels.data();
    const u8 *key_base = key.pixels.data();
    i64 acc = 0;
    for (i64 y = y_lo; y < y_hi; ++y) {
        acc += sad(cur_base + y * w + x_lo,
                   key_base + (y + dy) * w + x_lo + dx, span);
    }
    const i64 n = (y_hi - y_lo) * span;
    return static_cast<double>(acc) / (static_cast<double>(n) * 255.0);
}

void
exhaustive_block_match_into(const Tensor &key, const Tensor &current,
                       const BlockMatchConfig &c, MotionField &out)
{
    require(key.shape() == current.shape(),
            "block match: frame shape mismatch");
    require(c.block_size > 0 && c.search_radius >= 0 && c.search_stride > 0,
            "block match: bad config");
    const i64 bh = key.height() / c.block_size;
    const i64 bw = key.width() / c.block_size;
    PixelPlane kq;
    PixelPlane cq;
    quantize_frame(key, kq);
    quantize_frame(current, cq);
    out.resize_grid(bh, bw);
    MotionField &field = out;
    // Blocks are independent — each (by, bx) writes only its own
    // field cell and scans the offset grid in the same serial order —
    // so parallelizing over block rows is bit-identical for any
    // thread count.
    parallel_for(0, bh, [&](i64 by) {
        for (i64 bx = 0; bx < bw; ++bx) {
            double best = std::numeric_limits<double>::infinity();
            Vec2 best_off{0.0, 0.0};
            for (i64 dy = -c.search_radius; dy <= c.search_radius;
                 dy += c.search_stride) {
                for (i64 dx = -c.search_radius; dx <= c.search_radius;
                     dx += c.search_stride) {
                    const double err =
                        block_mad(kq, cq, by * c.block_size,
                                  bx * c.block_size, c.block_size, dy, dx);
                    if (err < best) {
                        best = err;
                        best_off = Vec2{static_cast<double>(dy),
                                        static_cast<double>(dx)};
                    }
                }
            }
            field.at(by, bx) = best_off;
        }
    });
}

void
three_step_search_into(const Tensor &key, const Tensor &current,
                  const BlockMatchConfig &c, MotionField &out)
{
    require(key.shape() == current.shape(),
            "three step search: frame shape mismatch");
    require(c.block_size > 0 && c.search_radius >= 0 &&
                c.search_stride > 0,
            "three step search: bad config");
    const i64 bh = key.height() / c.block_size;
    const i64 bw = key.width() / c.block_size;
    PixelPlane kq;
    PixelPlane cq;
    quantize_frame(key, kq);
    quantize_frame(current, cq);
    out.resize_grid(bh, bw);
    MotionField &field = out;
    for (i64 by = 0; by < bh; ++by) {
        for (i64 bx = 0; bx < bw; ++bx) {
            i64 cy = 0;
            i64 cx = 0;
            double best = block_mad(kq, cq, by * c.block_size,
                                    bx * c.block_size, c.block_size, 0, 0);
            i64 step = std::max<i64>(1, c.search_radius / 2);
            while (step >= 1) {
                i64 next_cy = cy;
                i64 next_cx = cx;
                for (i64 sy = -1; sy <= 1; ++sy) {
                    for (i64 sx = -1; sx <= 1; ++sx) {
                        if (sy == 0 && sx == 0) {
                            continue;
                        }
                        const i64 dy = cy + sy * step;
                        const i64 dx = cx + sx * step;
                        if (std::abs(dy) > c.search_radius ||
                            std::abs(dx) > c.search_radius) {
                            continue;
                        }
                        const double err = block_mad(
                            kq, cq, by * c.block_size,
                            bx * c.block_size, c.block_size, dy, dx);
                        if (err < best) {
                            best = err;
                            next_cy = dy;
                            next_cx = dx;
                        }
                    }
                }
                cy = next_cy;
                cx = next_cx;
                step /= 2;
            }
            field.at(by, bx) = Vec2{static_cast<double>(cy),
                                    static_cast<double>(cx)};
        }
    }
}

void
diamond_search_into(const Tensor &key, const Tensor &current,
               const BlockMatchConfig &c, MotionField &out)
{
    require(key.shape() == current.shape(),
            "diamond search: frame shape mismatch");
    require(c.block_size > 0 && c.search_radius >= 0,
            "diamond search: bad config");
    // Large diamond search pattern (LDSP): centre plus 8 points at
    // Chebyshev/Manhattan distance 2; small pattern (SDSP): the 4
    // direct neighbours (Zhu & Ma 1997).
    static constexpr i64 kLdsp[8][2] = {{-2, 0}, {-1, -1}, {-1, 1},
                                        {0, -2}, {0, 2},   {1, -1},
                                        {1, 1},  {2, 0}};
    static constexpr i64 kSdsp[4][2] = {{-1, 0}, {0, -1}, {0, 1}, {1, 0}};

    const i64 bh = key.height() / c.block_size;
    const i64 bw = key.width() / c.block_size;
    PixelPlane kq;
    PixelPlane cq;
    quantize_frame(key, kq);
    quantize_frame(current, cq);
    out.resize_grid(bh, bw);
    MotionField &field = out;
    for (i64 by = 0; by < bh; ++by) {
        for (i64 bx = 0; bx < bw; ++bx) {
            const i64 oy = by * c.block_size;
            const i64 ox = bx * c.block_size;
            i64 cy = 0;
            i64 cx = 0;
            double best =
                block_mad(kq, cq, oy, ox, c.block_size, 0, 0);

            // LDSP until the centre wins (bounded by the search
            // radius so pathological inputs terminate).
            for (i64 iter = 0; iter <= 2 * c.search_radius; ++iter) {
                i64 next_cy = cy;
                i64 next_cx = cx;
                for (const auto &d : kLdsp) {
                    const i64 dy = cy + d[0];
                    const i64 dx = cx + d[1];
                    if (std::abs(dy) > c.search_radius ||
                        std::abs(dx) > c.search_radius) {
                        continue;
                    }
                    const double err = block_mad(kq, cq, oy, ox,
                                                 c.block_size, dy, dx);
                    if (err < best) {
                        best = err;
                        next_cy = dy;
                        next_cx = dx;
                    }
                }
                if (next_cy == cy && next_cx == cx) {
                    break;
                }
                cy = next_cy;
                cx = next_cx;
            }

            // Final SDSP refinement.
            for (const auto &d : kSdsp) {
                const i64 dy = cy + d[0];
                const i64 dx = cx + d[1];
                if (std::abs(dy) > c.search_radius ||
                    std::abs(dx) > c.search_radius) {
                    continue;
                }
                const double err = block_mad(kq, cq, oy, ox,
                                             c.block_size, dy, dx);
                if (err < best) {
                    best = err;
                    cy = dy;
                    cx = dx;
                }
            }
            field.at(by, bx) = Vec2{static_cast<double>(cy),
                                    static_cast<double>(cx)};
        }
    }
}

MotionField
exhaustive_block_match(const Tensor &key, const Tensor &current,
                       const BlockMatchConfig &config)
{
    MotionField out;
    exhaustive_block_match_into(key, current, config, out);
    return out;
}

MotionField
three_step_search(const Tensor &key, const Tensor &current,
                  const BlockMatchConfig &config)
{
    MotionField out;
    three_step_search_into(key, current, config, out);
    return out;
}

MotionField
diamond_search(const Tensor &key, const Tensor &current,
               const BlockMatchConfig &config)
{
    MotionField out;
    diamond_search_into(key, current, config, out);
    return out;
}

} // namespace eva2
