#include "flow/rfbme.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "runtime/parallel_for.h"
#include "simd/simd_kernels.h"
#include "util/math_util.h"

namespace eva2 {

namespace {

/** Floor division that is correct for negative numerators. */
i64
floor_div(i64 a, i64 b)
{
    i64 q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) {
        --q;
    }
    return q;
}

/** Ceiling division that is correct for negative numerators. */
i64
ceil_div_signed(i64 a, i64 b)
{
    return -floor_div(-a, b);
}

/** Length of [lo, hi) intersected with [a, b), or 0. */
i64
overlap(i64 lo, i64 hi, i64 a, i64 b)
{
    return std::max<i64>(0, std::min(hi, b) - std::max(lo, a));
}

/** The grid of candidate offsets (always includes the zero offset). */
std::vector<Vec2>
make_offsets(const RfbmeConfig &c)
{
    std::vector<Vec2> offsets;
    const i64 steps = c.search_radius / c.search_stride;
    for (i64 dy = -steps; dy <= steps; ++dy) {
        for (i64 dx = -steps; dx <= steps; ++dx) {
            offsets.push_back(Vec2{
                static_cast<double>(dy * c.search_stride),
                static_cast<double>(dx * c.search_stride)});
        }
    }
    return offsets;
}

/** The workspace's offset grid, rebuilt only when the search changed. */
const std::vector<Vec2> &
cached_offsets(const RfbmeConfig &c, RfbmeWorkspace &ws)
{
    if (!ws.offsets_valid || ws.offsets_radius != c.search_radius ||
        ws.offsets_stride != c.search_stride) {
        ws.offsets = make_offsets(c);
        ws.offsets_radius = c.search_radius;
        ws.offsets_stride = c.search_stride;
        ws.offsets_valid = true;
    }
    return ws.offsets;
}

/** The diff-tile band kernel a variant dispatches to. */
using TileBandFn = void (*)(const u8 *, i64, const u8 *, i64, const u8 *,
                            i64, i64, i64, i32 *);

TileBandFn
band_for(RfbmeVariant variant)
{
    if (variant == RfbmeVariant::kSimd && simd_supported()) {
        return &sad_tile_band_u8_simd;
    }
    return &sad_tile_band_u8;
}

void
validate(i64 key_h, i64 key_w, const Tensor &current,
         const RfbmeConfig &c)
{
    require(current.channels() == 1,
            "rfbme: frames must be single-channel");
    require(current.height() == key_h && current.width() == key_w,
            "rfbme: frame shape mismatch");
    require(c.rf_size > 0 && c.rf_stride > 0 && c.rf_pad >= 0,
            "rfbme: invalid receptive-field geometry");
    require(c.search_radius >= 0 && c.search_stride > 0,
            "rfbme: invalid search parameters");
    // Every tile and prefix sum is an int32 of at most 255 per pixel.
    require(key_h * key_w <= std::numeric_limits<i32>::max() / 255,
            "rfbme: frame too large for int32 tile sums");
}

} // namespace

const char *
rfbme_variant_name(RfbmeVariant v)
{
    switch (v) {
      case RfbmeVariant::kScalar: return "scalar";
      case RfbmeVariant::kSimd: return "simd";
    }
    return "unknown";
}

i64
rfbme_out_size(i64 image_extent, const RfbmeConfig &config)
{
    return conv_out_size(image_extent, config.rf_size, config.rf_stride,
                         config.rf_pad);
}

i64
RfbmeWorkspace::bytes() const
{
    size_t b = offsets.size() * sizeof(Vec2) + key_q.pixels.size() +
               key_pad.size() + cur_q.size() + masks.size() +
               (range_y.size() + range_x.size()) * sizeof(i64);
    for (const Chunk &ch : chunks) {
        b += (ch.tile_sum.size() + ch.prefix.size() + ch.winner.size()) *
                 sizeof(i32) +
             (ch.row_valid.size() + ch.col_valid.size() +
              ch.best_sum.size() + ch.best_count.size()) *
                 sizeof(i64);
    }
    return static_cast<i64>(b);
}

void
rfbme_tile_range(i64 u, const RfbmeConfig &c, i64 tiles, i64 &t_lo,
                 i64 &t_hi)
{
    const i64 s = c.rf_stride;
    const i64 start = u * c.rf_stride - c.rf_pad;
    t_lo = std::max<i64>(0, ceil_div_signed(start, s));
    t_hi = std::min<i64>(tiles, floor_div(start + c.rf_size, s));
}

void
rfbme_into(const PixelPlane &key, const Tensor &current,
           const RfbmeConfig &config, RfbmeResult &result,
           RfbmeWorkspace &ws)
{
    const i64 h = key.height;
    const i64 w = key.width;
    validate(h, w, current, config);
    const i64 s = config.rf_stride;
    const i64 tiles_y = h / s;
    const i64 tiles_x = w / s;
    const i64 out_h = rfbme_out_size(h, config);
    const i64 out_w = rfbme_out_size(w, config);
    const std::vector<Vec2> &offsets = cached_offsets(config, ws);
    const i64 steps = config.search_radius / config.search_stride;
    const i64 margin = steps * config.search_stride;

    // Quantize the current frame once, each row zero-padded to whole
    // 32-byte blocks so the SIMD tile kernel never reads past it.
    const auto quantize =
        simd_supported() ? &quantize_pixels_simd : &quantize_pixels;
    const i64 cs = ceil_div(std::max<i64>(w, 1), 32) * 32;
    ws.cur_q.resize(static_cast<size_t>(h * cs));
    const float *cur_f = current.data().data();
    for (i64 y = 0; y < h; ++y) {
        u8 *row = ws.cur_q.data() + y * cs;
        quantize(cur_f + y * w, w, row);
        std::fill(row + w, row + cs, u8{0});
    }

    // Key rows inside a zero margin: every candidate dx reads the
    // whole tile row in bounds, and columns outside the frame read 0.
    const i64 ks = w + 2 * margin + 32;
    ws.key_pad.resize(static_cast<size_t>(h * ks));
    for (i64 y = 0; y < h; ++y) {
        u8 *row = ws.key_pad.data() + y * ks;
        std::fill(row, row + margin, u8{0});
        std::memcpy(row + margin, key.pixels.data() + y * w,
                    static_cast<size_t>(w));
        std::fill(row + margin + w, row + ks, u8{0});
    }

    // One mask per candidate dx: 0xff where the key column x + dx is
    // inside the frame, 0 where the current pixel must not count
    // (and past the last tile). Masked columns add |0 - 0| = 0.
    const i64 num_dx = 2 * steps + 1;
    const i64 tile_cols = tiles_x * s;
    ws.masks.resize(static_cast<size_t>(num_dx * cs));
    for (i64 di = 0; di < num_dx; ++di) {
        const i64 dx = (di - steps) * config.search_stride;
        u8 *m = ws.masks.data() + di * cs;
        for (i64 x = 0; x < cs; ++x) {
            m[x] = (x < tile_cols && x + dx >= 0 && x + dx < w) ? 0xff : 0;
        }
    }

    // Each cell's full-tile ranges, and the consumer's fixed op count
    // per offset: 6 per prefix-sum cell, 6 per live receptive field.
    ws.range_y.resize(static_cast<size_t>(2 * out_h));
    ws.range_x.resize(static_cast<size_t>(2 * out_w));
    i64 live_rows = 0;
    i64 live_cols = 0;
    for (i64 uy = 0; uy < out_h; ++uy) {
        i64 *r = ws.range_y.data() + 2 * uy;
        rfbme_tile_range(uy, config, tiles_y, r[0], r[1]);
        live_rows += r[0] < r[1] ? 1 : 0;
    }
    for (i64 ux = 0; ux < out_w; ++ux) {
        i64 *r = ws.range_x.data() + 2 * ux;
        rfbme_tile_range(ux, config, tiles_x, r[0], r[1]);
        live_cols += r[0] < r[1] ? 1 : 0;
    }
    const i64 fixed_ops = 6 * tiles_y * tiles_x + 6 * live_rows * live_cols;

    const i64 cells = out_h * out_w;
    const i64 px = tiles_x + 1;
    const i64 num_offsets = static_cast<i64>(offsets.size());

    // The candidate-offset search parallelizes over fixed-size chunks
    // of the offset grid (the hardware runs the same search on
    // parallel adder trees). Each chunk keeps its own per-cell
    // minimum and winning-offset index; the merge below makes the
    // combined result independent of the partition, so the output is
    // identical for any thread count.
    const i64 offsets_per_chunk = 32;
    const i64 num_chunks = ceil_div(num_offsets, offsets_per_chunk);
    if (static_cast<i64>(ws.chunks.size()) < num_chunks) {
        ws.chunks.resize(static_cast<size_t>(num_chunks));
    }

    const TileBandFn band = band_for(config.variant);
    const u8 *cur_q = ws.cur_q.data();
    const u8 *key_pad = ws.key_pad.data();
    const u8 *masks = ws.masks.data();
    const i64 *range_y = ws.range_y.data();
    const i64 *range_x = ws.range_x.data();

    parallel_for(0, num_chunks, [&](i64 ci) {
        RfbmeWorkspace::Chunk &cb = ws.chunks[static_cast<size_t>(ci)];
        cb.add_ops = 0;
        cb.tile_sum.resize(static_cast<size_t>(tiles_y * tiles_x));
        cb.prefix.assign(static_cast<size_t>((tiles_y + 1) * px), 0);
        cb.row_valid.resize(static_cast<size_t>(tiles_y + 1));
        cb.col_valid.resize(static_cast<size_t>(tiles_x + 1));
        cb.best_sum.resize(static_cast<size_t>(cells));
        cb.best_count.resize(static_cast<size_t>(cells));
        cb.winner.assign(static_cast<size_t>(cells), -1);
        i32 *tile = cb.tile_sum.data();
        i32 *prefix = cb.prefix.data();
        i64 *row_valid = cb.row_valid.data();
        i64 *col_valid = cb.col_valid.data();

        const i64 oi_lo = ci * offsets_per_chunk;
        const i64 oi_hi =
            std::min<i64>(num_offsets, oi_lo + offsets_per_chunk);
        for (i64 oi = oi_lo; oi < oi_hi; ++oi) {
            const Vec2 &off = offsets[static_cast<size_t>(oi)];
            const i64 dy = static_cast<i64>(off.dy);
            const i64 dx = static_cast<i64>(off.dx);
            const u8 *mask =
                masks + (dx / config.search_stride + steps) * cs;

            // Diff tile producer. Rows whose key row leaves the frame
            // are skipped; columns are masked. A tile's valid-pixel
            // count is its clipped rectangle's area, kept as prefix
            // sums of valid rows and columns.
            row_valid[0] = 0;
            for (i64 ty = 0; ty < tiles_y; ++ty) {
                const i64 y_lo = std::max(ty * s, -dy);
                const i64 y_hi = std::min((ty + 1) * s, h - dy);
                const i64 rows = std::max<i64>(0, y_hi - y_lo);
                row_valid[ty + 1] = row_valid[ty] + rows;
                i32 *out = tile + ty * tiles_x;
                if (rows == 0) {
                    std::fill(out, out + tiles_x, 0);
                    continue;
                }
                band(cur_q + y_lo * cs, cs,
                     key_pad + (y_lo + dy) * ks + margin + dx, ks, mask,
                     rows, tiles_x, s, out);
            }
            col_valid[0] = 0;
            for (i64 tx = 0; tx < tiles_x; ++tx) {
                col_valid[tx + 1] =
                    col_valid[tx] + overlap(tx * s, (tx + 1) * s, -dx, w - dx);
            }
            cb.add_ops +=
                row_valid[tiles_y] * col_valid[tiles_x] + fixed_ops;

            // Prefix sums over the tile grid (row 0 and column 0
            // stay zero).
            for (i64 ty = 0; ty < tiles_y; ++ty) {
                i32 run = 0;
                const i32 *up = prefix + ty * px + 1;
                i32 *dst = prefix + (ty + 1) * px + 1;
                const i32 *row = tile + ty * tiles_x;
                for (i64 tx = 0; tx < tiles_x; ++tx) {
                    run += row[tx];
                    dst[tx] = up[tx] + run;
                }
            }

            // Diff tile consumer: aggregate tiles per receptive field
            // and keep the running minimum (min-check register).
            for (i64 uy = 0; uy < out_h; ++uy) {
                const i64 ty_lo = range_y[2 * uy];
                const i64 ty_hi = range_y[2 * uy + 1];
                if (ty_lo >= ty_hi) {
                    continue;
                }
                const i64 rows = row_valid[ty_hi] - row_valid[ty_lo];
                const i32 *p_lo = prefix + ty_lo * px;
                const i32 *p_hi = prefix + ty_hi * px;
                for (i64 ux = 0; ux < out_w; ++ux) {
                    const i64 tx_lo = range_x[2 * ux];
                    const i64 tx_hi = range_x[2 * ux + 1];
                    if (tx_lo >= tx_hi) {
                        continue;
                    }
                    const i64 count =
                        rows * (col_valid[tx_hi] - col_valid[tx_lo]);
                    if (count <= 0) {
                        continue;
                    }
                    const i64 sum = static_cast<i64>(p_hi[tx_hi]) -
                                    p_lo[tx_hi] - p_hi[tx_lo] +
                                    p_lo[tx_lo];
                    const size_t idx = static_cast<size_t>(uy * out_w + ux);
                    if (cb.winner[idx] < 0 ||
                        rfbme_lower_error(sum, count, cb.best_sum[idx],
                                          cb.best_count[idx])) {
                        cb.best_sum[idx] = sum;
                        cb.best_count[idx] = count;
                        cb.winner[idx] = static_cast<i32>(oi);
                    }
                }
            }
        }
    });

    // Merge chunks into chunk 0 in ascending offset order. Strict
    // comparisons inside chunks and here pick, per cell, the
    // lowest-indexed offset attaining the minimal mean — exactly the
    // offset a serial running-minimum loop selects.
    RfbmeWorkspace::Chunk &best = ws.chunks.front();
    result.add_ops = best.add_ops;
    for (i64 ci = 1; ci < num_chunks; ++ci) {
        const RfbmeWorkspace::Chunk &cb =
            ws.chunks[static_cast<size_t>(ci)];
        result.add_ops += cb.add_ops;
        for (size_t idx = 0; idx < static_cast<size_t>(cells); ++idx) {
            if (cb.winner[idx] < 0) {
                continue;
            }
            if (best.winner[idx] < 0 ||
                rfbme_lower_error(cb.best_sum[idx], cb.best_count[idx],
                                  best.best_sum[idx],
                                  best.best_count[idx])) {
                best.best_sum[idx] = cb.best_sum[idx];
                best.best_count[idx] = cb.best_count[idx];
                best.winner[idx] = cb.winner[idx];
            }
        }
    }

    result.field.resize_grid(out_h, out_w);
    result.rf_errors.assign(static_cast<size_t>(cells), 0.0);
    result.total_error = 0.0;
    for (i64 cell = 0; cell < cells; ++cell) {
        const size_t idx = static_cast<size_t>(cell);
        if (best.winner[idx] >= 0) {
            result.field.at(cell / out_w, cell % out_w) =
                offsets[static_cast<size_t>(best.winner[idx])];
            result.rf_errors[idx] =
                rfbme_error(best.best_sum[idx], best.best_count[idx]);
        }
        result.total_error += result.rf_errors[idx];
    }
    result.mean_error =
        cells == 0 ? 0.0 : result.total_error / static_cast<double>(cells);
}

void
rfbme_into(const Tensor &key, const Tensor &current,
           const RfbmeConfig &config, RfbmeResult &result,
           RfbmeWorkspace &ws)
{
    require(key.shape() == current.shape(), "rfbme: frame shape mismatch");
    quantize_frame(key, ws.key_q);
    rfbme_into(ws.key_q, current, config, result, ws);
}

RfbmeResult
rfbme(const Tensor &key, const Tensor &current, const RfbmeConfig &config)
{
    RfbmeResult result;
    RfbmeWorkspace ws;
    rfbme_into(key, current, config, result, ws);
    return result;
}

RfbmeResult
rfbme_naive(const Tensor &key, const Tensor &current,
            const RfbmeConfig &config)
{
    require(key.shape() == current.shape(), "rfbme: frame shape mismatch");
    PixelPlane kq;
    PixelPlane cq;
    quantize_frame(key, kq);
    quantize_frame(current, cq);
    const i64 h = kq.height;
    const i64 w = kq.width;
    validate(h, w, current, config);
    const i64 s = config.rf_stride;
    const i64 tiles_y = h / s;
    const i64 tiles_x = w / s;
    const i64 out_h = rfbme_out_size(h, config);
    const i64 out_w = rfbme_out_size(w, config);
    const std::vector<Vec2> offsets = make_offsets(config);

    RfbmeResult result;
    result.field = MotionField(out_h, out_w);
    result.rf_errors.assign(static_cast<size_t>(out_h * out_w), 0.0);

    for (i64 uy = 0; uy < out_h; ++uy) {
        i64 ty_lo;
        i64 ty_hi;
        rfbme_tile_range(uy, config, tiles_y, ty_lo, ty_hi);
        for (i64 ux = 0; ux < out_w; ++ux) {
            i64 tx_lo;
            i64 tx_hi;
            rfbme_tile_range(ux, config, tiles_x, tx_lo, tx_hi);
            if (ty_lo >= ty_hi || tx_lo >= tx_hi) {
                continue;
            }
            i64 best_sum = 0;
            i64 best_count = 0;
            const Vec2 *best_off = nullptr;
            for (const Vec2 &off : offsets) {
                const i64 dy = static_cast<i64>(off.dy);
                const i64 dx = static_cast<i64>(off.dx);
                i64 d = 0;
                i64 n = 0;
                for (i64 y = ty_lo * s; y < ty_hi * s; ++y) {
                    const i64 ky = y + dy;
                    if (ky < 0 || ky >= h) {
                        continue;
                    }
                    for (i64 x = tx_lo * s; x < tx_hi * s; ++x) {
                        const i64 kx = x + dx;
                        if (kx < 0 || kx >= w) {
                            continue;
                        }
                        const i64 diff =
                            static_cast<i64>(cq.pixels[static_cast<size_t>(
                                y * w + x)]) -
                            kq.pixels[static_cast<size_t>(ky * w + kx)];
                        d += diff < 0 ? -diff : diff;
                        ++n;
                    }
                }
                result.add_ops += n;
                if (n == 0) {
                    continue;
                }
                if (best_off == nullptr ||
                    rfbme_lower_error(d, n, best_sum, best_count)) {
                    best_sum = d;
                    best_count = n;
                    best_off = &off;
                }
            }
            if (best_off != nullptr) {
                result.field.at(uy, ux) = *best_off;
                result.rf_errors[static_cast<size_t>(uy * out_w + ux)] =
                    rfbme_error(best_sum, best_count);
            }
        }
    }

    for (double e : result.rf_errors) {
        result.total_error += e;
    }
    result.mean_error =
        result.rf_errors.empty()
            ? 0.0
            : result.total_error /
                  static_cast<double>(result.rf_errors.size());
    return result;
}

} // namespace eva2
