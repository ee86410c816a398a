#include "hw/diff_tile_sim.h"

#include "util/math_util.h"

namespace eva2 {

DiffTileSimResult
simulate_diff_tile_pipeline(const Tensor &key, const Tensor &current,
                            const RfbmeConfig &config,
                            i64 adder_tree_width)
{
    require(key.shape() == current.shape(),
            "diff tile sim: frame shape mismatch");
    require(key.channels() == 1, "diff tile sim: single channel only");
    require(adder_tree_width > 0, "diff tile sim: bad adder tree width");

    // The pixel buffers hold u8 pixels (flow/sad_kernels.h), so the
    // producer and consumer are integer adder trees like the hardware.
    PixelPlane kq;
    PixelPlane cq;
    quantize_frame(key, kq);
    quantize_frame(current, cq);
    const i64 h = kq.height;
    const i64 w = kq.width;
    const i64 s = config.rf_stride;
    const i64 tiles_y = h / s;
    const i64 tiles_x = w / s;
    const i64 out_h = rfbme_out_size(h, config);
    const i64 out_w = rfbme_out_size(w, config);

    DiffTileSimResult result;
    result.field = MotionField(out_h, out_w);
    result.rf_errors.assign(static_cast<size_t>(out_h * out_w), 0.0);
    std::vector<i64> best_sum(static_cast<size_t>(out_h * out_w), 0);
    std::vector<i64> best_count(static_cast<size_t>(out_h * out_w), 0);

    // Tile memory: one frame's worth of tile diffs for one offset.
    std::vector<i64> tile_diff(static_cast<size_t>(tiles_y * tiles_x));
    std::vector<i64> tile_count(static_cast<size_t>(tiles_y * tiles_x));

    const i64 steps = config.search_radius / config.search_stride;
    for (i64 ody = -steps; ody <= steps; ++ody) {
        for (i64 odx = -steps; odx <= steps; ++odx) {
            const i64 dy = ody * config.search_stride;
            const i64 dx = odx * config.search_stride;

            // --- Diff tile producer ---
            for (i64 ty = 0; ty < tiles_y; ++ty) {
                for (i64 tx = 0; tx < tiles_x; ++tx) {
                    i64 d = 0;
                    i64 n = 0;
                    for (i64 y = ty * s; y < (ty + 1) * s; ++y) {
                        const i64 ky = y + dy;
                        if (ky < 0 || ky >= h) {
                            continue;
                        }
                        for (i64 x = tx * s; x < (tx + 1) * s; ++x) {
                            const i64 kx = x + dx;
                            if (kx < 0 || kx >= w) {
                                continue;
                            }
                            const i64 diff =
                                static_cast<i64>(
                                    cq.pixels[static_cast<size_t>(
                                        y * w + x)]) -
                                kq.pixels[static_cast<size_t>(ky * w +
                                                              kx)];
                            d += diff < 0 ? -diff : diff;
                            ++n;
                        }
                    }
                    tile_diff[static_cast<size_t>(ty * tiles_x + tx)] = d;
                    tile_count[static_cast<size_t>(ty * tiles_x + tx)] =
                        n;
                    // The adder tree retires adder_tree_width
                    // differences per cycle; skipped out-of-bounds
                    // pixels cost nothing.
                    result.producer_cycles +=
                        ceil_div(std::max<i64>(n, 1), adder_tree_width);
                }
            }

            // --- Diff tile consumer: rolling window sums ---
            auto column_sum = [&](i64 tx, i64 ty_lo, i64 ty_hi, i64 &d,
                                  i64 &c) {
                d = 0;
                c = 0;
                for (i64 ty = ty_lo; ty < ty_hi; ++ty) {
                    d += tile_diff[static_cast<size_t>(ty * tiles_x +
                                                       tx)];
                    c += tile_count[static_cast<size_t>(ty * tiles_x +
                                                        tx)];
                }
            };

            for (i64 uy = 0; uy < out_h; ++uy) {
                i64 ty_lo;
                i64 ty_hi;
                rfbme_tile_range(uy, config, tiles_y, ty_lo, ty_hi);
                if (ty_lo >= ty_hi) {
                    continue;
                }
                i64 window_d = 0;
                i64 window_c = 0;
                i64 prev_lo = 0;
                i64 prev_hi = 0;
                bool have_window = false;
                for (i64 ux = 0; ux < out_w; ++ux) {
                    i64 tx_lo;
                    i64 tx_hi;
                    rfbme_tile_range(ux, config, tiles_x, tx_lo, tx_hi);
                    if (tx_lo >= tx_hi) {
                        have_window = false;
                        continue;
                    }
                    if (have_window && tx_lo == prev_lo + 1 &&
                        tx_hi == prev_hi + 1) {
                        // Steady state: add the leading column,
                        // subtract the trailing column.
                        i64 add_d;
                        i64 add_c;
                        i64 sub_d;
                        i64 sub_c;
                        column_sum(tx_hi - 1, ty_lo, ty_hi, add_d,
                                   add_c);
                        column_sum(prev_lo, ty_lo, ty_hi, sub_d, sub_c);
                        window_d += add_d - sub_d;
                        window_c += add_c - sub_c;
                        result.consumer_cycles += 2;
                    } else {
                        // Window (re)fill: exhaustive column sums.
                        window_d = 0;
                        window_c = 0;
                        for (i64 tx = tx_lo; tx < tx_hi; ++tx) {
                            i64 col_d;
                            i64 col_c;
                            column_sum(tx, ty_lo, ty_hi, col_d, col_c);
                            window_d += col_d;
                            window_c += col_c;
                            ++result.consumer_cycles;
                        }
                    }
                    prev_lo = tx_lo;
                    prev_hi = tx_hi;
                    have_window = true;

                    if (window_c <= 0) {
                        continue;
                    }
                    const size_t idx =
                        static_cast<size_t>(uy * out_w + ux);
                    ++result.consumer_cycles; // min-check compare
                    // Division-free min-check: best_count 0 means no
                    // candidate yet.
                    if (best_count[idx] == 0 ||
                        rfbme_lower_error(window_d, window_c,
                                          best_sum[idx],
                                          best_count[idx])) {
                        best_sum[idx] = window_d;
                        best_count[idx] = window_c;
                        result.field.at(uy, ux) =
                            Vec2{static_cast<double>(dy),
                                 static_cast<double>(dx)};
                        result.rf_errors[idx] =
                            rfbme_error(window_d, window_c);
                    }
                }
            }
        }
    }

    for (double e : result.rf_errors) {
        result.total_error += e;
    }
    return result;
}

} // namespace eva2
