// eva2-lint: hot-path
#include "flow/sad_kernels.h"

#include "simd/simd_kernels.h"

namespace eva2 {

void
quantize_pixels(const float *in, i64 n, u8 *out)
{
    for (i64 i = 0; i < n; ++i) {
        out[i] = quantize_pixel(in[i]);
    }
}

void
quantize_frame(const Tensor &frame, PixelPlane &out)
{
    require(frame.channels() == 1,
            "quantize_frame: frames must be single-channel");
    out.height = frame.height();
    out.width = frame.width();
    out.pixels.resize(static_cast<size_t>(frame.size()));
    if (simd_supported()) {
        quantize_pixels_simd(frame.data().data(), frame.size(),
                             out.pixels.data());
    } else {
        quantize_pixels(frame.data().data(), frame.size(),
                        out.pixels.data());
    }
}

i64
sad_span_u8(const u8 *a, const u8 *b, i64 n)
{
    i64 acc = 0;
    for (i64 i = 0; i < n; ++i) {
        const i32 d = static_cast<i32>(a[i]) - static_cast<i32>(b[i]);
        acc += d < 0 ? -d : d;
    }
    return acc;
}

void
sad_tile_band_u8(const u8 *cur, i64 cur_stride, const u8 *key,
                 i64 key_stride, const u8 *mask, i64 rows, i64 tiles,
                 i64 s, i32 *out)
{
    for (i64 t = 0; t < tiles; ++t) {
        out[t] = 0;
    }
    for (i64 r = 0; r < rows; ++r) {
        const u8 *c = cur + r * cur_stride;
        const u8 *k = key + r * key_stride;
        for (i64 t = 0; t < tiles; ++t) {
            i32 acc = 0;
            for (i64 i = t * s; i < (t + 1) * s; ++i) {
                const i32 d = static_cast<i32>(c[i] & mask[i]) -
                              static_cast<i32>(k[i]);
                acc += d < 0 ? -d : d;
            }
            out[t] += acc;
        }
    }
}

} // namespace eva2
