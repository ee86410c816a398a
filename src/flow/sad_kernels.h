/**
 * @file
 * Integer pixel kernels shared by RFBME and block matching: the u8
 * pixel quantizer and the scalar SAD (sum of absolute differences)
 * kernels on u8 pixels.
 *
 * Motion estimation does not read float pixels. Each frame is mapped
 * once to one u8 per pixel:
 *
 *   q(x) = round_half_even(clamp(x, 0, 1) * 255),  NaN -> 0
 *
 * (the product is one float multiply, rounded to float before the
 * rounding to an integer; -inf maps to 0, +inf to 255).
 * All later arithmetic is on integers: a SAD is an exact sum of
 * |a - b| over u8 pixels, so every implementation of it (scalar,
 * SIMD, any summation order or chunking) returns the same value by
 * construction. The SIMD twins in src/simd/simd_kernels.h therefore
 * need no ordering contract beyond "compute the same sum".
 *
 * This translation unit is compiled with baseline ISA flags: it is
 * the fallback on machines without SIMD support, so it must never be
 * built with vector extensions enabled.
 */
#ifndef EVA2_FLOW_SAD_KERNELS_H
#define EVA2_FLOW_SAD_KERNELS_H

#include <vector>

#include "tensor/tensor.h"
#include "util/common.h"

namespace eva2 {

/** A single-channel frame quantized to u8 pixels, row-major. */
struct PixelPlane
{
    i64 height = 0;
    i64 width = 0;
    std::vector<u8> pixels;
};

/** The u8 pixel quantizer (see the file comment). */
inline u8
quantize_pixel(float x)
{
    // `x > 0` is false for NaN, so NaN lands on 0 with the negatives.
    const float lo = x > 0.0f ? x : 0.0f;
    const float c = lo < 1.0f ? lo : 1.0f;
    // Adding and removing 2^23 rounds a float in [0, 2^22) to an
    // integer, half to even (the default rounding mode): the
    // std::nearbyint result without a libm call.
    const float p = c * 255.0f;
    return static_cast<u8>((p + 8388608.0f) - 8388608.0f);
}

/** Scalar quantizer over n floats: out[i] = quantize_pixel(in[i]). */
void quantize_pixels(const float *in, i64 n, u8 *out);

/**
 * Quantize a single-channel frame into `out` (resized in place; the
 * steady state reuses its buffer). Runs the SIMD quantizer wherever
 * simd_supported(); it is bit-identical to quantize_pixels.
 */
void quantize_frame(const Tensor &frame, PixelPlane &out);

/** Sum of |a[i] - b[i]| over i in [0, n). */
i64 sad_span_u8(const u8 *a, const u8 *b, i64 n);

/**
 * One band of RFBME diff tiles: for each tile t in [0, tiles),
 *
 *   out[t] = sum over r in [0, rows), i in [t*s, (t+1)*s) of
 *            |(cur[r*cur_stride + i] & mask[i]) - key[r*key_stride + i]|
 *
 * `mask` holds 0xff for columns whose key pixel lies inside the frame
 * and 0 elsewhere; a masked column compares 0 against the key's zero
 * padding and adds nothing. out[] is overwritten, not accumulated.
 * `rows` may be 0 (all tiles get 0).
 */
void sad_tile_band_u8(const u8 *cur, i64 cur_stride, const u8 *key,
                      i64 key_stride, const u8 *mask, i64 rows,
                      i64 tiles, i64 s, i32 *out);

} // namespace eva2

#endif // EVA2_FLOW_SAD_KERNELS_H
