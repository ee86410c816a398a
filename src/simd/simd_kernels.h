/**
 * @file
 * Plain-function interface to the explicit-SIMD kernel variants.
 *
 * This header is safe to include from any translation unit: it
 * contains no intrinsics and no Vec types. The implementations live
 * in simd_kernels.cc, the one TU the build compiles with elevated ISA
 * flags (see src/simd/vec.h and the EVA2_SIMD CMake option), and they
 * must only be *called* after a positive simd_supported() check —
 * callers fall back to the scalar reference kernels otherwise.
 *
 * Two numeric classes of kernel live here:
 *
 *  - Bit-exact: relu_simd, the warp_apply_* kernels, the u8 pixel
 *    quantizer, and the kExact GEMM tile perform, per element,
 *    exactly the operation sequence of the scalar reference
 *    (lane-parallel max / mul / add, no fma, no reordering). The u8
 *    SAD kernels (sad_span_u8_simd / sad_tile_band_u8_simd) sum
 *    integers, so any order gives the scalar result. All of these
 *    are drop-in replacements,
 *    need no divergence gating, and run by default wherever
 *    simd_supported().
 *  - Bounded-divergence: the fma GEMM register tiles (one rounding
 *    where the scalar reference has two) and the FC kernels (fma plus
 *    a tree-order horizontal sum). These are only selected through
 *    the `kernel=tuned` path, which the two-tier verification story
 *    gates on the tensor_ops ulp/L-inf digest check and end-task
 *    accuracy parity (docs/simd_kernels.md).
 */
#ifndef EVA2_SIMD_SIMD_KERNELS_H
#define EVA2_SIMD_SIMD_KERNELS_H

#include <vector>

#include "util/common.h"

namespace eva2 {

/**
 * A GEMM micro-kernel variant. kScalar is the reference blocked
 * kernel in conv_kernels.cc. kExact is a SIMD register tile (4 weight
 * rows by 2 vectors of output pixels) that accumulates with mul then
 * add, so it is bit-identical to kScalar; it is the default for every
 * untuned gemm conv wherever simd_supported(). The kMrXxNvY variants
 * are fma register tiles of X weight rows by Y vectors of output
 * pixels (X*Y accumulator vectors held live; larger X amortizes the
 * packed-column loads across weight rows, larger Y hides fma
 * latency) that the tuner searches over.
 */
enum class GemmVariant : i64
{
    kScalar = 0,
    kMr1xNv4,
    kMr2xNv2,
    kMr2xNv4,
    kMr4xNv2,
    kMr4xNv3,
    kExact,
};

/** Printable variant name ("scalar", "simd_exact", "mr2xnv4", ...). */
const char *gemm_variant_name(GemmVariant v);

/** The fma variants the tuner races against kExact (excludes the two
 * bit-exact variants). */
const std::vector<GemmVariant> &simd_gemm_variants();

/**
 * The bit-exact GEMM variant for this machine: kExact when
 * simd_supported(), kScalar otherwise. ExecutionPlan runs it for every
 * untuned gemm conv.
 */
GemmVariant exact_gemm_variant();

/** True when the SIMD TU was compiled for a real vector ISA. */
bool simd_compiled();

/**
 * True when the SIMD kernels may be called on this machine: compiled
 * for a real ISA *and* the running CPU supports it (x86 builds check
 * cpuid for AVX2+FMA; NEON is baseline on AArch64). Cheap; cached.
 */
bool simd_supported();

/** ISA the SIMD kernels run ("avx2", "sse2", "neon", "scalar"). */
const char *simd_isa_name();

/** Vector lanes of one Vec<float> ("8" for AVX2; 1 when scalar). */
i64 simd_lanes();

/**
 * SIMD blocked GEMM over one packed column strip: out[m][j0+j] =
 * bias[m] + sum_k w[m][k] * panel[k][j] for j in [0, jn), all m in
 * [0, out_c). Row k of the strip's panel starts at panel + k*ld
 * (ld >= jn; see im2col_pack_strip in cnn/conv_kernels.h); row m of
 * `out` at out + m*n, so output column j0 + j takes panel column j.
 * Accumulation per output element is ascending-k from the bias, with
 * mul+add for kExact (bit-exact) and fused multiply-adds for the
 * other variants; columns beyond the last full vector run through a
 * scalar mul+add tail. Requires simd_supported().
 */
void gemm_strip_simd(GemmVariant variant, const float *weights,
                     const float *biases, const float *panel, i64 ld,
                     i64 out_c, i64 taps, i64 n, i64 j0, i64 jn,
                     float *out, bool fuse_relu);

/** Column-strip width gemm_strip_simd wants for a variant, in
 * pixels: the conv engine packs and multiplies one panel of this
 * many columns per parallel_for index. */
i64 gemm_strip_width(GemmVariant variant);

/**
 * SIMD dot product: bias + sum_i w[i] * x[i], accumulated in four
 * independent vector chains (fma) and reduced pairwise. Bounded
 * divergence vs the scalar left-to-right chain.
 */
float fc_dot_simd(const float *w, const float *x, i64 n, float bias);

/**
 * Batched SIMD FC row: one weight row dotted against nb sample
 * vectors (nb <= 8), each sample accumulated independently as in
 * fc_dot_simd. The weight vector is loaded once per block of taps
 * and reused across samples.
 */
void fc_dot_batched_simd(const float *w, float bias,
                         const float *const *xs, i64 nb, i64 n,
                         float *out);

/** Lane-parallel max(x, 0): bit-exact vs the scalar loop. */
void relu_simd(const float *in, float *out, i64 n);

/**
 * Apply precomputed bilinear-warp coefficients to one channel plane:
 * for each output pixel p,
 *
 *   top = v00*wx0 + v01*wx1;  bot = v10*wx0 + v11*wx1;
 *   out[p] = (float)(top*wy0 + bot*wy1)
 *
 * in double precision, where vXY = kXY[p] ? (double)plane[oXY[p]]
 * : 0.0 — the kXY masks (0 or -1) *select* the zero-padding of
 * out-of-bounds corners rather than multiplying by 0.0, which would
 * turn -x into -0.0 and infinities into NaN where the scalar
 * reference's padding is an exact +0.0. Bit-exact vs the reference in
 * core/warp.cc, which uses the identical expression tree. Offsets of
 * masked-out corners must still be valid indices (callers clamp to 0).
 */
void warp_apply_bilinear_simd(const float *plane, const i32 *o00,
                              const i32 *o01, const i32 *o10,
                              const i32 *o11, const i32 *k00,
                              const i32 *k01, const i32 *k10,
                              const i32 *k11, const double *wx0,
                              const double *wx1, const double *wy0,
                              const double *wy1, i64 n, float *out);

/**
 * Apply precomputed nearest-warp offsets to one channel plane:
 * out[p] = off[p] >= 0 ? plane[off[p]] : 0. Bit-exact (pure moves).
 */
void warp_apply_nearest_simd(const float *plane, const i32 *off, i64 n,
                             float *out);

/**
 * SIMD u8 pixel quantizer: out[i] = quantize_pixel(in[i]) from
 * flow/sad_kernels.h, bit for bit. max(x, 0) returns its second
 * operand for a NaN lane (NaN -> 0), the product is one float
 * multiply, and the conversion rounds half to even like
 * std::nearbyint under the default rounding mode.
 */
void quantize_pixels_simd(const float *in, i64 n, u8 *out);

/** SIMD sad_span_u8: 32 |a - b| per _mm256_sad_epu8. */
i64 sad_span_u8_simd(const u8 *a, const u8 *b, i64 n);

/**
 * SIMD sad_tile_band_u8 (same contract and the same integer result).
 * Tile widths with s % 8 == 0 fold whole 8-byte SAD lanes into tiles;
 * s in {1, 2, 4} splits each lane with byte-masked SADs; any other s
 * runs the scalar kernel. The vector loads read whole 32-byte blocks:
 * `cur`, `key` and `mask` rows must stay readable up to
 * round_up(tiles * s, 32) bytes (bytes past tiles * s only feed
 * lanes that belong to no tile).
 */
void sad_tile_band_u8_simd(const u8 *cur, i64 cur_stride, const u8 *key,
                           i64 key_stride, const u8 *mask, i64 rows,
                           i64 tiles, i64 s, i32 *out);

} // namespace eva2

#endif // EVA2_SIMD_SIMD_KERNELS_H
