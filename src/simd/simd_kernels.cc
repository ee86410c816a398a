/**
 * @file
 * The one ISA-flagged translation unit: every explicit-SIMD kernel
 * variant is implemented here against the Vec wrapper, and the build
 * compiles this file (alone) with elevated ISA flags — `-mavx2 -mfma
 * -ffp-contract=off` on x86_64 when EVA2_SIMD is ON. Nothing in this
 * file runs unless the caller checked simd_supported() first, so the
 * binary stays runnable on machines without the elevated ISA.
 *
 * These kernels run per frame per layer: no std::string, no heap
 * allocation, literal-only require() messages.
 */
// eva2-lint: hot-path
#include "simd/simd_kernels.h"

#include <algorithm>
#include <cmath>

#include "flow/sad_kernels.h"
#include "simd/vec.h"

namespace eva2 {

using simd::VecF;

const char *
gemm_variant_name(GemmVariant v)
{
    switch (v) {
      case GemmVariant::kScalar: return "scalar";
      case GemmVariant::kExact: return "simd_exact";
    }
    return "unknown";
}

GemmVariant
exact_gemm_variant()
{
    return simd_supported() ? GemmVariant::kExact : GemmVariant::kScalar;
}

bool
simd_compiled()
{
    return simd::compiled_simd();
}

bool
simd_supported()
{
#if defined(EVA2_SIMD_ISA_AVX2)
    // Compiled for AVX2+FMA: only dispatch when the running CPU has
    // both (the rest of the binary is baseline-ISA, so the check
    // itself is safe to execute anywhere).
    static const bool ok = __builtin_cpu_supports("avx2") &&
                           __builtin_cpu_supports("fma");
    return ok;
#else
    // SSE2 is the x86_64 baseline and NEON the AArch64 baseline: if
    // the TU compiled for them at all, the CPU has them. The scalar
    // fallback reports unsupported so callers keep the reference
    // kernels (identical numerics, no pointless indirection).
    return simd::compiled_simd();
#endif
}

const char *
simd_isa_name()
{
    return simd::kIsaName;
}

i64
simd_lanes()
{
    return VecF::kLanes;
}

namespace {

/**
 * One full register tile of the GEMM: MR weight rows by NV vectors
 * of output pixels, all accumulators live in registers. `panel` is
 * the tile's first packed column (tap rows `ld` apart) and `out` its
 * first output column (output rows `n` apart). Loads each
 * packed-column vector once per k and reuses it across the MR rows —
 * the arithmetic-intensity win the scalar blocked kernel (one row at
 * a time) cannot have. Per output element the accumulation is
 * ascending-k into a single chain starting from the bias, spelled out
 * as mul then add (two roundings per tap, and the TU's
 * -ffp-contract=off keeps them apart), so every lane repeats the
 * scalar gemm_tile sequence exactly.
 */
template <int MR, int NV>
void
gemm_register_tile(const float *weights, const float *biases,
                   const float *panel, i64 ld, i64 m0, i64 taps,
                   float *out, i64 n, bool fuse_relu)
{
    constexpr i64 L = VecF::kLanes;
    VecF acc[MR][NV];
    for (int r = 0; r < MR; ++r) {
        const VecF b = VecF::broadcast(biases[m0 + r]);
        for (int v = 0; v < NV; ++v) {
            acc[r][v] = b;
        }
    }
    for (i64 k = 0; k < taps; ++k) {
        const float *brow = panel + k * ld;
        VecF bv[NV];
        for (int v = 0; v < NV; ++v) {
            bv[v] = VecF::load(brow + v * L);
        }
        const float *wcol = weights + m0 * taps + k;
        for (int r = 0; r < MR; ++r) {
            const VecF wv = VecF::broadcast(wcol[r * taps]);
            for (int v = 0; v < NV; ++v) {
                acc[r][v] = acc[r][v] + wv * bv[v];
            }
        }
    }
    const VecF zero = VecF::zero();
    for (int r = 0; r < MR; ++r) {
        float *c = out + (m0 + r) * n;
        for (int v = 0; v < NV; ++v) {
            const VecF res =
                fuse_relu ? max(acc[r][v], zero) : acc[r][v];
            res.store(c + v * L);
        }
    }
}

/**
 * Tail columns of a strip (fewer than one vector), addressed like
 * gemm_register_tile: scalar, ascending k, explicit mul+add — the
 * scalar reference sequence, so the tail is bit-exact too.
 */
void
gemm_scalar_tail(const float *weights, const float *biases,
                 const float *panel, i64 ld, i64 out_c, i64 taps,
                 i64 jn, float *out, i64 n, bool fuse_relu)
{
    for (i64 m = 0; m < out_c; ++m) {
        const float *w = weights + m * taps;
        for (i64 j = 0; j < jn; ++j) {
            float acc = biases[m];
            for (i64 k = 0; k < taps; ++k) {
                acc += w[k] * panel[k * ld + j];
            }
            out[m * n + j] =
                fuse_relu ? (acc > 0.0f ? acc : 0.0f) : acc;
        }
    }
}

/** The kExact register tile: 4 weight rows by 2 vectors of pixels. */
constexpr int kExactMr = 4;
constexpr int kExactNv = 2;

} // namespace

void
gemm_strip_simd(const float *weights, const float *biases,
                const float *panel, i64 ld, i64 out_c, i64 taps, i64 n,
                i64 j0, i64 jn, float *out, bool fuse_relu)
{
    constexpr i64 L = VecF::kLanes;
    constexpr i64 kFull = kExactNv * L;
    // Panel column j is output column j0 + j.
    float *strip_out = out + j0;
    i64 j = 0;
    for (; j + kFull <= jn; j += kFull) {
        i64 m0 = 0;
        for (; m0 + kExactMr <= out_c; m0 += kExactMr) {
            gemm_register_tile<kExactMr, kExactNv>(
                weights, biases, panel + j, ld, m0, taps, strip_out + j,
                n, fuse_relu);
        }
        for (; m0 < out_c; ++m0) {
            gemm_register_tile<1, kExactNv>(weights, biases, panel + j,
                                            ld, m0, taps, strip_out + j,
                                            n, fuse_relu);
        }
    }
    // Single-vector columns past the last full tile.
    for (; j + L <= jn; j += L) {
        for (i64 m0 = 0; m0 < out_c; ++m0) {
            gemm_register_tile<1, 1>(weights, biases, panel + j, ld, m0,
                                     taps, strip_out + j, n, fuse_relu);
        }
    }
    if (j < jn) {
        gemm_scalar_tail(weights, biases, panel + j, ld, out_c, taps,
                         jn - j, strip_out + j, n, fuse_relu);
    }
}

i64
gemm_strip_width()
{
    // Four full register tiles per parallel_for strip: wide enough to
    // amortize the dispatch, narrow enough to split small planes.
    return 4 * kExactNv * VecF::kLanes;
}

void
relu_simd(const float *in, float *out, i64 n)
{
    constexpr i64 L = VecF::kLanes;
    const VecF zero = VecF::zero();
    i64 i = 0;
    for (; i + L <= n; i += L) {
        max(VecF::load(in + i), zero).store(out + i);
    }
    for (; i < n; ++i) {
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
    }
}

void
warp_apply_bilinear_simd(const float *plane, const i32 *o00,
                         const i32 *o01, const i32 *o10, const i32 *o11,
                         const i32 *k00, const i32 *k01, const i32 *k10,
                         const i32 *k11, const double *wx0,
                         const double *wx1, const double *wy0,
                         const double *wy1, i64 n, float *out)
{
    i64 p = 0;
#if defined(EVA2_SIMD_ISA_AVX2)
    // Four pixels per iteration in double precision: masked-gather
    // each corner's four floats (out-of-bounds corners select an
    // exact +0.0, the zero-padding value — see the header on why a
    // multiply-mask would not be bit-exact), widen, and evaluate the
    // exact expression tree of the scalar reference (mul/add only).
    const __m128 fzero = _mm_setzero_ps();
    for (; p + 4 <= n; p += 4) {
        const auto corner = [&](const i32 *o, const i32 *k) {
            const __m128i idx = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(o + p));
            const __m128 mask = _mm_castsi128_ps(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(k + p)));
            const __m128 f =
                _mm_mask_i32gather_ps(fzero, plane, idx, mask, 4);
            return _mm256_cvtps_pd(f);
        };
        const __m256d v00 = corner(o00, k00);
        const __m256d v01 = corner(o01, k01);
        const __m256d v10 = corner(o10, k10);
        const __m256d v11 = corner(o11, k11);
        const __m256d x0 = _mm256_loadu_pd(wx0 + p);
        const __m256d x1 = _mm256_loadu_pd(wx1 + p);
        const __m256d top = _mm256_add_pd(_mm256_mul_pd(v00, x0),
                                          _mm256_mul_pd(v01, x1));
        const __m256d bot = _mm256_add_pd(_mm256_mul_pd(v10, x0),
                                          _mm256_mul_pd(v11, x1));
        const __m256d res = _mm256_add_pd(
            _mm256_mul_pd(top, _mm256_loadu_pd(wy0 + p)),
            _mm256_mul_pd(bot, _mm256_loadu_pd(wy1 + p)));
        _mm_storeu_ps(out + p, _mm256_cvtpd_ps(res));
    }
#endif
    for (; p < n; ++p) {
        const double v00 =
            k00[p] ? static_cast<double>(plane[o00[p]]) : 0.0;
        const double v01 =
            k01[p] ? static_cast<double>(plane[o01[p]]) : 0.0;
        const double v10 =
            k10[p] ? static_cast<double>(plane[o10[p]]) : 0.0;
        const double v11 =
            k11[p] ? static_cast<double>(plane[o11[p]]) : 0.0;
        const double top = v00 * wx0[p] + v01 * wx1[p];
        const double bot = v10 * wx0[p] + v11 * wx1[p];
        out[p] = static_cast<float>(top * wy0[p] + bot * wy1[p]);
    }
}

void
warp_apply_nearest_simd(const float *plane, const i32 *off, i64 n,
                        float *out)
{
    i64 p = 0;
#if defined(EVA2_SIMD_ISA_AVX2)
    const __m256i neg1 = _mm256_set1_epi32(-1);
    const __m256 zero = _mm256_setzero_ps();
    for (; p + 8 <= n; p += 8) {
        const __m256i idx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(off + p));
        // mask lanes with off >= 0; masked-off lanes read nothing
        // and produce the zero-padding value.
        const __m256 mask =
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(idx, neg1));
        const __m256 v =
            _mm256_mask_i32gather_ps(zero, plane, idx, mask, 4);
        _mm256_storeu_ps(out + p, v);
    }
#endif
    for (; p < n; ++p) {
        out[p] = off[p] >= 0 ? plane[off[p]] : 0.0f;
    }
}

void
quantize_pixels_simd(const float *in, i64 n, u8 *out)
{
    i64 i = 0;
#if defined(EVA2_SIMD_ISA_AVX2)
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 scale = _mm256_set1_ps(255.0f);
    // packus interleaves 128-bit lanes; this restores pixel order.
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const auto q = [&](const float *p) {
        // max(x, 0) returns the second operand (0) for NaN x.
        const __m256 c = _mm256_min_ps(
            _mm256_max_ps(_mm256_loadu_ps(p), zero), one);
        return _mm256_cvtps_epi32(_mm256_mul_ps(c, scale));
    };
    for (; i + 32 <= n; i += 32) {
        const __m256i w01 =
            _mm256_packus_epi32(q(in + i), q(in + i + 8));
        const __m256i w23 =
            _mm256_packus_epi32(q(in + i + 16), q(in + i + 24));
        const __m256i b = _mm256_packus_epi16(w01, w23);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            _mm256_permutevar8x32_epi32(b, order));
    }
#endif
    quantize_pixels(in + i, n - i, out + i);
}

i64
sad_span_u8_simd(const u8 *a, const u8 *b, i64 n)
{
    i64 i = 0;
    i64 total = 0;
#if defined(EVA2_SIMD_ISA_AVX2)
    __m256i acc = _mm256_setzero_si256();
    for (; i + 32 <= n; i += 32) {
        acc = _mm256_add_epi64(
            acc,
            _mm256_sad_epu8(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(b + i))));
    }
    __m128i acc128 = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                   _mm256_extracti128_si256(acc, 1));
    if (i + 16 <= n) {
        acc128 = _mm_add_epi64(
            acc128,
            _mm_sad_epu8(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(a + i)),
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(b + i))));
        i += 16;
    }
    total = _mm_cvtsi128_si64(acc128) + _mm_extract_epi64(acc128, 1);
#endif
    return total + sad_span_u8(a + i, b + i, n - i);
}

#if defined(EVA2_SIMD_ISA_AVX2)
namespace {

inline __m256i
load32(const u8 *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

/**
 * Add the four u64 lanes of a SAD accumulator to their tiles: lane l
 * of 32-byte block j sums bytes starting at 8 * (4j + l) + `first`
 * (the sub-lane's first byte), which lie in tile
 * (8 * (4j + l) + first) / s. Lanes past the last tile only ever saw
 * padding and are dropped.
 */
inline void
fold_lanes(__m256i acc, i64 j, i64 first, i64 s, i64 tiles, i32 *out)
{
    alignas(32) u64 lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    for (i64 l = 0; l < 4; ++l) {
        const i64 t = (8 * (4 * j + l) + first) / s;
        if (t < tiles) {
            out[t] += static_cast<i32>(lanes[l]);
        }
    }
}

/**
 * s % 8 == 0: kNv 32-byte blocks per pass, each summed over all rows
 * by one _mm256_sad_epu8 per row (32 |cur & mask - key| in one
 * instruction, eight per u64 lane), then folded into tiles once.
 */
template <i64 kNv>
inline void
band_whole_lanes(const u8 *cur, i64 cur_stride, const u8 *key,
                 i64 key_stride, const u8 *mask, i64 rows, i64 j0,
                 i64 s, i64 tiles, i32 *out)
{
    __m256i acc[kNv];
    __m256i m[kNv];
    for (i64 v = 0; v < kNv; ++v) {
        acc[v] = _mm256_setzero_si256();
        m[v] = load32(mask + (j0 + v) * 32);
    }
    for (i64 r = 0; r < rows; ++r) {
        const u8 *c = cur + r * cur_stride + j0 * 32;
        const u8 *k = key + r * key_stride + j0 * 32;
        for (i64 v = 0; v < kNv; ++v) {
            acc[v] = _mm256_add_epi64(
                acc[v], _mm256_sad_epu8(
                            _mm256_and_si256(load32(c + v * 32), m[v]),
                            load32(k + v * 32)));
        }
    }
    for (i64 v = 0; v < kNv; ++v) {
        fold_lanes(acc[v], j0 + v, 0, s, tiles, out);
    }
}

/**
 * s = 8 / kSub for kSub in {2, 4, 8}: each u64 lane holds kSub
 * tiles, so the byte differences are split with kSub byte masks and
 * each part summed by its own SAD against zero.
 */
template <i64 kSub>
inline void
band_split_lanes(const u8 *cur, i64 cur_stride, const u8 *key,
                 i64 key_stride, const u8 *mask, i64 rows, i64 nvec,
                 i64 tiles, i32 *out)
{
    constexpr i64 kW = 8 / kSub;
    __m256i part[kSub]; // bytes [k*kW, (k+1)*kW) of every u64 lane
    for (i64 k = 0; k < kSub; ++k) {
        part[k] = _mm256_set1_epi64x(static_cast<long long>(
            ((u64{1} << (8 * kW)) - 1) << (8 * kW * k)));
    }
    const __m256i zero = _mm256_setzero_si256();
    for (i64 j = 0; j < nvec; ++j) {
        const __m256i m = load32(mask + j * 32);
        __m256i acc[kSub];
        for (i64 k = 0; k < kSub; ++k) {
            acc[k] = zero;
        }
        for (i64 r = 0; r < rows; ++r) {
            const __m256i a =
                _mm256_and_si256(load32(cur + r * cur_stride + j * 32), m);
            const __m256i b = load32(key + r * key_stride + j * 32);
            const __m256i d = _mm256_or_si256(_mm256_subs_epu8(a, b),
                                              _mm256_subs_epu8(b, a));
            for (i64 k = 0; k < kSub; ++k) {
                acc[k] = _mm256_add_epi64(
                    acc[k],
                    _mm256_sad_epu8(_mm256_and_si256(d, part[k]), zero));
            }
        }
        for (i64 k = 0; k < kSub; ++k) {
            fold_lanes(acc[k], j, k * kW, kW, tiles, out);
        }
    }
}

} // namespace
#endif

void
sad_tile_band_u8_simd(const u8 *cur, i64 cur_stride, const u8 *key,
                      i64 key_stride, const u8 *mask, i64 rows,
                      i64 tiles, i64 s, i32 *out)
{
#if defined(EVA2_SIMD_ISA_AVX2)
    const i64 nvec = (tiles * s + 31) / 32;
    if (s % 8 == 0) {
        std::fill(out, out + tiles, 0);
        i64 j = 0;
        for (; j + 4 <= nvec; j += 4) {
            band_whole_lanes<4>(cur, cur_stride, key, key_stride, mask,
                                rows, j, s, tiles, out);
        }
        for (; j < nvec; ++j) {
            band_whole_lanes<1>(cur, cur_stride, key, key_stride, mask,
                                rows, j, s, tiles, out);
        }
        return;
    }
    if (8 % s == 0) {
        std::fill(out, out + tiles, 0);
        switch (s) {
          case 1:
            band_split_lanes<8>(cur, cur_stride, key, key_stride, mask,
                                rows, nvec, tiles, out);
            return;
          case 2:
            band_split_lanes<4>(cur, cur_stride, key, key_stride, mask,
                                rows, nvec, tiles, out);
            return;
          default:
            band_split_lanes<2>(cur, cur_stride, key, key_stride, mask,
                                rows, nvec, tiles, out);
            return;
        }
    }
#endif
    sad_tile_band_u8(cur, cur_stride, key, key_stride, mask, rows, tiles,
                     s, out);
}

} // namespace eva2
