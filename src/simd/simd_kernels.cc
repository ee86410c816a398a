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
      case GemmVariant::kMr1xNv4: return "mr1xnv4";
      case GemmVariant::kMr2xNv2: return "mr2xnv2";
      case GemmVariant::kMr2xNv4: return "mr2xnv4";
      case GemmVariant::kMr4xNv2: return "mr4xnv2";
      case GemmVariant::kMr4xNv3: return "mr4xnv3";
    }
    return "unknown";
}

const std::vector<GemmVariant> &
simd_gemm_variants()
{
    static const std::vector<GemmVariant> variants = {
        GemmVariant::kMr1xNv4, GemmVariant::kMr2xNv2,
        GemmVariant::kMr2xNv4, GemmVariant::kMr4xNv2,
        GemmVariant::kMr4xNv3,
    };
    return variants;
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
 * of output pixels, all accumulators live in registers. Loads each
 * packed-column vector once per k and reuses it across the MR rows —
 * the arithmetic-intensity win the scalar blocked kernel (one row at
 * a time) cannot have. Per output element the accumulation is
 * ascending-k into a single chain starting from the bias. Fused tiles
 * use fma (one rounding per tap, bounded divergence); unfused tiles
 * spell out mul then add (two roundings per tap, and the TU's
 * -ffp-contract=off keeps them apart), so every lane repeats the
 * scalar gemm_tile sequence exactly.
 */
template <int MR, int NV, bool Fused>
void
gemm_register_tile(const float *weights, const float *biases,
                   const float *col, i64 ld, i64 m0, i64 taps, i64 n,
                   i64 j0, float *out, bool fuse_relu)
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
        const float *brow = col + k * ld + j0;
        VecF bv[NV];
        for (int v = 0; v < NV; ++v) {
            bv[v] = VecF::load(brow + v * L);
        }
        const float *wcol = weights + m0 * taps + k;
        for (int r = 0; r < MR; ++r) {
            const VecF wv = VecF::broadcast(wcol[r * taps]);
            for (int v = 0; v < NV; ++v) {
                if constexpr (Fused) {
                    acc[r][v] = acc[r][v].fma(wv, bv[v]);
                } else {
                    acc[r][v] = acc[r][v] + wv * bv[v];
                }
            }
        }
    }
    const VecF zero = VecF::zero();
    for (int r = 0; r < MR; ++r) {
        float *c = out + (m0 + r) * n + j0;
        for (int v = 0; v < NV; ++v) {
            const VecF res =
                fuse_relu ? max(acc[r][v], zero) : acc[r][v];
            res.store(c + v * L);
        }
    }
}

/**
 * Tail columns of a strip (fewer than one vector): scalar, ascending
 * k, explicit mul+add — the scalar reference sequence, so the tail is
 * bit-exact for every variant.
 */
void
gemm_scalar_tail(const float *weights, const float *biases,
                 const float *col, i64 ld, i64 out_c, i64 taps, i64 n,
                 i64 j0, i64 jn, float *out, bool fuse_relu)
{
    for (i64 m = 0; m < out_c; ++m) {
        const float *w = weights + m * taps;
        for (i64 j = j0; j < j0 + jn; ++j) {
            float acc = biases[m];
            for (i64 k = 0; k < taps; ++k) {
                acc += w[k] * col[k * ld + j];
            }
            out[m * n + j] =
                fuse_relu ? (acc > 0.0f ? acc : 0.0f) : acc;
        }
    }
}

/** Geometry of one variant's register tile. */
struct TileGeom
{
    int mr;
    int nv;
};

TileGeom
variant_geom(GemmVariant v)
{
    switch (v) {
      case GemmVariant::kExact: return {4, 2};
      case GemmVariant::kMr1xNv4: return {1, 4};
      case GemmVariant::kMr2xNv2: return {2, 2};
      case GemmVariant::kMr2xNv4: return {2, 4};
      case GemmVariant::kMr4xNv2: return {4, 2};
      case GemmVariant::kMr4xNv3: return {4, 3};
      case GemmVariant::kScalar: break;
    }
    throw InternalError("gemm_strip_simd: scalar variant dispatched "
                        "to the SIMD kernel");
}

template <int MR, int NV, bool Fused>
void
gemm_strip_impl(const float *weights, const float *biases,
                const float *col, i64 ld, i64 out_c, i64 taps, i64 n,
                i64 j0, i64 jn, float *out, bool fuse_relu)
{
    constexpr i64 L = VecF::kLanes;
    constexpr i64 kFull = NV * L;
    const i64 j_end = j0 + jn;
    i64 j = j0;
    for (; j + kFull <= j_end; j += kFull) {
        i64 m0 = 0;
        for (; m0 + MR <= out_c; m0 += MR) {
            gemm_register_tile<MR, NV, Fused>(weights, biases, col, ld,
                                              m0, taps, n, j, out,
                                              fuse_relu);
        }
        for (; m0 < out_c; ++m0) {
            gemm_register_tile<1, NV, Fused>(weights, biases, col, ld,
                                             m0, taps, n, j, out,
                                             fuse_relu);
        }
    }
    // Single-vector columns past the last full tile.
    for (; j + L <= j_end; j += L) {
        for (i64 m0 = 0; m0 < out_c; ++m0) {
            gemm_register_tile<1, 1, Fused>(weights, biases, col, ld,
                                            m0, taps, n, j, out,
                                            fuse_relu);
        }
    }
    if (j < j_end) {
        gemm_scalar_tail(weights, biases, col, ld, out_c, taps, n, j,
                         j_end - j, out, fuse_relu);
    }
}

} // namespace

void
gemm_strip_simd(GemmVariant variant, const float *weights,
                const float *biases, const float *col, i64 ld,
                i64 out_c, i64 taps, i64 n, i64 j0, i64 jn, float *out,
                bool fuse_relu)
{
    switch (variant) {
      case GemmVariant::kExact:
        gemm_strip_impl<4, 2, false>(weights, biases, col, ld, out_c,
                                     taps, n, j0, jn, out, fuse_relu);
        return;
      case GemmVariant::kMr1xNv4:
        gemm_strip_impl<1, 4, true>(weights, biases, col, ld, out_c,
                                    taps, n, j0, jn, out, fuse_relu);
        return;
      case GemmVariant::kMr2xNv2:
        gemm_strip_impl<2, 2, true>(weights, biases, col, ld, out_c,
                                    taps, n, j0, jn, out, fuse_relu);
        return;
      case GemmVariant::kMr2xNv4:
        gemm_strip_impl<2, 4, true>(weights, biases, col, ld, out_c,
                                    taps, n, j0, jn, out, fuse_relu);
        return;
      case GemmVariant::kMr4xNv2:
        gemm_strip_impl<4, 2, true>(weights, biases, col, ld, out_c,
                                    taps, n, j0, jn, out, fuse_relu);
        return;
      case GemmVariant::kMr4xNv3:
        gemm_strip_impl<4, 3, true>(weights, biases, col, ld, out_c,
                                    taps, n, j0, jn, out, fuse_relu);
        return;
      case GemmVariant::kScalar: break;
    }
    throw InternalError("gemm_strip_simd: scalar variant dispatched "
                        "to the SIMD kernel");
}

i64
gemm_strip_width(GemmVariant variant)
{
    // Four full register tiles per parallel_for strip: wide enough to
    // amortize the dispatch, narrow enough to split small planes.
    const TileGeom g = variant_geom(variant);
    return 4 * static_cast<i64>(g.nv) * VecF::kLanes;
}

float
fc_dot_simd(const float *w, const float *x, i64 n, float bias)
{
    constexpr i64 L = VecF::kLanes;
    VecF a0 = VecF::zero();
    VecF a1 = VecF::zero();
    VecF a2 = VecF::zero();
    VecF a3 = VecF::zero();
    i64 i = 0;
    for (; i + 4 * L <= n; i += 4 * L) {
        a0 = a0.fma(VecF::load(w + i), VecF::load(x + i));
        a1 = a1.fma(VecF::load(w + i + L), VecF::load(x + i + L));
        a2 = a2.fma(VecF::load(w + i + 2 * L),
                    VecF::load(x + i + 2 * L));
        a3 = a3.fma(VecF::load(w + i + 3 * L),
                    VecF::load(x + i + 3 * L));
    }
    for (; i + L <= n; i += L) {
        a0 = a0.fma(VecF::load(w + i), VecF::load(x + i));
    }
    float s = ((a0 + a1) + (a2 + a3)).hsum();
    for (; i < n; ++i) {
        s += w[i] * x[i];
    }
    return bias + s;
}

namespace {

template <int NB>
void
fc_dot_batched_impl(const float *w, float bias, const float *const *xs,
                    i64 n, float *out)
{
    constexpr i64 L = VecF::kLanes;
    VecF acc[NB];
    for (int s = 0; s < NB; ++s) {
        acc[s] = VecF::zero();
    }
    i64 i = 0;
    for (; i + L <= n; i += L) {
        const VecF wv = VecF::load(w + i);
        for (int s = 0; s < NB; ++s) {
            acc[s] = acc[s].fma(wv, VecF::load(xs[s] + i));
        }
    }
    for (int s = 0; s < NB; ++s) {
        float t = acc[s].hsum();
        for (i64 j = i; j < n; ++j) {
            t += w[j] * xs[s][j];
        }
        out[s] = bias + t;
    }
}

} // namespace

void
fc_dot_batched_simd(const float *w, float bias, const float *const *xs,
                    i64 nb, i64 n, float *out)
{
    switch (nb) {
      case 1: fc_dot_batched_impl<1>(w, bias, xs, n, out); return;
      case 2: fc_dot_batched_impl<2>(w, bias, xs, n, out); return;
      case 3: fc_dot_batched_impl<3>(w, bias, xs, n, out); return;
      case 4: fc_dot_batched_impl<4>(w, bias, xs, n, out); return;
      case 5: fc_dot_batched_impl<5>(w, bias, xs, n, out); return;
      case 6: fc_dot_batched_impl<6>(w, bias, xs, n, out); return;
      case 7: fc_dot_batched_impl<7>(w, bias, xs, n, out); return;
      case 8: fc_dot_batched_impl<8>(w, bias, xs, n, out); return;
      default:
        throw InternalError("fc_dot_batched_simd: block width out of "
                            "range");
    }
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

#if defined(EVA2_SIMD_ISA_AVX2)
namespace {

/**
 * Lane-parallel |double(a) - double(b)| of four float lanes. The
 * widening happens before the subtraction — that order is part of
 * the bit-exactness contract with the scalar sad_span.
 */
inline __m256d
sad_abs_diff_pd(__m128 fa, __m128 fb)
{
    const __m256d sign = _mm256_set1_pd(-0.0);
    return _mm256_andnot_pd(
        sign, _mm256_sub_pd(_mm256_cvtps_pd(fa), _mm256_cvtps_pd(fb)));
}

/**
 * The fixed pairwise stripe reduction ((s0+s1)+(s2+s3)) +
 * ((s4+s5)+(s6+s7)) for stripe vectors lo = [s0..s3], hi = [s4..s7].
 * hadd interleaves the 128-bit lanes, giving [s01, s45, s23, s67];
 * adding its halves yields [s01+s23, s45+s67], and the final scalar
 * add matches the scalar tree's root exactly.
 */
inline double
sad_reduce_stripes(__m256d lo, __m256d hi)
{
    const __m256d h = _mm256_hadd_pd(lo, hi);
    const __m128d q = _mm_add_pd(_mm256_castpd256_pd128(h),
                                 _mm256_extractf128_pd(h, 1));
    return _mm_cvtsd_f64(q) + _mm_cvtsd_f64(_mm_unpackhi_pd(q, q));
}

/**
 * Tile row of whole 8-float groups (s = 8 * kGroups): keep each
 * tile's stripe vectors in registers and reduce tiles in transposed
 * batches of four so the horizontal work amortizes across the row.
 * Per tile, hadd + permute yield [s01, s23, s45, s67]; a second hadd
 * level pairs tiles into [A_L, B_L, A_H, B_H] (L = s01+s23,
 * H = s45+s67), and regrouping the 128-bit halves before the final
 * add produces each tile's exact scalar tree root
 * (s01+s23)+(s45+s67) — bit-exact, just four tiles at a time. The
 * compile-time group count lets the inner loop unroll fully for the
 * common receptive-field strides.
 */
template <i64 kGroups>
inline void
sad_tile_row_groups(const float *a, const float *b, i64 tiles,
                    double *acc)
{
    const i64 s = kGroups * 8;
    i64 t = 0;
    for (; t + 4 <= tiles; t += 4) {
        __m256d part[4];
        for (i64 j = 0; j < 4; ++j) {
            const float *pa = a + (t + j) * s;
            const float *pb = b + (t + j) * s;
            __m256d lo = _mm256_setzero_pd();
            __m256d hi = _mm256_setzero_pd();
            for (i64 g = 0; g < kGroups; ++g) {
                lo = _mm256_add_pd(
                    lo, sad_abs_diff_pd(_mm_loadu_ps(pa + g * 8),
                                        _mm_loadu_ps(pb + g * 8)));
                hi = _mm256_add_pd(
                    hi,
                    sad_abs_diff_pd(_mm_loadu_ps(pa + g * 8 + 4),
                                    _mm_loadu_ps(pb + g * 8 + 4)));
            }
            const __m256d h = _mm256_hadd_pd(lo, hi);
            part[j] =
                _mm256_permute4x64_pd(h, _MM_SHUFFLE(3, 1, 2, 0));
        }
        const __m256d q01 = _mm256_hadd_pd(part[0], part[1]);
        const __m256d q23 = _mm256_hadd_pd(part[2], part[3]);
        const __m256d lo128 = _mm256_permute2f128_pd(q01, q23, 0x20);
        const __m256d hi128 = _mm256_permute2f128_pd(q01, q23, 0x31);
        const __m256d sums = _mm256_add_pd(lo128, hi128);
        _mm256_storeu_pd(
            acc + t, _mm256_add_pd(_mm256_loadu_pd(acc + t), sums));
    }
    for (; t < tiles; ++t) {
        acc[t] += sad_span_simd(a + t * s, b + t * s, s);
    }
}

} // namespace
#endif

double
sad_span_simd(const float *a, const float *b, i64 n)
{
#if defined(EVA2_SIMD_ISA_AVX2)
    // Stripe vectors: lanes of `lo` are stripes 0..3, lanes of `hi`
    // stripes 4..7, accumulated in ascending-i order like the scalar
    // reference.
    __m256d lo = _mm256_setzero_pd();
    __m256d hi = _mm256_setzero_pd();
    i64 i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 fa = _mm256_loadu_ps(a + i);
        const __m256 fb = _mm256_loadu_ps(b + i);
        lo = _mm256_add_pd(lo,
                           sad_abs_diff_pd(_mm256_castps256_ps128(fa),
                                           _mm256_castps256_ps128(fb)));
        hi = _mm256_add_pd(hi,
                           sad_abs_diff_pd(_mm256_extractf128_ps(fa, 1),
                                           _mm256_extractf128_ps(fb, 1)));
    }
    if (i < n) {
        double st[8];
        _mm256_storeu_pd(st, lo);
        _mm256_storeu_pd(st + 4, hi);
        for (; i < n; ++i) {
            st[i % 8] += std::fabs(static_cast<double>(a[i]) -
                                   static_cast<double>(b[i]));
        }
        const double s01 = st[0] + st[1];
        const double s23 = st[2] + st[3];
        const double s45 = st[4] + st[5];
        const double s67 = st[6] + st[7];
        return (s01 + s23) + (s45 + s67);
    }
    return sad_reduce_stripes(lo, hi);
#else
    return sad_span(a, b, n);
#endif
}

void
sad_tile_row_simd(const float *a, const float *b, i64 tiles, i64 s,
                  double *acc)
{
#if defined(EVA2_SIMD_ISA_AVX2)
    if (s == 2) {
        // One 8-float load spans 4 tiles; hadd pairs the lanes into
        // per-tile sums [t0, t2, t1, t3], and the permute restores
        // tile order. A width-2 span's stripe reduction is exactly
        // e0+e1 (the other stripes are +0.0), so this is bit-exact.
        i64 t = 0;
        for (; t + 4 <= tiles; t += 4) {
            const __m256 fa = _mm256_loadu_ps(a + t * 2);
            const __m256 fb = _mm256_loadu_ps(b + t * 2);
            const __m256d d_lo =
                sad_abs_diff_pd(_mm256_castps256_ps128(fa),
                                _mm256_castps256_ps128(fb));
            const __m256d d_hi =
                sad_abs_diff_pd(_mm256_extractf128_ps(fa, 1),
                                _mm256_extractf128_ps(fb, 1));
            const __m256d h = _mm256_hadd_pd(d_lo, d_hi);
            const __m256d tile =
                _mm256_permute4x64_pd(h, _MM_SHUFFLE(3, 1, 2, 0));
            _mm256_storeu_pd(
                acc + t, _mm256_add_pd(_mm256_loadu_pd(acc + t), tile));
        }
        for (; t < tiles; ++t) {
            acc[t] += sad_span_simd(a + t * 2, b + t * 2, 2);
        }
        return;
    }
    if (s == 4) {
        // One 8-float load spans 2 tiles; two hadd levels produce
        // each tile's exact (e0+e1)+(e2+e3) reduction.
        i64 t = 0;
        for (; t + 2 <= tiles; t += 2) {
            const __m256 fa = _mm256_loadu_ps(a + t * 4);
            const __m256 fb = _mm256_loadu_ps(b + t * 4);
            const __m256d d_lo =
                sad_abs_diff_pd(_mm256_castps256_ps128(fa),
                                _mm256_castps256_ps128(fb));
            const __m256d d_hi =
                sad_abs_diff_pd(_mm256_extractf128_ps(fa, 1),
                                _mm256_extractf128_ps(fb, 1));
            const __m256d h = _mm256_hadd_pd(d_lo, d_hi);
            const __m128d q = _mm_add_pd(_mm256_castpd256_pd128(h),
                                         _mm256_extractf128_pd(h, 1));
            _mm_storeu_pd(acc + t,
                          _mm_add_pd(_mm_loadu_pd(acc + t), q));
        }
        for (; t < tiles; ++t) {
            acc[t] += sad_span_simd(a + t * 4, b + t * 4, 4);
        }
        return;
    }
    if (s % 8 == 0) {
        // Batched transposed reduction (sad_tile_row_groups) for the
        // common receptive-field strides; larger multiples of 8 fall
        // through to the per-tile path.
        switch (s / 8) {
          case 1: sad_tile_row_groups<1>(a, b, tiles, acc); return;
          case 2: sad_tile_row_groups<2>(a, b, tiles, acc); return;
          case 3: sad_tile_row_groups<3>(a, b, tiles, acc); return;
          case 4: sad_tile_row_groups<4>(a, b, tiles, acc); return;
          default: break;
        }
    }
    for (i64 t = 0; t < tiles; ++t) {
        acc[t] += sad_span_simd(a + t * s, b + t * s, s);
    }
#else
    sad_tile_row(a, b, tiles, s, acc);
#endif
}

} // namespace eva2
