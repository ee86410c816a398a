#include "cnn/conv_kernels.h"

#include <algorithm>
#include <cstring>

#include "runtime/parallel_for.h"
#include "util/math_util.h"

namespace eva2 {

namespace {

/**
 * GEMM tile width in output pixels. 32 floats of accumulator fits
 * the vector register file comfortably (8 SSE / 4 AVX registers)
 * while a K x 32 strip of the packed matrix stays L2-resident for
 * every realistic K in the model zoo.
 */
constexpr i64 kTileN = 32;

/**
 * One output-pixel tile of the GEMM: C[m][j0..j0+jn) for all m, with
 * packed rows `ld` apart and output rows `n` apart. Each accumulator
 * starts from the bias and sums taps in ascending k: the reference
 * per-output accumulation order every other tile reproduces.
 */
void
gemm_tile(const float *weights, const float *biases, const float *col,
          i64 ld, i64 out_c, i64 taps, i64 n, i64 j0, i64 jn,
          float *out, bool fuse_relu)
{
    float acc[kTileN];
    for (i64 m = 0; m < out_c; ++m) {
        const float *w = weights + m * taps;
        for (i64 jj = 0; jj < jn; ++jj) {
            acc[jj] = biases[m];
        }
        for (i64 k = 0; k < taps; ++k) {
            const float wk = w[k];
            const float *b = col + k * ld + j0;
            for (i64 jj = 0; jj < jn; ++jj) {
                acc[jj] += wk * b[jj];
            }
        }
        float *c = out + m * n + j0;
        if (fuse_relu) {
            for (i64 jj = 0; jj < jn; ++jj) {
                c[jj] = acc[jj] > 0.0f ? acc[jj] : 0.0f;
            }
        } else {
            for (i64 jj = 0; jj < jn; ++jj) {
                c[jj] = acc[jj];
            }
        }
    }
}

/**
 * Pack tap row `k` of one sample into a column matrix whose rows are
 * `row_stride` wide: the sample's output pixels land at columns
 * [col_offset, col_offset + oh*ow). The single-sample packer uses
 * row_stride == im2col_ld(oh*ow) and offset 0; the batched packer
 * lays samples side by side in wider rows.
 */
void
pack_tap_row(const Tensor &in, const ConvGeometry &g,
             const Shape &out_shape, float *dst, i64 row_stride,
             i64 col_offset, i64 k)
{
    const i64 kx = k % g.kernel;
    const i64 ky = (k / g.kernel) % g.kernel;
    const i64 ic = k / (g.kernel * g.kernel);
    const i64 ih = in.height();
    const i64 iw = in.width();
    const i64 ow = out_shape.w;
    float *row = dst + k * row_stride + col_offset;
    const float *plane = in.channel(ic).data();
    // Stride 1: output column ox reads source column ox - pad + kx, so
    // every in-bounds row is one contiguous span [lo, hi) framed by
    // zero padding, the same for every oy.
    const i64 lo = std::clamp<i64>(g.pad - kx, 0, ow);
    const i64 hi = std::clamp<i64>(iw + g.pad - kx, lo, ow);
    for (i64 oy = 0; oy < out_shape.h; ++oy) {
        const i64 y = oy * g.stride - g.pad + ky;
        float *r = row + oy * ow;
        if (y < 0 || y >= ih) {
            std::fill(r, r + ow, 0.0f);
            continue;
        }
        const float *src = plane + y * iw;
        if (g.stride == 1) {
            std::fill(r, r + lo, 0.0f);
            if (hi > lo) {
                std::copy(src + (lo - g.pad + kx),
                          src + (hi - g.pad + kx), r + lo);
            }
            std::fill(r + hi, r + ow, 0.0f);
            continue;
        }
        for (i64 ox = 0; ox < ow; ++ox) {
            const i64 x = ox * g.stride - g.pad + kx;
            r[ox] = (x < 0 || x >= iw) ? 0.0f : src[x];
        }
    }
}

/**
 * Full GEMM over `ncols` packed columns (rows `ld` apart), split
 * across threads in disjoint column strips. kScalar runs the blocked
 * reference tile; SIMD variants run their register-tile strip kernel
 * at the variant's preferred strip width. Either way strips write
 * disjoint columns and per-output accumulation order is fixed, so the
 * split is deterministic and thread-count-invariant.
 */
void
run_gemm(GemmVariant variant, const float *weights, const float *biases,
         const float *packed, i64 ld, i64 out_c, i64 taps, i64 ncols,
         float *dst, bool fuse_relu)
{
    const i64 width = variant == GemmVariant::kScalar
                          ? kTileN
                          : gemm_strip_width(variant);
    const i64 strips = ceil_div(ncols, width);
    parallel_for(0, strips, [&](i64 s) {
        const i64 j0 = s * width;
        const i64 jn = std::min<i64>(width, ncols - j0);
        if (variant == GemmVariant::kScalar) {
            gemm_tile(weights, biases, packed, ld, out_c, taps, ncols,
                      j0, jn, dst, fuse_relu);
        } else {
            gemm_strip_simd(variant, weights, biases, packed, ld, out_c,
                            taps, ncols, j0, jn, dst, fuse_relu);
        }
    });
}

} // namespace

void
gemm_strip_scalar(const float *weights, const float *biases,
                  const float *col, i64 ld, i64 out_c, i64 taps, i64 n,
                  i64 j0, i64 jn, float *out, bool fuse_relu)
{
    for (i64 t0 = 0; t0 < jn; t0 += kTileN) {
        const i64 tn = std::min<i64>(kTileN, jn - t0);
        gemm_tile(weights, biases, col, ld, out_c, taps, n, j0 + t0, tn,
                  out, fuse_relu);
    }
}

void
im2col_pack(const Tensor &in, const ConvGeometry &g,
            const Shape &out_shape, Tensor &col)
{
    const i64 taps = im2col_rows(g);
    const i64 ld = im2col_ld(out_shape.h * out_shape.w);
    col.reshape_to(Shape{1, taps, ld});
    float *dst = col.data().data();
    // Rows are independent (one (ic, ky, kx) tap each) and written
    // disjointly, so splitting them across threads is deterministic.
    parallel_for(
        0, taps,
        [&](i64 k) {
            pack_tap_row(in, g, out_shape, dst, ld, 0, k);
        },
        ParallelForOptions{/*grain=*/4, /*pool=*/nullptr});
}

void
conv_im2col_gemm(const Tensor &in, const ConvGeometry &g,
                 const float *weights, const float *biases, Tensor &out,
                 Tensor &col, bool fuse_relu, GemmVariant variant)
{
    const Shape os = out.shape();
    im2col_pack(in, g, os, col);
    const i64 taps = im2col_rows(g);
    const i64 n = os.h * os.w;
    const float *packed = col.data().data();
    float *dst = out.data().data();
    run_gemm(variant, weights, biases, packed, col.width(), g.out_c,
             taps, n, dst, fuse_relu);
}

void
conv_im2col_gemm_batched(const Tensor *const *ins, i64 nb,
                         const ConvGeometry &g, const float *weights,
                         const float *biases, Tensor *const *outs,
                         Tensor &col, Tensor &gemm_out, bool fuse_relu,
                         GemmVariant variant)
{
    require(nb >= 1, "batched conv: batch must be >= 1");
    const Shape os = outs[0]->shape();
    const i64 taps = im2col_rows(g);
    const i64 pix = os.h * os.w;
    const i64 ncols = nb * pix;
    const i64 ld = im2col_ld(ncols);
    col.reshape_to(Shape{1, taps, ld});
    gemm_out.reshape_to(Shape{1, g.out_c, ncols});
    float *packed = col.data().data();
    // Pack every sample side by side: sample i's output pixels occupy
    // columns [i*pix, (i+1)*pix) of every tap row.
    parallel_for(
        0, taps,
        [&](i64 k) {
            for (i64 i = 0; i < nb; ++i) {
                pack_tap_row(*ins[i], g, os, packed, ld, i * pix, k);
            }
        },
        ParallelForOptions{/*grain=*/4, /*pool=*/nullptr});
    // One GEMM over the whole batch's columns. Tiles may span sample
    // boundaries; each output element's accumulation is per-column,
    // so the grouping cannot change any result bit.
    float *dst = gemm_out.data().data();
    run_gemm(variant, weights, biases, packed, ld, g.out_c, taps, ncols,
             dst, fuse_relu);
    // Scatter the interleaved [out_c][nb*pix] product back to each
    // sample's CHW tensor (plain copies: values are already final).
    parallel_for(0, nb, [&](i64 i) {
        float *sample = outs[i]->data().data();
        const float *src = dst + i * pix;
        for (i64 m = 0; m < g.out_c; ++m) {
            std::memcpy(sample + m * pix, src + m * ncols,
                        static_cast<size_t>(pix) * sizeof(float));
        }
    });
}

} // namespace eva2
