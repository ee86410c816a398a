#include "cnn/conv_kernels.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "runtime/parallel_for.h"
#include "util/math_util.h"

namespace eva2 {

namespace {

/**
 * GEMM tile width in output pixels. 32 floats of accumulator fits
 * the vector register file comfortably (8 SSE / 4 AVX registers),
 * and it is also the scalar variant's strip width, so its K x 32
 * panel stays L1/L2-resident for every realistic K in the model zoo.
 */
constexpr i64 kTileN = 32;

/**
 * One output-pixel tile of the GEMM: C[m][0..jn) for all m, where
 * `panel` is the tile's first packed column (tap rows `ld` apart) and
 * `out` its first output column (output rows `n` apart). Each
 * accumulator starts from the bias and sums taps in ascending k: the
 * reference per-output accumulation order every other tile
 * reproduces.
 */
void
gemm_tile(const float *weights, const float *biases, const float *panel,
          i64 ld, i64 out_c, i64 taps, i64 jn, float *out, i64 n,
          bool fuse_relu)
{
    float acc[kTileN];
    for (i64 m = 0; m < out_c; ++m) {
        const float *w = weights + m * taps;
        for (i64 jj = 0; jj < jn; ++jj) {
            acc[jj] = biases[m];
        }
        for (i64 k = 0; k < taps; ++k) {
            const float wk = w[k];
            const float *b = panel + k * ld;
            for (i64 jj = 0; jj < jn; ++jj) {
                acc[jj] += wk * b[jj];
            }
        }
        float *c = out + m * n;
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
 * The calling thread's panel buffer: at least `floats` long and
 * 64-byte aligned. It grows to the largest panel the thread packs and
 * is then reused, so steady-state strips allocate nothing. A strip
 * runs start to finish on one thread — inline on a camera's pool
 * worker or on whichever worker parallel_for hands it — so a
 * thread-local buffer is never shared.
 */
float *
thread_panel(i64 floats)
{
    constexpr size_t kAlign = 64;
    thread_local std::vector<float> buf;
    const size_t bytes = static_cast<size_t>(floats) * sizeof(float);
    const size_t need = static_cast<size_t>(floats) + kAlign / sizeof(float);
    if (buf.size() < need) {
        buf.resize(need);
    }
    void *p = buf.data();
    size_t space = buf.size() * sizeof(float);
    return static_cast<float *>(std::align(kAlign, bytes, p, space));
}

/**
 * The GEMM over all `ncols` columns of `ins`' im2col matrix, split
 * across threads in disjoint column strips of the variant's width;
 * each strip packs its own panel. Strips write disjoint columns and
 * per-output accumulation order is fixed, so the split is
 * deterministic and thread-count-invariant.
 */
void
run_gemm(const Tensor *const *ins, i64 ncols, const ConvGeometry &g,
         const Shape &out_shape, const float *weights,
         const float *biases, float *dst, bool fuse_relu,
         GemmVariant variant)
{
    const i64 width = conv_strip_width(variant);
    parallel_for(0, ceil_div(ncols, width), [&](i64 s) {
        const i64 j0 = s * width;
        conv_gemm_strip(ins, g, out_shape, weights, biases, ncols, j0,
                        std::min<i64>(width, ncols - j0), dst, fuse_relu,
                        variant);
    });
}

} // namespace

void
im2col_pack_strip(const Tensor *const *ins, const ConvGeometry &g,
                  const Shape &out_shape, i64 j0, i64 jn, float *panel)
{
    const i64 ow = out_shape.w;
    const i64 pix = out_shape.h * ow;
    const i64 ih = ins[0]->height();
    const i64 iw = ins[0]->width();
    // One output-row segment at a time: columns [j, j + len) are
    // pixels (oy, ox0 .. ox0+len) of one sample.
    for (i64 j = j0; j < j0 + jn;) {
        const i64 p = j % pix;
        const i64 oy = p / ow;
        const i64 ox0 = p % ow;
        const i64 len = std::min(ow - ox0, j0 + jn - j);
        const Tensor &in = *ins[j / pix];
        float *seg = panel + (j - j0);
        i64 k = 0;
        for (i64 ic = 0; ic < g.in_c; ++ic) {
            const float *plane = in.channel(ic).data();
            for (i64 ky = 0; ky < g.kernel; ++ky) {
                const i64 y = oy * g.stride - g.pad + ky;
                if (y < 0 || y >= ih) {
                    for (i64 kx = 0; kx < g.kernel; ++kx, ++k) {
                        std::fill(seg + k * jn, seg + k * jn + len, 0.0f);
                    }
                    continue;
                }
                const float *src = plane + y * iw;
                for (i64 kx = 0; kx < g.kernel; ++kx, ++k) {
                    float *r = seg + k * jn;
                    if (g.stride == 1) {
                        // Output column ox reads source column
                        // ox - pad + kx, so the segment is one span
                        // [lo, hi) framed by zero padding.
                        const i64 lo = std::clamp<i64>(g.pad - kx, ox0,
                                                       ox0 + len);
                        const i64 hi = std::clamp<i64>(iw + g.pad - kx,
                                                       lo, ox0 + len);
                        std::fill(r, r + (lo - ox0), 0.0f);
                        if (hi > lo) {
                            std::copy(src + (lo - g.pad + kx),
                                      src + (hi - g.pad + kx),
                                      r + (lo - ox0));
                        }
                        std::fill(r + (hi - ox0), r + len, 0.0f);
                        continue;
                    }
                    for (i64 t = 0; t < len; ++t) {
                        const i64 x = (ox0 + t) * g.stride - g.pad + kx;
                        r[t] = (x < 0 || x >= iw) ? 0.0f : src[x];
                    }
                }
            }
        }
        j += len;
    }
}

i64
conv_strip_width(GemmVariant variant)
{
    return variant == GemmVariant::kScalar ? kTileN : gemm_strip_width();
}

void
gemm_strip_scalar(const float *weights, const float *biases,
                  const float *panel, i64 ld, i64 out_c, i64 taps, i64 n,
                  i64 j0, i64 jn, float *out, bool fuse_relu)
{
    for (i64 t0 = 0; t0 < jn; t0 += kTileN) {
        gemm_tile(weights, biases, panel + t0, ld, out_c, taps,
                  std::min<i64>(kTileN, jn - t0), out + j0 + t0, n,
                  fuse_relu);
    }
}

void
conv_gemm_strip(const Tensor *const *ins, const ConvGeometry &g,
                const Shape &out_shape, const float *weights,
                const float *biases, i64 n, i64 j0, i64 jn, float *out,
                bool fuse_relu, GemmVariant variant)
{
    const i64 taps = im2col_rows(g);
    float *panel = thread_panel(taps * jn);
    im2col_pack_strip(ins, g, out_shape, j0, jn, panel);
    if (variant == GemmVariant::kScalar) {
        gemm_strip_scalar(weights, biases, panel, jn, g.out_c, taps, n,
                          j0, jn, out, fuse_relu);
    } else {
        gemm_strip_simd(weights, biases, panel, jn, g.out_c, taps, n, j0,
                        jn, out, fuse_relu);
    }
}

void
conv_im2col_gemm(const Tensor &in, const ConvGeometry &g,
                 const float *weights, const float *biases, Tensor &out,
                 bool fuse_relu, GemmVariant variant)
{
    const Shape os = out.shape();
    const Tensor *ins[] = {&in};
    run_gemm(ins, os.h * os.w, g, os, weights, biases,
             out.data().data(), fuse_relu, variant);
}

void
conv_im2col_gemm_batched(const Tensor *const *ins, i64 nb,
                         const ConvGeometry &g, const float *weights,
                         const float *biases, Tensor *const *outs,
                         Tensor &gemm_out, bool fuse_relu,
                         GemmVariant variant)
{
    require(nb >= 1, "batched conv: batch must be >= 1");
    const Shape os = outs[0]->shape();
    const i64 pix = os.h * os.w;
    const i64 ncols = nb * pix;
    gemm_out.reshape_to(Shape{1, g.out_c, ncols});
    // One GEMM over the whole batch's columns. Strips may span sample
    // boundaries; each output element's accumulation is per-column,
    // so the grouping cannot change any result bit.
    float *dst = gemm_out.data().data();
    run_gemm(ins, ncols, g, os, weights, biases, dst, fuse_relu,
             variant);
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
