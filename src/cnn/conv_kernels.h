/**
 * @file
 * The convolution kernel every conv layer runs.
 *
 * conv_im2col_gemm packs input patches into a K x N column matrix
 * (K = in_c * kernel^2 taps, N = output pixels) and multiplies by the
 * [out_c x K] weight matrix with an N-tiled GEMM. Tiles keep a strip
 * of the packed matrix hot in cache while every output channel
 * consumes it. The GEMM micro-kernel is a GemmVariant:
 *
 *  - kScalar, the scalar blocked tile: the one conv oracle. It is what
 *    the reference Network::forward runs, the non-SIMD fallback, and
 *    the tile every SIMD variant is compared against;
 *  - kExact, its bit-identical SIMD form (ExecutionPlan's default
 *    wherever simd_supported());
 *  - a tuner-picked fma tile (`kernel=tuned`, bounded divergence).
 *
 * Bit-exactness: for each output element the scalar tile and the
 * kExact tile both start from the bias and accumulate taps in
 * ascending (in_c, ky, kx) order into a single float accumulator, one
 * multiply and one add per tap — the tiles only regroup *which*
 * outputs are computed together, never the per-output order — so
 * their results are bit-identical (padding taps contribute exact
 * zeros). The optional fused ReLU writes max(acc, 0), which is
 * bit-identical to a separate ReLU pass.
 *
 * The packers and the GEMM parallelize over disjoint output regions
 * with the deterministic parallel_for, so results are independent of
 * thread count and nest safely under stream-level parallelism.
 */
#ifndef EVA2_CNN_CONV_KERNELS_H
#define EVA2_CNN_CONV_KERNELS_H

#include "simd/simd_kernels.h"
#include "tensor/tensor.h"

namespace eva2 {

/** Geometry of one dense 2D convolution. */
struct ConvGeometry
{
    i64 in_c = 0;
    i64 out_c = 0;
    i64 kernel = 1;
    i64 stride = 1;
    i64 pad = 0;
};

/** Rows of the im2col matrix: taps per output (in_c * kernel^2). */
inline i64
im2col_rows(const ConvGeometry &g)
{
    return g.in_c * g.kernel * g.kernel;
}

/**
 * Leading dimension (row stride, in floats) of an im2col matrix with
 * `n` columns. Row strides that are a multiple of 1024 floats (4 KiB)
 * put every tap row in the same L1 set, so the GEMM's column strip
 * thrashes one set while the rest of L1 sits idle; those get 16
 * floats (one cache line) of padding, which spreads consecutive rows
 * over consecutive sets. Other widths pack dense.
 */
inline i64
im2col_ld(i64 n)
{
    return n % 1024 == 0 ? n + 16 : n;
}

/**
 * Pack input patches column-major-by-pixel: col[k][j] is tap k of
 * output pixel j, with k ordered (ic, ky, kx) and j ordered (oy, ox).
 * `col` is reshaped to {1, K, im2col_ld(N)}; columns [N, ld) are
 * padding that no kernel reads. Out-of-bounds taps pack as 0. Stride-1
 * rows are copied as contiguous spans (pure data movement, so the
 * packed values are the same as the per-element loop's).
 */
void im2col_pack(const Tensor &in, const ConvGeometry &g,
                 const Shape &out_shape, Tensor &col);

/**
 * The scalar blocked GEMM over one column strip [j0, j0+jn): the
 * bit-exact reference micro-kernel (internally tiled at the blocked
 * kernel's native width). Packed rows are `ld` floats apart, output
 * rows `n`. Exposed so the tuner and tests can race the reference
 * against the SIMD variants on identical inputs.
 */
void gemm_strip_scalar(const float *weights, const float *biases,
                       const float *col, i64 ld, i64 out_c, i64 taps,
                       i64 n, i64 j0, i64 jn, float *out,
                       bool fuse_relu);

/**
 * im2col + blocked GEMM convolution. `out` must be pre-shaped to the
 * layer's output shape; `weights` is [out_c][in_c][ky][kx] flat,
 * `biases` is [out_c]. kScalar (the default argument, the oracle) and
 * kExact are bit-identical (see file comment). `col` is the packing
 * workspace (any shape; it is reshaped here and reusable across calls
 * and layers). An fma
 * `variant` (tuner-selected, see kernel_tuner.h) computes the same
 * GEMM with fused multiply-adds — bounded divergence vs the scalar
 * reference, never bit-exact. Any SIMD variant requires
 * simd_supported().
 */
void conv_im2col_gemm(const Tensor &in, const ConvGeometry &g,
                      const float *weights, const float *biases,
                      Tensor &out, Tensor &col, bool fuse_relu,
                      GemmVariant variant = GemmVariant::kScalar);

/**
 * Batched im2col + blocked GEMM over `nb` same-shape inputs in one
 * pass: every sample's output pixels are packed side by side into one
 * K x (nb * pixels) column matrix, multiplied by the weight matrix in
 * shared column strips, and scattered back to the per-sample output
 * tensors (`outs[i]` pre-shaped to the layer's output shape).
 *
 * Why batch: one sample's late-suffix plane is often smaller than a
 * GEMM tile, so the per-tile weight stream is amortized over a
 * fraction of a tile; concatenating samples fills the tiles and
 * streams each weight row once per strip of output pixels *of the
 * whole batch*. Bit-exactness is untouched — each output element still
 * starts from its bias and accumulates taps in ascending k into one
 * accumulator, so every sample's result is bit-identical to a
 * batch-of-1 conv_im2col_gemm call.
 *
 * `col` and `gemm_out` are caller-owned workspaces (arena slots),
 * reshaped here and reusable across calls and layers.
 */
void conv_im2col_gemm_batched(const Tensor *const *ins, i64 nb,
                              const ConvGeometry &g,
                              const float *weights, const float *biases,
                              Tensor *const *outs, Tensor &col,
                              Tensor &gemm_out, bool fuse_relu,
                              GemmVariant variant = GemmVariant::kScalar);

} // namespace eva2

#endif // EVA2_CNN_CONV_KERNELS_H
