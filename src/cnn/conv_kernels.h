/**
 * @file
 * The convolution kernel every conv layer runs.
 *
 * conv_im2col_gemm multiplies the [out_c x K] weight matrix by the
 * im2col matrix of input patches (K = in_c * kernel^2 taps, N = output
 * pixels) in column strips, and never materializes that K x N matrix:
 * each parallel_for index packs its strip's K x W panel (W output
 * pixels, conv_strip_width) into a buffer owned by the thread running
 * it, then runs the GEMM micro-kernel over the panel while it is still
 * L1/L2-resident — every output channel consumes it before the next
 * strip is packed. The micro-kernel is a GemmVariant:
 *
 *  - kScalar, the scalar blocked tile: the one conv oracle. It is what
 *    the reference Network::forward runs, the non-SIMD fallback, and
 *    the tile every SIMD variant is compared against;
 *  - kExact, its bit-identical SIMD form (what ExecutionPlan runs
 *    wherever simd_supported()).
 *
 * Both share one packer (im2col_pack_strip), so the variants differ
 * only in the tile. Bit-exactness: packing only moves data, and
 * for each output element the scalar tile and the kExact tile both
 * start from the bias and accumulate taps in ascending (in_c, ky, kx)
 * order into a single float accumulator, one multiply and one add per
 * tap — strips and tiles only regroup *which* outputs are computed
 * together, never the per-output order — so their results are
 * bit-identical (padding taps contribute exact zeros). The optional
 * fused ReLU writes max(acc, 0), which is bit-identical to a separate
 * ReLU pass.
 *
 * Strips are disjoint output regions run by the deterministic
 * parallel_for, so results are independent of thread count and nest
 * safely under stream-level parallelism. The panel buffer is
 * thread-local and grows once to the largest panel the thread packs,
 * so steady-state convs allocate nothing and need no caller workspace.
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
 * Pack columns [j0, j0+jn) of the im2col matrix of the same-shape
 * samples `ins` into a K x jn panel: panel[k*jn + (j - j0)] is tap k,
 * ordered (ic, ky, kx), of global column j. Columns number the
 * samples' output pixels side by side: column j is pixel j % (oh*ow)
 * — (oy, ox) in row-major order — of sample j / (oh*ow), so a strip
 * may start mid-row and cross output rows and samples. Out-of-bounds
 * taps pack as 0. At stride 1 each output-row segment of a tap row is
 * one contiguous source span framed by zeros (pure data movement, so
 * the packed values are the per-element definition's).
 */
void im2col_pack_strip(const Tensor *const *ins, const ConvGeometry &g,
                       const Shape &out_shape, i64 j0, i64 jn,
                       float *panel);

/**
 * Output columns per packed panel for a variant: the scalar blocked
 * tile's native width for kScalar, gemm_strip_width() otherwise.
 */
i64 conv_strip_width(GemmVariant variant);

/**
 * The scalar blocked GEMM over one packed strip (the bit-exact
 * reference micro-kernel, internally tiled at its native width), with
 * gemm_strip_simd's addressing: panel rows `ld` floats apart, panel
 * column j feeding output column j0 + j, output rows `n` apart.
 * Exposed so tests can race the reference against the SIMD tile on
 * identical panels.
 */
void gemm_strip_scalar(const float *weights, const float *biases,
                       const float *panel, i64 ld, i64 out_c, i64 taps,
                       i64 n, i64 j0, i64 jn, float *out,
                       bool fuse_relu);

/**
 * One strip of the conv GEMM: pack columns [j0, j0+jn) of `ins` (as
 * im2col_pack_strip numbers them) into the calling thread's panel,
 * then run `variant`'s tile over it into out[m*n + j]. The conv entry
 * points below run one call per parallel_for index.
 */
void conv_gemm_strip(const Tensor *const *ins, const ConvGeometry &g,
                     const Shape &out_shape, const float *weights,
                     const float *biases, i64 n, i64 j0, i64 jn,
                     float *out, bool fuse_relu, GemmVariant variant);

/**
 * im2col + blocked GEMM convolution. `out` must be pre-shaped to the
 * layer's output shape; `weights` is [out_c][in_c][ky][kx] flat,
 * `biases` is [out_c]. kScalar (the default argument, the oracle) and
 * kExact are bit-identical (see file comment); kExact requires
 * simd_supported().
 */
void conv_im2col_gemm(const Tensor &in, const ConvGeometry &g,
                      const float *weights, const float *biases,
                      Tensor &out, bool fuse_relu,
                      GemmVariant variant = GemmVariant::kScalar);

/**
 * Batched im2col + blocked GEMM over `nb` same-shape inputs in one
 * pass: every sample's output pixels are columns of one K x (nb *
 * pixels) im2col matrix, multiplied by the weight matrix in shared
 * column strips (packed per strip like the single-sample path), and
 * scattered back to the per-sample output tensors (`outs[i]`
 * pre-shaped to the layer's output shape).
 *
 * Why batch: one sample's late-suffix plane is often smaller than a
 * GEMM tile, so the per-tile weight stream is amortized over a
 * fraction of a tile; numbering samples side by side lets one strip
 * cross sample boundaries, which fills the tiles and streams each
 * weight row once per strip of output pixels *of the whole batch*.
 * Bit-exactness is untouched — each output element still starts from
 * its bias and accumulates taps in ascending k into one accumulator,
 * so every sample's result is bit-identical to a batch-of-1
 * conv_im2col_gemm call.
 *
 * `gemm_out` is a caller-owned workspace (an arena slot) for the
 * [out_c x nb*pixels] product, reshaped here and reusable across calls
 * and layers.
 */
void conv_im2col_gemm_batched(const Tensor *const *ins, i64 nb,
                              const ConvGeometry &g,
                              const float *weights, const float *biases,
                              Tensor *const *outs, Tensor &gemm_out,
                              bool fuse_relu,
                              GemmVariant variant = GemmVariant::kScalar);

} // namespace eva2

#endif // EVA2_CNN_CONV_KERNELS_H
