#include "cnn/fc_layer.h"

#include <algorithm>
#include <cmath>

#include "runtime/parallel_for.h"

namespace eva2 {

namespace {

/**
 * One neuron's accumulation over a compile-time block of NB samples:
 * NB independent chains held in registers (a runtime-sized
 * accumulator array spills to memory and serializes through
 * store-forwarding, which is slower than the plain single chain).
 * Each sample sums taps in ascending input order — bit-identical to
 * the unbatched loop.
 */
template <int NB>
inline void
fc_accumulate(const float *w, float bias, const float *const *xs,
              i64 in_dim, float *out)
{
    float acc[NB];
    for (int s = 0; s < NB; ++s) {
        acc[s] = bias;
    }
    for (i64 i = 0; i < in_dim; ++i) {
        const float wi = w[i];
        for (int s = 0; s < NB; ++s) {
            acc[s] += wi * xs[s][i];
        }
    }
    for (int s = 0; s < NB; ++s) {
        out[s] = acc[s];
    }
}

/** Block width: 8 chains fill the FMA pipeline without register
 * spills, and 8 input vectors stay cache-resident. */
constexpr i64 kFcBlock = 8;

void
fc_accumulate_block(const float *w, float bias,
                    const float *const *xs, i64 nb, i64 in_dim,
                    float *out)
{
    switch (nb) {
      case 1: fc_accumulate<1>(w, bias, xs, in_dim, out); break;
      case 2: fc_accumulate<2>(w, bias, xs, in_dim, out); break;
      case 3: fc_accumulate<3>(w, bias, xs, in_dim, out); break;
      case 4: fc_accumulate<4>(w, bias, xs, in_dim, out); break;
      case 5: fc_accumulate<5>(w, bias, xs, in_dim, out); break;
      case 6: fc_accumulate<6>(w, bias, xs, in_dim, out); break;
      case 7: fc_accumulate<7>(w, bias, xs, in_dim, out); break;
      case 8: fc_accumulate<8>(w, bias, xs, in_dim, out); break;
      default:
        throw InternalError("fc block width out of range");
    }
}

} // namespace

FcLayer::FcLayer(i64 in_dim, i64 out_dim)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weights_(static_cast<size_t>(in_dim * out_dim), 0.0f),
      biases_(static_cast<size_t>(out_dim), 0.0f)
{
    require(in_dim > 0 && out_dim > 0, "fc: dimensions must be positive");
}

Shape
FcLayer::out_shape(const Shape &in) const
{
    require(in.size() == in_dim_,
            "fc: input " + in.str() + " flattens to " +
                std::to_string(in.size()) + " but layer expects " +
                std::to_string(in_dim_));
    return Shape{out_dim_, 1, 1};
}

void
FcLayer::forward_into(const Tensor &in, const ForwardCtx &ctx) const
{
    Tensor &out = *ctx.out;
    Span<const float> x = in.data();
    const bool fuse_relu = ctx.fuse_relu;
    // Output neurons are independent and write disjoint elements, so
    // the split is bit-identical to the serial loop (same per-neuron
    // accumulation order) — the ConvLayer pattern, applied to the
    // non-spatial suffix. Grain keeps cheap rows batched.
    parallel_for(
        0, out_dim_,
        [&](i64 o) {
            const float *w =
                &weights_[static_cast<size_t>(o * in_dim_)];
            float acc = biases_[static_cast<size_t>(o)];
            for (i64 i = 0; i < in_dim_; ++i) {
                acc += w[i] * x[static_cast<size_t>(i)];
            }
            out[o] = fuse_relu ? (acc > 0.0f ? acc : 0.0f) : acc;
        },
        ParallelForOptions{/*grain=*/8, /*pool=*/nullptr});
}

void
FcLayer::forward_batched(const Tensor *const *ins, i64 nb,
                         Tensor *const *outs, bool fuse_relu) const
{
    require(nb >= 1 && nb <= kMaxSuffixBatch,
            "fc: batch must be in [1, " +
                std::to_string(kMaxSuffixBatch) + "], got " +
                std::to_string(nb));
    const float *xs[kMaxSuffixBatch];
    for (i64 s = 0; s < nb; ++s) {
        xs[s] = ins[s]->data().data();
    }
    // Neurons split across threads exactly like forward_into. Within
    // one neuron, the samples' accumulator chains are *interleaved*
    // in register-resident blocks: each sample still sums taps in
    // ascending input order into its own accumulator (bit-identical
    // to forward_into), but the chains are independent, so the inner
    // loop issues one FMA per chain per weight instead of stalling
    // on a single chain's add latency — and the weight row is
    // streamed once per block instead of once per sample. This is
    // the structural win batch-of-1 execution cannot have: one
    // sample is a single latency-bound dependency chain by
    // construction.
    parallel_for(
        0, out_dim_,
        [&](i64 o) {
            const float *w =
                &weights_[static_cast<size_t>(o * in_dim_)];
            const float bias = biases_[static_cast<size_t>(o)];
            float acc[kFcBlock];
            for (i64 s0 = 0; s0 < nb; s0 += kFcBlock) {
                const i64 blk = std::min<i64>(kFcBlock, nb - s0);
                fc_accumulate_block(w, bias, xs + s0, blk, in_dim_, acc);
                for (i64 s = 0; s < blk; ++s) {
                    (*outs[s0 + s])[o] =
                        fuse_relu ? (acc[s] > 0.0f ? acc[s] : 0.0f)
                                  : acc[s];
                }
            }
        },
        ParallelForOptions{/*grain=*/8, /*pool=*/nullptr});
}

void
SoftmaxLayer::forward_into(const Tensor &in, const ForwardCtx &ctx) const
{
    Tensor &out = *ctx.out;
    float max_v = -std::numeric_limits<float>::infinity();
    for (i64 i = 0; i < in.size(); ++i) {
        max_v = std::max(max_v, in[i]);
    }
    double denom = 0.0;
    for (i64 i = 0; i < in.size(); ++i) {
        double e = std::exp(static_cast<double>(in[i] - max_v));
        out[i] = static_cast<float>(e);
        denom += e;
    }
    for (i64 i = 0; i < in.size(); ++i) {
        out[i] = static_cast<float>(out[i] / denom);
    }
}

} // namespace eva2
