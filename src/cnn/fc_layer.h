/**
 * @file
 * Fully-connected and softmax layers. These are the non-spatial layers
 * that must remain in the CNN suffix: they have "no 2D spatial
 * structure and no meaningful relationship with motion in the input"
 * (Section II-C5).
 */
#ifndef EVA2_CNN_FC_LAYER_H
#define EVA2_CNN_FC_LAYER_H

#include <vector>

#include "cnn/layer.h"

namespace eva2 {

/**
 * Dense layer: flattens its input (whatever its CHW shape) and applies
 * y = Wx + b. Output shape is {out_dim, 1, 1}.
 */
class FcLayer : public Layer
{
  public:
    /**
     * @param in_dim  Flattened input length.
     * @param out_dim Output vector length.
     */
    FcLayer(i64 in_dim, i64 out_dim);

    void forward_into(const Tensor &in,
                      const ForwardCtx &ctx) const override;

    /**
     * Batched forward over `nb` same-shape inputs: for each output
     * neuron, the weight row is loaded once and dotted against every
     * sample before moving on. An unbatched FC is a matrix-vector
     * product that re-streams the whole weight matrix per sample;
     * batching turns it into a matrix-matrix product whose weight
     * traffic is amortized across the batch — the dominant win of
     * cross-stream suffix batching, since FC weights are the largest
     * tensors the suffix touches. Per-sample accumulation (bias, then
     * ascending input index) is identical to forward_into, so each
     * sample's output is bit-identical to a batch-of-1 call.
     *
     * With `simd` (tuner-selected; requires simd_supported()), each
     * sample's chain runs through the SIMD dot kernel instead —
     * bounded divergence vs the scalar chains, never bit-exact.
     */
    void forward_batched(const Tensor *const *ins, i64 nb,
                         Tensor *const *outs, bool fuse_relu,
                         bool simd = false) const;

    Shape out_shape(const Shape &in) const override;
    LayerKind kind() const override { return LayerKind::kFc; }
    i64 macs(const Shape & /* in */) const override
    {
        return in_dim_ * out_dim_;
    }
    bool spatial() const override { return false; }

    i64 in_dim() const { return in_dim_; }
    i64 out_dim() const { return out_dim_; }

    /** Mutable weight storage, row-major [out_dim][in_dim]. */
    std::vector<float> &weights() { return weights_; }
    const std::vector<float> &weights() const { return weights_; }

    /** Mutable bias storage; size out_dim. */
    std::vector<float> &biases() { return biases_; }
    const std::vector<float> &biases() const { return biases_; }

  private:
    i64 in_dim_;
    i64 out_dim_;
    std::vector<float> weights_;
    std::vector<float> biases_;
};

/** Numerically-stable softmax over the flattened input. */
class SoftmaxLayer : public Layer
{
  public:
    void forward_into(const Tensor &in,
                      const ForwardCtx &ctx) const override;
    Shape
    out_shape(const Shape &in) const override
    {
        return Shape{in.size(), 1, 1};
    }
    LayerKind kind() const override { return LayerKind::kSoftmax; }
    bool spatial() const override { return false; }
};

} // namespace eva2

#endif // EVA2_CNN_FC_LAYER_H
