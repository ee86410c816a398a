/**
 * @file
 * 2D convolutional layer: the workhorse of every network in the paper
 * and the dominant term in the first-order cost model.
 */
#ifndef EVA2_CNN_CONV_LAYER_H
#define EVA2_CNN_CONV_LAYER_H

#include <vector>

#include "cnn/layer.h"
#include "util/math_util.h"

namespace eva2 {

/**
 * A standard (dense, ungrouped) 2D convolution with square kernels,
 * equal stride in both axes, symmetric zero padding, and per-output-
 * channel bias.
 *
 * Weight layout: [out_c][in_c][ky][kx], flat row-major.
 */
class ConvLayer : public Layer
{
  public:
    /**
     * @param in_c   Input channel count.
     * @param out_c  Output channel count (filter count).
     * @param kernel Square kernel extent.
     * @param stride Window step.
     * @param pad    Zero padding on each border.
     */
    ConvLayer(i64 in_c, i64 out_c, i64 kernel, i64 stride, i64 pad);

    void forward_into(const Tensor &in,
                      const ForwardCtx &ctx) const override;
    Shape out_shape(const Shape &in) const override;
    LayerKind kind() const override { return LayerKind::kConv; }
    i64 macs(const Shape &in) const override;
    WindowGeometry geometry() const override
    {
        return {kernel_, stride_, pad_};
    }

    i64 in_channels() const { return in_c_; }
    i64 out_channels() const { return out_c_; }
    i64 kernel() const { return kernel_; }
    i64 stride() const { return stride_; }
    i64 pad() const { return pad_; }

    /** Mutable weight storage for initializers; size out*in*k*k. */
    std::vector<float> &weights() { return weights_; }
    const std::vector<float> &weights() const { return weights_; }

    /** Mutable bias storage; size out_c. */
    std::vector<float> &biases() { return biases_; }
    const std::vector<float> &biases() const { return biases_; }

    /** Flat index of weight (oc, ic, ky, kx). */
    i64
    weight_index(i64 oc, i64 ic, i64 ky, i64 kx) const
    {
        return ((oc * in_c_ + ic) * kernel_ + ky) * kernel_ + kx;
    }

  private:
    i64 in_c_;
    i64 out_c_;
    i64 kernel_;
    i64 stride_;
    i64 pad_;
    std::vector<float> weights_;
    std::vector<float> biases_;
};

} // namespace eva2

#endif // EVA2_CNN_CONV_LAYER_H
