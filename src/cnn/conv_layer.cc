#include "cnn/conv_layer.h"

#include "cnn/conv_kernels.h"

namespace eva2 {

ConvLayer::ConvLayer(i64 in_c, i64 out_c, i64 kernel, i64 stride, i64 pad)
    : in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weights_(static_cast<size_t>(out_c * in_c * kernel * kernel), 0.0f),
      biases_(static_cast<size_t>(out_c), 0.0f)
{
    require(in_c > 0 && out_c > 0, "conv: channel counts must be positive");
    require(kernel > 0 && stride > 0 && pad >= 0,
            "conv: invalid window geometry");
}

Shape
ConvLayer::out_shape(const Shape &in) const
{
    require(in.c == in_c_,
            "conv: input has " + std::to_string(in.c) + " channels, layer " +
                "expects " + std::to_string(in_c_));
    return Shape{out_c_, conv_out_size(in.h, kernel_, stride_, pad_),
                 conv_out_size(in.w, kernel_, stride_, pad_)};
}

i64
ConvLayer::macs(const Shape &in) const
{
    Shape out = out_shape(in);
    // outputs x (in_channels x kernel area) per output; Section IV-A.
    return out.size() * in_c_ * kernel_ * kernel_;
}

void
ConvLayer::forward_into(const Tensor &in, const ForwardCtx &ctx) const
{
    conv_im2col_gemm(in, {in_c_, out_c_, kernel_, stride_, pad_},
                     weights_.data(), biases_.data(), *ctx.out,
                     ctx.fuse_relu, ctx.conv_variant);
}

} // namespace eva2
