#include "cnn/pool_layer.h"

#include <algorithm>
#include <limits>

#include "runtime/parallel_for.h"

namespace eva2 {

MaxPoolLayer::MaxPoolLayer(i64 kernel, i64 stride, i64 pad)
    : kernel_(kernel), stride_(stride), pad_(pad)
{
    require(kernel > 0 && stride > 0 && pad >= 0,
            "pool: invalid window geometry");
}

Shape
MaxPoolLayer::out_shape(const Shape &in) const
{
    return Shape{in.c, conv_out_size(in.h, kernel_, stride_, pad_),
                 conv_out_size(in.w, kernel_, stride_, pad_)};
}

void
MaxPoolLayer::forward_into(const Tensor &in, const ForwardCtx &ctx) const
{
    Tensor &out = *ctx.out;
    const Shape os = out.shape();
    const i64 ih = in.height();
    const i64 iw = in.width();
    // Channels write disjoint planes, and each window clamps its range
    // to the input once, then visits its in-bounds taps in (ky, kx)
    // order, so the result does not depend on the thread count.
    parallel_for(0, os.c, [&](i64 c) {
        const float *plane = in.channel(c).data();
        float *dst = out.data().data() + c * os.h * os.w;
        for (i64 oy = 0; oy < os.h; ++oy) {
            const i64 base_y = oy * stride_ - pad_;
            const i64 y0 = std::max<i64>(base_y, 0);
            const i64 y1 = std::min<i64>(base_y + kernel_, ih);
            for (i64 ox = 0; ox < os.w; ++ox) {
                const i64 base_x = ox * stride_ - pad_;
                const i64 x0 = std::max<i64>(base_x, 0);
                const i64 x1 = std::min<i64>(base_x + kernel_, iw);
                // A window with no input cell (all padding) yields 0,
                // matching common framework semantics for positive
                // activations after ReLU.
                if (y0 >= y1 || x0 >= x1) {
                    dst[oy * os.w + ox] = 0.0f;
                    continue;
                }
                float best = -std::numeric_limits<float>::infinity();
                for (i64 y = y0; y < y1; ++y) {
                    const float *row = plane + y * iw;
                    for (i64 x = x0; x < x1; ++x) {
                        best = std::max(best, row[x]);
                    }
                }
                dst[oy * os.w + ox] = best;
            }
        }
    });
}

} // namespace eva2
