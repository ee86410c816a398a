#include "cnn/activation_layer.h"

#include <cmath>

#include "simd/simd_kernels.h"

namespace eva2 {

void
ReluLayer::forward_into(const Tensor &in, const ForwardCtx &ctx) const
{
    Tensor &out = *ctx.out;
    // Lane-parallel max(x, 0) is bit-exact vs this loop, so SIMD is
    // safe to take whenever the machine has it.
    if (simd_supported()) {
        relu_simd(in.data().data(), out.data().data(), in.size());
        return;
    }
    for (i64 i = 0; i < in.size(); ++i) {
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
    }
}

LrnLayer::LrnLayer(i64 local_size, float alpha, float beta, float k)
    : local_size_(local_size), alpha_(alpha), beta_(beta), k_(k)
{
    require(local_size > 0, "lrn: local_size must be positive");
}

void
LrnLayer::forward_into(const Tensor &in, const ForwardCtx &ctx) const
{
    Tensor &out = *ctx.out;
    const i64 half = local_size_ / 2;
    for (i64 c = 0; c < in.channels(); ++c) {
        const i64 c_lo = std::max<i64>(0, c - half);
        const i64 c_hi = std::min<i64>(in.channels() - 1, c + half);
        for (i64 y = 0; y < in.height(); ++y) {
            for (i64 x = 0; x < in.width(); ++x) {
                float acc = 0.0f;
                for (i64 cc = c_lo; cc <= c_hi; ++cc) {
                    float v = in.at(cc, y, x);
                    acc += v * v;
                }
                float denom = std::pow(
                    k_ + alpha_ / static_cast<float>(local_size_) * acc,
                    beta_);
                out.at(c, y, x) = in.at(c, y, x) / denom;
            }
        }
    }
}

} // namespace eva2
