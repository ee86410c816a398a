#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

namespace eva2 {

Tensor
translate(const Tensor &t, i64 dy, i64 dx)
{
    Tensor out(t.shape());
    for (i64 c = 0; c < t.channels(); ++c) {
        for (i64 y = 0; y < t.height(); ++y) {
            i64 sy = y - dy;
            if (sy < 0 || sy >= t.height()) {
                continue;
            }
            for (i64 x = 0; x < t.width(); ++x) {
                i64 sx = x - dx;
                if (sx < 0 || sx >= t.width()) {
                    continue;
                }
                out.at(c, y, x) = t.at(c, sy, sx);
            }
        }
    }
    return out;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    require(a.shape() == b.shape(),
            "add: shape mismatch " + a.shape().str() + " vs " +
                b.shape().str());
    Tensor out(a.shape());
    for (i64 i = 0; i < a.size(); ++i) {
        out[i] = a[i] + b[i];
    }
    return out;
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    require(a.shape() == b.shape(),
            "sub: shape mismatch " + a.shape().str() + " vs " +
                b.shape().str());
    Tensor out(a.shape());
    for (i64 i = 0; i < a.size(); ++i) {
        out[i] = a[i] - b[i];
    }
    return out;
}

Tensor
scale(const Tensor &t, float s)
{
    Tensor out(t.shape());
    for (i64 i = 0; i < t.size(); ++i) {
        out[i] = t[i] * s;
    }
    return out;
}

Tensor
relu(const Tensor &t)
{
    Tensor out(t.shape());
    for (i64 i = 0; i < t.size(); ++i) {
        out[i] = t[i] > 0.0f ? t[i] : 0.0f;
    }
    return out;
}

double
max_abs_diff(const Tensor &a, const Tensor &b)
{
    require(a.shape() == b.shape(), "max_abs_diff: shape mismatch");
    double m = 0.0;
    for (i64 i = 0; i < a.size(); ++i) {
        m = std::max(m, std::fabs(static_cast<double>(a[i]) - b[i]));
    }
    return m;
}

double
mean_abs_diff(const Tensor &a, const Tensor &b)
{
    require(a.shape() == b.shape(), "mean_abs_diff: shape mismatch");
    if (a.empty()) {
        return 0.0;
    }
    double acc = 0.0;
    for (i64 i = 0; i < a.size(); ++i) {
        acc += std::fabs(static_cast<double>(a[i]) - b[i]);
    }
    return acc / static_cast<double>(a.size());
}

double
sum(const Tensor &t)
{
    double acc = 0.0;
    for (i64 i = 0; i < t.size(); ++i) {
        acc += t[i];
    }
    return acc;
}

double
sum_squares(const float *x, i64 n)
{
    double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    i64 i = 0;
    for (; i + 8 <= n; i += 8) {
        for (i64 l = 0; l < 8; ++l) {
            const double v = static_cast<double>(x[i + l]);
            acc[l] += v * v;
        }
    }
    for (; i < n; ++i) {
        const double v = static_cast<double>(x[i]);
        acc[i % 8] += v * v;
    }
    const double s01 = acc[0] + acc[1];
    const double s23 = acc[2] + acc[3];
    const double s45 = acc[4] + acc[5];
    const double s67 = acc[6] + acc[7];
    return (s01 + s23) + (s45 + s67);
}

double
sum_squares(const Tensor &t)
{
    return sum_squares(t.data().data(), t.size());
}

double
zero_fraction(const Tensor &t, float threshold)
{
    if (t.empty()) {
        return 0.0;
    }
    i64 zeros = 0;
    for (i64 i = 0; i < t.size(); ++i) {
        if (std::fabs(t[i]) <= threshold) {
            ++zeros;
        }
    }
    return static_cast<double>(zeros) / static_cast<double>(t.size());
}

bool
all_close(const Tensor &a, const Tensor &b, double tol)
{
    if (a.shape() != b.shape()) {
        return false;
    }
    return max_abs_diff(a, b) <= tol;
}

float
bilinear_sample(const Tensor &t, i64 c, double y, double x)
{
    i64 y0 = static_cast<i64>(std::floor(y));
    i64 x0 = static_cast<i64>(std::floor(x));
    double fy = y - static_cast<double>(y0);
    double fx = x - static_cast<double>(x0);

    double v00 = t.at_padded(c, y0, x0);
    double v01 = t.at_padded(c, y0, x0 + 1);
    double v10 = t.at_padded(c, y0 + 1, x0);
    double v11 = t.at_padded(c, y0 + 1, x0 + 1);

    double top = v00 * (1.0 - fx) + v01 * fx;
    double bot = v10 * (1.0 - fx) + v11 * fx;
    return static_cast<float>(top * (1.0 - fy) + bot * fy);
}

} // namespace eva2
