#include "cnn/weights.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "cnn/conv_layer.h"
#include "cnn/execution_plan.h"
#include "cnn/fc_layer.h"

namespace eva2 {

namespace {

/**
 * Normalize a filter slice to zero mean and unit L2 norm so first-layer
 * responses are comparable across orientations.
 */
void
normalize_filter(float *w, i64 n)
{
    double mean = 0.0;
    for (i64 i = 0; i < n; ++i) {
        mean += w[i];
    }
    mean /= static_cast<double>(n);
    double norm = 0.0;
    for (i64 i = 0; i < n; ++i) {
        w[i] -= static_cast<float>(mean);
        norm += static_cast<double>(w[i]) * w[i];
    }
    norm = std::sqrt(norm);
    if (norm > 1e-9) {
        for (i64 i = 0; i < n; ++i) {
            w[i] = static_cast<float>(w[i] / norm);
        }
    }
}

/** He-scaled Gaussian fill for one conv layer plus a sparsifying bias. */
void
init_conv_random(ConvLayer &conv, Rng rng)
{
    const i64 fan_in = conv.in_channels() * conv.kernel() * conv.kernel();
    const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
    for (float &w : conv.weights()) {
        w = static_cast<float>(rng.normal(0.0, stddev));
    }
    // A small negative bias pushes marginal responses below the ReLU
    // threshold, reproducing the activation sparsity (typically well
    // over half zeros) that EVA2's RLE storage and sparsity decoder
    // lanes exploit.
    for (float &b : conv.biases()) {
        b = static_cast<float>(-0.25 * stddev * std::sqrt(fan_in) *
                               rng.uniform(0.5, 1.5));
    }
}

} // namespace

void
fill_first_layer_bank(ConvLayer &conv)
{
    const i64 k = conv.kernel();
    const double center = static_cast<double>(k - 1) / 2.0;
    const double sigma = std::max(1.0, static_cast<double>(k) / 4.0);
    std::vector<float> slice(static_cast<size_t>(k * k));

    // Orientation/frequency factorized bank: adjacent channel pairs
    // share an orientation and split the two wavelength families, so
    // every orientation is sensed at both texture frequencies. One
    // channel in ~five is a centre-surround blob detector.
    const i64 n_orient =
        std::max<i64>(4, (conv.out_channels() + 1) / 2);
    for (i64 oc = 0; oc < conv.out_channels(); ++oc) {
        const bool surround = (oc % 5) == 4;
        const double theta =
            M_PI * static_cast<double>((oc / 2) % n_orient) /
            static_cast<double>(n_orient);
        for (i64 y = 0; y < k; ++y) {
            for (i64 x = 0; x < k; ++x) {
                const double dy = static_cast<double>(y) - center;
                const double dx = static_cast<double>(x) - center;
                const double r2 = dx * dx + dy * dy;
                const double envelope =
                    std::exp(-r2 / (2.0 * sigma * sigma));
                double v;
                if (surround) {
                    // Difference of Gaussians (blob detector).
                    const double s2 = sigma / 2.0;
                    v = std::exp(-r2 / (2.0 * s2 * s2)) - 0.5 * envelope;
                } else {
                    // Odd Gabor: responds to stripes along theta, in
                    // two frequency families so both texture bands of
                    // the synthetic classes excite distinct channels.
                    const double wavelength =
                        (oc % 2 == 0) ? 1.4 * static_cast<double>(k)
                                      : 0.8 * static_cast<double>(k);
                    const double u =
                        dx * std::cos(theta) + dy * std::sin(theta);
                    v = envelope * std::sin(2.0 * M_PI * u / wavelength);
                }
                slice[static_cast<size_t>(y * k + x)] =
                    static_cast<float>(v);
            }
        }
        normalize_filter(slice.data(), k * k);
        for (i64 ic = 0; ic < conv.in_channels(); ++ic) {
            for (i64 y = 0; y < k; ++y) {
                for (i64 x = 0; x < k; ++x) {
                    conv.weights()[static_cast<size_t>(
                        conv.weight_index(oc, ic, y, x))] =
                        slice[static_cast<size_t>(y * k + x)] /
                        static_cast<float>(conv.in_channels());
                }
            }
        }
    }
    for (float &b : conv.biases()) {
        b = 0.0f;
    }
}

namespace {

/**
 * Deterministic richly textured calibration image: multi-octave hash
 * noise plus oriented stripe patches, so every filter family sees
 * representative stimulus during calibration.
 */
Tensor
calibration_image(const Shape &shape, u64 seed)
{
    Tensor img(shape);
    auto hash01 = [seed](i64 a, i64 b, u64 salt) {
        u64 z = seed ^ (static_cast<u64>(a) * 0x9e3779b97f4a7c15ull) ^
                (static_cast<u64>(b) * 0xbf58476d1ce4e5b9ull) ^
                (salt * 0x94d049bb133111ebull);
        z ^= z >> 30;
        z *= 0xbf58476d1ce4e5b9ull;
        z ^= z >> 27;
        return static_cast<double>(z >> 11) * 0x1.0p-53;
    };
    for (i64 c = 0; c < shape.c; ++c) {
        for (i64 y = 0; y < shape.h; ++y) {
            for (i64 x = 0; x < shape.w; ++x) {
                double v = 0.5 * hash01(y / 16, x / 16, 1) +
                           0.3 * hash01(y / 4, x / 4, 2) +
                           0.2 * hash01(y, x, 3);
                // Oriented stripes in the lower-right quadrant.
                if (y > shape.h / 2 && x > shape.w / 2) {
                    const double theta =
                        M_PI * static_cast<double>((x * 4) / shape.w) /
                        4.0;
                    const double u = x * std::cos(theta) +
                                     y * std::sin(theta);
                    v = 0.5 + 0.4 * std::sin(u * 0.8);
                }
                img.at(c, y, x) = static_cast<float>(v);
            }
        }
    }
    return img;
}

/**
 * Smooth bilinear-interpolated lattice noise: the same statistics as
 * the video substrate's value-noise textures (smooth at the given
 * feature scale), without depending on the video module.
 */
Tensor
smooth_noise_image(const Shape &shape, u64 seed, double scale)
{
    auto lattice = [seed](i64 a, i64 b) {
        u64 z = seed ^ (static_cast<u64>(a) * 0x9e3779b97f4a7c15ull) ^
                (static_cast<u64>(b) * 0xbf58476d1ce4e5b9ull);
        z ^= z >> 30;
        z *= 0xbf58476d1ce4e5b9ull;
        z ^= z >> 27;
        return static_cast<double>(z >> 11) * 0x1.0p-53;
    };
    auto smoothstep = [](double t) { return t * t * (3.0 - 2.0 * t); };
    Tensor img(shape);
    for (i64 c = 0; c < shape.c; ++c) {
        for (i64 y = 0; y < shape.h; ++y) {
            for (i64 x = 0; x < shape.w; ++x) {
                const double fy = static_cast<double>(y) / scale;
                const double fx = static_cast<double>(x) / scale;
                const i64 y0 = static_cast<i64>(std::floor(fy));
                const i64 x0 = static_cast<i64>(std::floor(fx));
                const double ty = smoothstep(fy - static_cast<double>(y0));
                const double tx = smoothstep(fx - static_cast<double>(x0));
                const double top = lattice(y0, x0) * (1.0 - tx) +
                                   lattice(y0, x0 + 1) * tx;
                const double bot = lattice(y0 + 1, x0) * (1.0 - tx) +
                                   lattice(y0 + 1, x0 + 1) * tx;
                img.at(c, y, x) = static_cast<float>(
                    top * (1.0 - ty) + bot * ty);
            }
        }
    }
    return img;
}

/** Quantile of a span of floats (copies and partially sorts). */
float
quantile(Span<const float> xs, double q)
{
    std::vector<float> copy(xs.begin(), xs.end());
    const size_t k = static_cast<size_t>(
        q * static_cast<double>(copy.size() - 1));
    std::nth_element(copy.begin(), copy.begin() + static_cast<long>(k),
                     copy.end());
    return copy[k];
}

} // namespace

void
calibrate_activations(Network &net, u64 seed, double target_sparsity)
{
    // Calibrate over an ensemble of stimuli so the resulting sparsity
    // holds for inputs the network was not calibrated on: a textured
    // scene-like image, white noise at two amplitudes, and smooth
    // interpolated lattice noise at two feature scales (matching the
    // statistics of the synthetic video substrate's scenes).
    std::vector<Tensor> acts;
    acts.push_back(
        calibration_image(net.input_shape(), seed ^ 0xabcdefull));
    Rng rng(seed ^ 0x5eedull);
    for (const float amp : {1.0f, 0.5f}) {
        Tensor noise(net.input_shape());
        for (i64 i = 0; i < noise.size(); ++i) {
            noise[i] = rng.uniform_f(0.0f, amp);
        }
        acts.push_back(std::move(noise));
    }
    for (const double scale : {8.0, 24.0}) {
        acts.push_back(smooth_noise_image(net.input_shape(),
                                          seed ^ 0x5107ull, scale));
    }

    // Trained CNNs get sparser with depth (the deepest layers are the
    // most class-selective); ramp the per-layer target up to
    // `target_sparsity` at the last conv so the stored target
    // activation stays sparse even after overlapping max-pooling.
    i64 num_convs = 0;
    for (i64 i = 0; i < net.num_layers(); ++i) {
        if (net.layer(i).kind() == LayerKind::kConv) {
            ++num_convs;
        }
    }
    i64 conv_index = 0;

    // Each layer runs as its own one-step plan on a local arena. A
    // one-layer conv plan has no ReLU to fuse, so `outs` below are the
    // pre-activations the bias shift needs; the plan's default GEMM
    // tile is bit-identical to the reference conv, and the arena's
    // memory is released when calibration returns.
    ScratchArena arena;
    for (i64 i = 0; i < net.num_layers(); ++i) {
        Layer &l = net.layer(i);
        if (!l.spatial()) {
            break; // FC head needs no spatial calibration.
        }
        const ExecutionPlan plan(net, i, i + 1, acts[0].shape());
        if (l.kind() != LayerKind::kConv) {
            for (Tensor &act : acts) {
                act = plan.run(act, arena);
            }
            continue;
        }
        const double depth_frac =
            num_convs > 1 ? static_cast<double>(conv_index) /
                                static_cast<double>(num_convs - 1)
                          : 1.0;
        const double layer_target =
            0.6 + (target_sparsity - 0.6) * depth_frac;
        ++conv_index;
        auto &conv = static_cast<ConvLayer &>(l);
        std::vector<Tensor> outs;
        outs.reserve(acts.size());
        for (const Tensor &act : acts) {
            outs.push_back(plan.run(act, arena));
        }

        // Per-channel bias shift: place the ReLU threshold at the
        // target sparsity quantile of the pooled pre-activation
        // distribution across all stimuli. (Taking the max of
        // per-stimulus quantiles instead would guarantee the target
        // for every family, but the compounding across deep stacks
        // silences weak-response inputs entirely; pooling degrades
        // gracefully.)
        const i64 plane = outs[0].height() * outs[0].width();
        std::vector<float> pooled;
        pooled.reserve(outs.size() * static_cast<size_t>(plane));
        for (i64 oc = 0; oc < outs[0].channels(); ++oc) {
            pooled.clear();
            for (const Tensor &out : outs) {
                Span<const float> ch = out.channel(oc);
                pooled.insert(pooled.end(), ch.begin(), ch.end());
            }
            const float q = quantile(pooled, layer_target);
            conv.biases()[static_cast<size_t>(oc)] -= q;
            for (Tensor &out : outs) {
                for (i64 p = 0; p < plane; ++p) {
                    out.at(oc, p / out.width(), p % out.width()) -= q;
                }
            }
        }

        // Magnitude normalization: unit RMS over the surviving
        // (positive) values keeps activations O(1) at every depth.
        double acc = 0.0;
        i64 n = 0;
        for (const Tensor &out : outs) {
            for (i64 j = 0; j < out.size(); ++j) {
                if (out[j] > 0.0f) {
                    acc += static_cast<double>(out[j]) * out[j];
                    ++n;
                }
            }
        }
        const double rms = n > 0 ? std::sqrt(acc / n) : 0.0;
        if (rms > 1e-9) {
            const float s = static_cast<float>(1.0 / rms);
            for (float &w : conv.weights()) {
                w *= s;
            }
            for (float &b : conv.biases()) {
                b *= s;
            }
            for (Tensor &out : outs) {
                for (i64 j = 0; j < out.size(); ++j) {
                    out[j] *= s;
                }
            }
        }
        acts = std::move(outs);
    }
}

void
init_weights(Network &net, u64 seed)
{
    Rng root(seed);
    bool first_conv = true;
    for (i64 i = 0; i < net.num_layers(); ++i) {
        Layer &l = net.layer(i);
        Rng stream = root.fork(static_cast<u64>(i));
        if (l.kind() == LayerKind::kConv) {
            auto &conv = static_cast<ConvLayer &>(l);
            if (first_conv) {
                fill_first_layer_bank(conv);
                first_conv = false;
            } else {
                init_conv_random(conv, stream);
            }
        } else if (l.kind() == LayerKind::kFc) {
            auto &fc = static_cast<FcLayer &>(l);
            const double stddev =
                std::sqrt(2.0 / static_cast<double>(fc.in_dim()));
            for (float &w : fc.weights()) {
                w = static_cast<float>(stream.normal(0.0, stddev));
            }
            for (float &b : fc.biases()) {
                b = 0.0f;
            }
        }
    }
    calibrate_activations(net, seed);
}

} // namespace eva2
