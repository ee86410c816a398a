#include "cnn/kernel_tuner.h"

#include <algorithm>
#include <chrono>

#include "util/math_util.h"
#include "util/rng.h"

namespace eva2 {

namespace {

using Clock = std::chrono::steady_clock;

double
us_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/**
 * Defeats dead-code elimination of the tuning workloads: the
 * candidates write into scratch buffers nothing reads, so each run
 * folds one element into this volatile sink.
 */
volatile float g_tune_sink = 0.0f;

void
consume(float v)
{
    g_tune_sink = g_tune_sink + v;
}

/** Deterministic synthetic fill for tuning workloads. */
void
fill_uniform(std::vector<float> &v, u64 seed)
{
    Rng rng(seed);
    for (float &x : v) {
        x = rng.uniform_f(-1.0f, 1.0f);
    }
}

} // namespace

KernelTuner &
KernelTuner::instance()
{
    static KernelTuner tuner;
    return tuner;
}

TunePick
KernelTuner::pick(const std::string &key,
                  const std::vector<TuneCandidate> &candidates,
                  i64 budget_us)
{
    require(!candidates.empty(), "kernel tuner: no candidates for '" +
                                     key + "'");
    {
        MutexLock lock(mutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            return it->second;
        }
    }
    // Tune outside the lock: contests can take milliseconds, and two
    // plans compiling different shapes should not serialize. A race
    // on the *same* shape tunes twice; the first insert wins below.
    const double budget = static_cast<double>(std::max<i64>(
        budget_us, 1));
    std::vector<double> best(candidates.size(), 0.0);
    for (size_t c = 0; c < candidates.size(); ++c) {
        candidates[c].run(); // Warm caches and code paths, untimed.
    }
    const Clock::time_point start = Clock::now();
    constexpr int kMaxRounds = 5;
    for (int round = 0; round < kMaxRounds; ++round) {
        for (size_t c = 0; c < candidates.size(); ++c) {
            const Clock::time_point t0 = Clock::now();
            candidates[c].run();
            const double dt = us_since(t0);
            if (round == 0 || dt < best[c]) {
                best[c] = dt;
            }
        }
        // Every candidate got at least one timed run by now; stop
        // once the budget is spent.
        if (us_since(start) >= budget) {
            break;
        }
    }
    size_t winner = 0;
    for (size_t c = 1; c < candidates.size(); ++c) {
        if (best[c] < best[winner]) {
            winner = c;
        }
    }
    TunePick pick;
    pick.id = candidates[winner].id;
    pick.name = candidates[winner].name;
    pick.best_us = best[winner];
    MutexLock lock(mutex_);
    const auto inserted = cache_.emplace(key, pick);
    if (inserted.second) {
        ++contests_;
    }
    // Losers of an insert race adopt the resident pick, so every
    // caller in the process agrees on one variant per shape.
    return inserted.first->second;
}

i64
KernelTuner::cache_size() const
{
    MutexLock lock(mutex_);
    return static_cast<i64>(cache_.size());
}

i64
KernelTuner::contests() const
{
    MutexLock lock(mutex_);
    return contests_;
}

void
KernelTuner::clear()
{
    MutexLock lock(mutex_);
    cache_.clear();
    contests_ = 0;
}

GemmVariant
tune_conv_gemm(const ConvGeometry &g, i64 out_h, i64 out_w,
               bool fuse_relu, i64 budget_us)
{
    if (!simd_supported()) {
        return GemmVariant::kScalar;
    }
    // A synthetic input of the layer's real geometry: the smallest
    // input that yields the out_h x out_w output plane.
    const auto in_extent = [&g](i64 out) {
        return std::max<i64>(1, (out - 1) * g.stride + g.kernel -
                                    2 * g.pad);
    };
    Tensor in(g.in_c, in_extent(out_h), in_extent(out_w));
    const Shape os{g.out_c,
                   conv_out_size(in.height(), g.kernel, g.stride, g.pad),
                   conv_out_size(in.width(), g.kernel, g.stride, g.pad)};
    const i64 n = os.h * os.w;
    // Cap the tuning workload's columns so one contest costs a few
    // megaflops per candidate regardless of layer size; the register
    // tiles' relative ranking is column-count-invariant past a few
    // strips.
    const i64 flops_per_col = std::max<i64>(g.out_c * im2col_rows(g), 1);
    const i64 n_cap = std::max<i64>(64, 4000000 / flops_per_col);
    const i64 n_tune = std::min(n, n_cap);

    const std::string key =
        "conv_gemm:ic=" + std::to_string(g.in_c) +
        ",oc=" + std::to_string(g.out_c) +
        ",k=" + std::to_string(g.kernel) +
        ",s=" + std::to_string(g.stride) +
        ",p=" + std::to_string(g.pad) + ",oh=" + std::to_string(out_h) +
        ",ow=" + std::to_string(out_w) +
        ",fuse=" + std::to_string(fuse_relu ? 1 : 0);

    std::vector<float> weights(
        static_cast<size_t>(g.out_c * im2col_rows(g)));
    std::vector<float> biases(static_cast<size_t>(g.out_c));
    std::vector<float> out(static_cast<size_t>(g.out_c * n));
    fill_uniform(weights, 17);
    fill_uniform(biases, 19);
    Rng rng(23);
    for (i64 i = 0; i < in.size(); ++i) {
        in[i] = rng.uniform_f(-1.0f, 1.0f);
    }

    // The bit-exact SIMD tile is the reference candidate: it is what
    // an untuned plan runs, so an fma tile only wins by beating it.
    std::vector<GemmVariant> variants = {GemmVariant::kExact};
    variants.insert(variants.end(), simd_gemm_variants().begin(),
                    simd_gemm_variants().end());
    std::vector<TuneCandidate> candidates;
    for (const GemmVariant v : variants) {
        TuneCandidate cand;
        cand.name = gemm_variant_name(v);
        cand.id = static_cast<i64>(v);
        // What the plan runs: pack plus tile, strip by strip at the
        // variant's own width, over the middle n_tune columns (strip
        // aligned, so the plan's strip boundaries are reproduced).
        cand.run = [&weights, &biases, &in, &out, g, os, n, n_tune,
                    fuse_relu, v]() {
            const Tensor *ins[] = {&in};
            const i64 width = conv_strip_width(v);
            const i64 begin = (n - n_tune) / 2 / width * width;
            const i64 end = std::min(n, begin + n_tune);
            for (i64 j0 = begin; j0 < end; j0 += width) {
                conv_gemm_strip(ins, g, os, weights.data(),
                                biases.data(), n, j0,
                                std::min(width, end - j0), out.data(),
                                fuse_relu, v);
            }
            consume(out[static_cast<size_t>(begin)]);
        };
        candidates.push_back(std::move(cand));
    }
    const TunePick pick =
        KernelTuner::instance().pick(key, candidates, budget_us);
    return static_cast<GemmVariant>(pick.id);
}

bool
tune_fc_simd(i64 in_dim, i64 out_dim, i64 budget_us)
{
    if (!simd_supported()) {
        return false;
    }
    // Tune on a row subset: the dot kernels' ranking depends on
    // in_dim (chain length), not on how many rows consume it.
    const i64 rows = std::max<i64>(
        4, std::min(out_dim, 2000000 / std::max<i64>(in_dim, 1)));
    const std::string key = "fc:in=" + std::to_string(in_dim) +
                            ",out=" + std::to_string(out_dim);

    std::vector<float> weights(static_cast<size_t>(rows * in_dim));
    std::vector<float> x(static_cast<size_t>(in_dim));
    fill_uniform(weights, 29);
    fill_uniform(x, 31);

    std::vector<TuneCandidate> candidates(2);
    candidates[0].name = "scalar";
    candidates[0].id = 0;
    candidates[0].run = [&weights, &x, rows, in_dim]() {
        float sink = 0.0f;
        for (i64 r = 0; r < rows; ++r) {
            const float *w =
                weights.data() + static_cast<size_t>(r * in_dim);
            float acc = 0.0f;
            for (i64 i = 0; i < in_dim; ++i) {
                acc += w[i] * x[static_cast<size_t>(i)];
            }
            sink += acc;
        }
        consume(sink);
    };
    candidates[1].name = "simd";
    candidates[1].id = 1;
    candidates[1].run = [&weights, &x, rows, in_dim]() {
        float sink = 0.0f;
        for (i64 r = 0; r < rows; ++r) {
            sink += fc_dot_simd(
                weights.data() + static_cast<size_t>(r * in_dim),
                x.data(), in_dim, 0.0f);
        }
        consume(sink);
    };
    return KernelTuner::instance()
               .pick(key, candidates, budget_us)
               .id == 1;
}

} // namespace eva2
