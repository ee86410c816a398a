/**
 * @file
 * Per-shape kernel autotuning behind `kernel=tuned`.
 *
 * The searchable space (in the spirit of AMOS's automatic mapping of
 * tensor computations onto hardware intrinsics): for each distinct
 * conv layer shape, the fma GEMM register-tile variants of
 * simd_kernels.h plus the bit-exact SIMD tile (the reference an
 * untuned plan runs); for each distinct
 * FC shape, the SIMD dot kernel vs the scalar chain. At plan-compile
 * time ExecutionPlan asks the tuner for the winner; the tuner
 * benchmarks the candidates on synthetic data of the real shape
 * (column-capped so tuning cost stays bounded) within a caller
 * budget, and caches the pick in a process-wide shape -> variant
 * table so recompiles and new sessions never re-tune.
 *
 * Determinism: within one process, one shape tunes exactly once —
 * every later plan compile returns the cached pick, so all plans for
 * a shape run the same variant and per-stream digests stay
 * reproducible across a run. Across processes the pick may differ
 * (timing noise); that is exactly why tuned kernels are gated by the
 * bounded-divergence check rather than bit-equality
 * (docs/simd_kernels.md).
 */
#ifndef EVA2_CNN_KERNEL_TUNER_H
#define EVA2_CNN_KERNEL_TUNER_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cnn/conv_kernels.h"
#include "simd/simd_kernels.h"
#include "util/mutex.h"

namespace eva2 {

/** One candidate implementation in a tuning contest. */
struct TuneCandidate
{
    std::string name; ///< Variant label ("mr2xnv4", "scalar", ...).
    i64 id = 0;       ///< Caller-defined id returned on a win.
    /** Run the kernel once on the tuning workload. */
    std::function<void()> run;
};

/** The cached outcome of one tuning contest. */
struct TunePick
{
    i64 id = 0;
    std::string name;
    double best_us = 0.0; ///< Winner's best observed run time.
};

/**
 * The process-wide tuning cache. Thread-safe: concurrent plan
 * compiles for the same shape race benignly — the first insert wins
 * and every caller returns the resident pick.
 */
class KernelTuner
{
  public:
    static KernelTuner &instance();

    /**
     * The cached pick for `key`, tuning on a miss: every candidate is
     * warmed once, then timed round-robin within `budget_us`
     * microseconds total (each candidate gets at least one timed run
     * even on a blown budget); the minimum observed time wins.
     */
    TunePick pick(const std::string &key,
                  const std::vector<TuneCandidate> &candidates,
                  i64 budget_us);

    /** Cached picks (tests). */
    i64 cache_size() const;

    /** Tuning contests actually run, i.e. cache misses (tests). */
    i64 contests() const;

    /** Drop the cache (tests only — defeats cross-plan reuse). */
    void clear();

  private:
    KernelTuner() = default;

    mutable Mutex mutex_;
    std::map<std::string, TunePick> cache_ GUARDED_BY(mutex_);
    i64 contests_ GUARDED_BY(mutex_) = 0;
};

/**
 * Tuned GEMM variant for one conv layer shape: kScalar when SIMD is
 * unsupported, otherwise the contest winner among the bit-exact kExact
 * tile and every fma register-tile variant, each timed on what the
 * plan runs — panel packing plus its tile, strip by strip at its own
 * strip width — over a synthetic input of the layer's real geometry
 * (columns capped so one contest costs well under a frame).
 */
GemmVariant tune_conv_gemm(const ConvGeometry &g, i64 out_h, i64 out_w,
                           bool fuse_relu, i64 budget_us);

/**
 * Whether the SIMD FC dot kernel wins over the scalar chain for one
 * FC shape. False when SIMD is unsupported.
 */
bool tune_fc_simd(i64 in_dim, i64 out_dim, i64 budget_us);

} // namespace eva2

#endif // EVA2_CNN_KERNEL_TUNER_H
