/**
 * @file
 * The resolved engine configuration and the output-digest helpers.
 *
 * Every stream is served by one path: api/engine.h's Session, which
 * feeds a StageScheduler (runtime/stage_scheduler.h) on the Engine's
 * worker pool; Engine::run is sessions plus a drain. This header no
 * longer holds a runner. It stays, under its historical name, because
 * code built against the Engine (the bench harness among it) includes
 * it for two things:
 *
 *  - StreamExecutorOptions, what EngineConfig::resolve() produces: the
 *    validated AmcOptions and the per-stream policy factory, so a
 *    caller can build a FramePlan or ExecutionPlan exactly as the
 *    Engine would;
 *  - tensor_digest / digest_combine / kDigestSeed, the bit-exact
 *    output digests every serving layer (scheduler commits, sessions,
 *    reports, the wire client) chains the same way.
 */
#ifndef EVA2_RUNTIME_STREAM_EXECUTOR_H
#define EVA2_RUNTIME_STREAM_EXECUTOR_H

#include <functional>
#include <memory>

#include "core/amc_pipeline.h"
#include "runtime/suffix_batcher.h"

namespace eva2 {

/** FNV-1a digest of a tensor's shape and raw float bit patterns. */
u64 tensor_digest(const Tensor &t);

/** Seed for the chained frame/stream digests (FNV offset basis). */
constexpr u64 kDigestSeed = 1469598103934665603ull;

/**
 * Fold digest `b` into chain `a`. Per-stream frame chains and the
 * report-level stream chain both use this, so any layer that
 * processes the same frames in the same order reproduces the same
 * digest.
 */
u64 digest_combine(u64 a, u64 b);

/** A resolved EngineConfig (EngineConfig::resolve). */
struct StreamExecutorOptions
{
    /** Pipeline options applied to every stream. */
    AmcOptions amc;
    /**
     * Per-stream key-frame policy factory (policies are stateful and
     * owned, so each stream needs its own instance).
     */
    std::function<std::unique_ptr<KeyFramePolicy>(i64 stream_index)>
        make_policy;
    /** Cross-stream suffix batching (runtime/suffix_batcher.h). */
    SuffixBatchOptions suffix_batch;
};

} // namespace eva2

#endif // EVA2_RUNTIME_STREAM_EXECUTOR_H
