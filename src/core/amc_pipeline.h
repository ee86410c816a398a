/**
 * @file
 * The activation motion compensation pipeline (Section II, Figure 1).
 *
 * AmcPipeline owns one stream's compiled FramePlan stage graph
 * (core/frame_plan.h). All state — the last key frame's pixels and
 * its target-layer activation (run-length encoded, as in the
 * hardware's key frame activation buffer), policy state, counters —
 * lives in the FramePlan; this class adds the classic
 * one-call-per-frame process() surface, result materialization, and
 * instrumentation plumbing. Served streams do not call process():
 * each Engine session (api/engine.h) drives its pipeline's FramePlan
 * through a StageScheduler, pipelined across frames with
 * bit-identical outputs. process() runs one frame's stages
 * front-to-back on the calling thread, for single-stream experiments
 * (eval/, benches, examples).
 */
#ifndef EVA2_CORE_AMC_PIPELINE_H
#define EVA2_CORE_AMC_PIPELINE_H

#include <memory>

#include "core/frame_plan.h"

namespace eva2 {

/** Outcome of processing one frame. */
struct AmcFrameResult
{
    bool is_key = false;
    Tensor output;            ///< Final network output for the frame.
    Tensor target_activation; ///< Target-layer activation (stored or
                              ///< predicted), for activation-space
                              ///< read-outs such as detection.
    FrameFeatures features;   ///< Motion features seen by the policy.
    i64 me_add_ops = 0;       ///< RFBME arithmetic ops for this frame.
};

/**
 * Stateful per-stream AMC executor over one network.
 *
 * Threading model: a pipeline is single-threaded — all mutable AMC
 * state (key pixels, the RLE activation buffer, policy state,
 * counters) lives in its FramePlan and is touched without
 * synchronization. The borrowed Network is only ever read, so any
 * number of pipelines may share one network from different threads;
 * that is how an Engine's sessions scale across streams.
 * (The stage scheduler spreads ONE pipeline's frames across threads,
 * but serializes every stateful stage itself.)
 */
class AmcPipeline
{
  public:
    /**
     * @param net    The network to accelerate (borrowed; must outlive
     *               the pipeline).
     * @param policy Key-frame policy (owned). Null selects a
     *               static every-frame policy (all key frames).
     * @param opts   Pipeline options.
     */
    AmcPipeline(const Network &net, std::unique_ptr<KeyFramePolicy> policy,
                AmcOptions opts = {});

    /** Process the next frame of the stream (policy-driven). */
    AmcFrameResult process(const Tensor &frame);

    /** Force-run a key frame (controlled experiments). */
    Tensor run_key(const Tensor &frame);

    /** Force-run a predicted frame; requires a stored key frame. */
    AmcFrameResult run_predicted(const Tensor &frame);

    /** Drop stored state and counters for a new stream. */
    void reset();

    /**
     * Install a per-stage instrumentation sink (borrowed; may be
     * null to disable). Under pipelined execution the observer is
     * invoked from several threads — see AmcObserver::on_stage.
     * A freshly installed observer immediately receives on_plan()
     * for the compiled prefix and suffix plans.
     */
    void set_observer(AmcObserver *observer);
    AmcObserver *observer() const { return observer_; }

    /**
     * The compiled stage graph this pipeline executes. The runtime's
     * stage scheduler drives it directly to software-pipeline frames.
     */
    FramePlan &frame_plan() { return plan_; }
    const FramePlan &frame_plan() const { return plan_; }

    /** The compiled plan for layers [0, target]. */
    const ExecutionPlan &prefix_plan() const
    {
        return plan_.prefix_plan();
    }

    /** The compiled plan for layers (target, end). */
    const ExecutionPlan &suffix_plan() const
    {
        return plan_.suffix_plan();
    }

    /**
     * The kernel selection of both compiled plans, in {prefix,
     * suffix} order — what on_plan reports and RunReport echoes.
     */
    std::vector<PlanRecord> plan_records() const
    {
        return plan_.plan_records();
    }

    /**
     * Override the scratch arena planned execution cycles
     * activations through (borrowed; null restores the default).
     * The default — each worker thread's own arena — is right for
     * the runtime; tests override to observe allocation behaviour.
     */
    void set_arena(ScratchArena *arena) { arena_override_ = arena; }

    i64 target_layer() const { return plan_.target_layer(); }
    ReceptiveField target_rf() const { return plan_.target_rf(); }
    const RfbmeConfig &rfbme_config() const
    {
        return plan_.rfbme_config();
    }
    const AmcOptions &options() const { return plan_.options(); }
    const AmcStats &stats() const { return plan_.stats(); }
    const Network &network() const { return plan_.network(); }

    /** True once a key frame is stored (predictions are possible). */
    bool has_key_frame() const { return plan_.has_key_frame(); }

    /** Stored key activation (decoded); requires a stored key frame. */
    const Tensor &stored_activation() const
    {
        return plan_.stored_activation();
    }

    /** Encoded size of the stored key activation, in bytes. */
    i64 stored_activation_bytes() const
    {
        return plan_.stored_activation_bytes();
    }

    /** Resolve a target layer index for a network and choice. */
    static i64
    resolve_target(const Network &net, TargetChoice choice,
                   i64 explicit_target)
    {
        return FramePlan::resolve_target(net, choice, explicit_target);
    }

  private:
    /** Materialize the slot-0 front+suffix into an AmcFrameResult. */
    AmcFrameResult materialize(const FrontResult &front);

    /** The arena this execution cycles activations through. */
    ScratchArena &arena() const;

    FramePlan plan_;
    ScratchArena *arena_override_ = nullptr;
    AmcObserver *observer_ = nullptr;
};

} // namespace eva2

#endif // EVA2_CORE_AMC_PIPELINE_H
