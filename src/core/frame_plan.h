/**
 * @file
 * The compiled AMC frame path: a per-stream stage graph.
 *
 * PR 3 compiled the CNN layer ranges into ExecutionPlans; this file
 * extends compiled execution to the *whole* per-frame path the EVA²
 * paper contributes (Section II, Figure 1). A FramePlan is built once
 * per stream from the network and AmcOptions and fixes everything a
 * frame's journey needs ahead of time:
 *
 *   ingest ─► schedule ─► [motion estimation] ─► [policy] ──────┐
 *     │                                                         │
 *     │            ┌─── predicted branch: motion field ─► warp ◄┤
 *     │            │                                            │
 *     │            │    ┌ key branch: prefix ─► encode ◄────────┘
 *     ▼            ▼    ▼
 *   (first frame) suffix ExecutionPlan ─► commit
 *
 * with every inter-stage buffer pre-assigned: the suffix input of
 * each in-flight frame lands in a slot of the plan's own slot-ring
 * ScratchArena, motion estimation reuses an RfbmeWorkspace, and the
 * fitted motion field and warped activation are written in place
 * (`*_into` forms), so a steady-state predicted frame performs zero
 * heap allocations from ingest to commit.
 *
 * Bracketed stages run only when their result is read. The policy's
 * schedule() first says whether frames_since_key alone decides the
 * frame; motion estimation then runs only if the policy needs its
 * features or a compensation prediction needs its field to warp by,
 * and the policy's is_key_frame() only if the features decide.
 *
 * Execution splits into two halves with one carried dependency:
 *
 *  - run_front(): ingest through warp/encode. Reads and writes the
 *    carried stream state (key pixels, the RLE key activation
 *    buffer, policy state, counters), so front halves must run
 *    serialized in frame order.
 *  - run_suffix(): the CNN suffix on a slot's activation. Pure —
 *    it reads only the slot and the shared read-only network — so
 *    suffixes of consecutive frames may run concurrently with each
 *    other and with the next frames' front halves. This is the
 *    software analogue of EVA²'s motion/warp engines running ahead
 *    of the accelerator, and what runtime/stage_scheduler exploits
 *    to software-pipeline one stream across frames.
 *
 * Bit-exactness: the stage bodies are the same arithmetic the serial
 * AmcPipeline always ran, so any interleaving the scheduler chooses
 * produces per-stream output digests identical to the serial path.
 */
#ifndef EVA2_CORE_FRAME_PLAN_H
#define EVA2_CORE_FRAME_PLAN_H

#include <memory>

#include "cnn/execution_plan.h"
#include "cnn/network.h"
#include "core/instrumentation.h"
#include "core/keyframe_policy.h"
#include "core/warp.h"
#include "flow/rfbme.h"
#include "sparse/rle.h"

namespace eva2 {

/** How the AMC target layer is chosen (Section II-C5, Table II). */
enum class TargetChoice
{
    kLastSpatial, ///< Last layer before any non-spatial layer.
    kEarly,       ///< First pooling layer (Table II's early target).
    kExplicit,    ///< Caller supplies the index.
};

/** Whether predicted frames warp or merely reuse the activation. */
enum class MotionMode
{
    kCompensation, ///< Warp by the estimated motion (detection nets).
    kMemoization,  ///< Reuse unchanged (classification, Section IV-E1).
};

/** Pipeline configuration. */
struct AmcOptions
{
    TargetChoice target_choice = TargetChoice::kLastSpatial;
    i64 explicit_target = -1;
    InterpMode interp = InterpMode::kBilinear;
    MotionMode motion_mode = MotionMode::kCompensation;
    i64 search_radius = 28; ///< RFBME search radius in pixels.
    /**
     * RFBME search step in pixels. 2 keeps the match-error floor (and
     * the warp's vector quantization) well below the adaptive
     * policies' useful threshold range; the hardware's parallel adder
     * trees make the finer search cheap (Section III-A1).
     */
    i64 search_stride = 2;
    /**
     * Store the key activation through the Q8.8 RLE codec, as the
     * hardware does; disable to isolate algorithmic error from
     * quantization in experiments.
     */
    bool quantize_storage = true;
    /**
     * Near-zero pruning for storage, as a fraction of the target
     * activation's RMS: values at or below this magnitude encode as
     * zeros (Section II-C2 — near-zero values "can be safely ignored
     * without a significant impact on output accuracy"). Pruning is
     * what pushes RLE storage savings well past the dense baseline.
     */
    double storage_prune_rel = 0.12;
    /**
     * CNN execution plan compilation options (autotuning). The
     * default — bit-exact im2col/blocked-GEMM convs with fused ReLU —
     * is bit-identical to the reference Network::forward.
     */
    PlanOptions plan;

    /**
     * Validate caller-controllable fields; throws ConfigError with a
     * descriptive message instead of letting a bad value reach the
     * search loops (where a zero stride would hang or divide by
     * zero). Called by FramePlan's constructor; `net` enables the
     * explicit-target bounds check.
     */
    void validate(const Network &net) const;
};

/** Running counters over a stream. */
struct AmcStats
{
    i64 frames = 0;
    i64 key_frames = 0;

    i64 predicted_frames() const { return frames - key_frames; }

    double
    key_fraction() const
    {
        return frames == 0 ? 0.0
                           : static_cast<double>(key_frames) /
                                 static_cast<double>(frames);
    }
};

/** What the front half of one frame decided and measured. */
struct FrontResult
{
    bool is_key = false;
    FrameFeatures features;   ///< Motion features seen by the policy.
    i64 me_add_ops = 0;       ///< RFBME arithmetic ops for this frame.
    i64 resident_bytes = 0;   ///< Stream state bytes after this frame.
};

/**
 * The compiled, stateful per-stream stage graph (see file comment).
 *
 * Threading model: front halves are serialized in frame order by the
 * caller (they carry the key-frame state); run_suffix() is const and
 * may run concurrently for different slots, each against its own
 * execution arena. The borrowed Network is read-only throughout.
 */
class FramePlan
{
  public:
    /**
     * Compile the stage graph for one stream.
     *
     * @param net    The network to accelerate (borrowed; must outlive
     *               the plan).
     * @param policy Key-frame policy (owned). Null selects a static
     *               every-frame policy (all key frames).
     * @param opts   Pipeline options, validated here.
     */
    FramePlan(const Network &net, std::unique_ptr<KeyFramePolicy> policy,
              AmcOptions opts = {});

    FramePlan(const FramePlan &) = delete;
    FramePlan &operator=(const FramePlan &) = delete;

    // ---------------------------------------------------------------
    // Stage execution.

    /**
     * Front half of one frame, policy-driven: ingest → schedule →
     * motion estimation and policy where read (see file comment) →
     * key branch (prefix + encode) or predicted branch (motion-field
     * build + warp). Frames that skip motion estimation report
     * features {0, 0, frames_since_key} and zero me_add_ops. Writes
     * the suffix input activation into ring slot `slot`. Touches all
     * carried stream state; calls must be serialized in frame order.
     *
     * @param exec_arena Arena the CNN prefix cycles activations
     *                   through (the executing thread's, typically).
     */
    FrontResult run_front(const Tensor &frame, i64 slot,
                          ScratchArena &exec_arena, AmcObserver *obs);

    /** Front half forced to the key path (controlled experiments). */
    FrontResult run_front_key(const Tensor &frame, i64 slot,
                              ScratchArena &exec_arena,
                              AmcObserver *obs);

    /**
     * Front half forced to the predicted path; requires a stored key
     * frame.
     */
    FrontResult run_front_predicted(const Tensor &frame, i64 slot,
                                    ScratchArena &exec_arena,
                                    AmcObserver *obs);

    /**
     * Back half: the CNN suffix on slot `slot`'s activation. Pure —
     * safe to run concurrently across distinct slots, each call with
     * its own execution arena. Returns a reference into `exec_arena`
     * (or to the slot activation for an empty suffix), valid until
     * that arena is next written.
     */
    const Tensor &run_suffix(i64 slot, ScratchArena &exec_arena,
                             AmcObserver *obs) const;

    /**
     * The suffix input activation the front half wrote for `slot`
     * (the frame's target-layer activation: stored for key frames,
     * predicted for the rest).
     */
    const Tensor &slot_activation(i64 slot) const;

    /**
     * Size the slot ring for `depth` concurrently in-flight frames.
     * The scheduler sets this once before pipelining; serial callers
     * use slot 0 of the default single-slot ring.
     */
    void set_depth(i64 depth);
    i64 depth() const { return depth_; }

    // ---------------------------------------------------------------
    // Carried stream state.

    /** Drop stored state and counters for a new stream. */
    void reset();

    /** True once a key frame is stored (predictions are possible). */
    bool has_key_frame() const { return has_key_; }

    /** Stored key activation (decoded); requires a stored key frame. */
    const Tensor &stored_activation() const;

    /**
     * Stored key-frame pixels, quantized to u8 when the key was
     * stored (flow/sad_kernels.h): the plane RFBME compares against.
     * Requires a stored key frame.
     */
    const PixelPlane &key_pixels() const;

    /** Encoded size of the stored key activation, in bytes. */
    i64 stored_activation_bytes() const;

    const AmcStats &stats() const { return stats_; }

    // ---------------------------------------------------------------
    // Hibernation (the LRU memory tier; see docs/resident_state.md).

    /**
     * Collapse the stream's resident state to the compressed-only
     * form: the RLE key activation (already the canonical store under
     * quantized storage) plus the u8 key pixels, kept verbatim —
     * everything RFBME and a later predicted frame need to resume —
     * and release every dense buffer and per-frame workspace. Only
     * valid under quantize_storage (the dense precise activation of
     * codec=dense cannot be recovered from the RLE form). The caller
     * must guarantee no frames are in flight on this plan.
     */
    void hibernate();

    /**
     * Rebuild the dense working state from the compressed form after
     * hibernate(); the next run_front proceeds as if the session had
     * never been evicted. Nothing is lost in between, so digests
     * after rehydration are bit-identical for any frames (see
     * docs/resident_state.md).
     */
    void hydrate();

    bool hibernated() const { return hibernated_; }

    /**
     * Bytes of stream state currently held: compressed store, dense
     * key buffers, slot ring, and motion-estimation workspaces. The
     * number the Engine's memory budget accounts per session.
     */
    i64 resident_bytes() const;

    // ---------------------------------------------------------------
    // Compiled artifacts.

    /** The compiled plan for layers [0, target]. */
    const ExecutionPlan &prefix_plan() const { return *prefix_plan_; }

    /** The compiled plan for layers (target, end). */
    const ExecutionPlan &suffix_plan() const { return *suffix_plan_; }

    /**
     * The kernel selection of both compiled plans, in {prefix,
     * suffix} order — what on_plan reports and RunReport echoes.
     */
    std::vector<PlanRecord> plan_records() const;

    i64 target_layer() const { return target_layer_; }
    ReceptiveField target_rf() const { return target_rf_; }
    const RfbmeConfig &rfbme_config() const { return rfbme_config_; }
    const AmcOptions &options() const { return opts_; }
    const Network &network() const { return *net_; }

    /** Resolve a target layer index for a network and choice. */
    static i64 resolve_target(const Network &net, TargetChoice choice,
                              i64 explicit_target);

  private:
    /** Stage kIngest: frame admission. */
    void ingest_stage(const Tensor &frame, AmcObserver *obs) const;
    /** Stage kMotionEstimation: RFBME into the reused result. */
    void motion_stage(const Tensor &frame, AmcObserver *obs);
    /** Stages kPrefix + kEncode: the key branch. */
    FrontResult key_stage(const Tensor &frame, i64 slot,
                          ScratchArena &exec_arena, AmcObserver *obs);
    /** Stages kMotionField + kWarp: the predicted branch. */
    FrontResult predict_stage(i64 slot, AmcObserver *obs);

    Tensor &slot_tensor(i64 slot, const Shape &shape);
    void check_slot(i64 slot) const;
    /** Drop the RFBME/motion workspaces and slot-ring buffers. */
    void release_workspaces();

    const Network *net_;
    std::unique_ptr<KeyFramePolicy> policy_;
    AmcOptions opts_;
    i64 target_layer_;
    ReceptiveField target_rf_;
    RfbmeConfig rfbme_config_;
    std::unique_ptr<ExecutionPlan> prefix_plan_;
    std::unique_ptr<ExecutionPlan> suffix_plan_;

    /**
     * Inter-stage buffers: one suffix-input slot per in-flight frame.
     * Owned by the stream (not a worker thread) because the front
     * half that writes a slot and the suffix that reads it may run on
     * different threads.
     */
    ScratchArena slot_ring_;
    i64 depth_ = 1;

    // Carried stream state (front-half only). The RLE encoding is the
    // canonical key-activation store under quantize_storage; the
    // dense tensor is only materialized where a dense consumer exists
    // (codec=dense warping, memoization sharing, the accessor cache).
    bool has_key_ = false;
    PixelPlane key_pixels_;       ///< u8, kept through hibernation.
    Tensor key_activation_dense_; ///< Precise; codec=dense only.
    RleActivation key_activation_rle_;
    /**
     * Memoization mode: the one decoded copy per key frame that every
     * predicted frame aliases (a refcount bump instead of a dense
     * copy). In-flight suffixes hold their own reference via
     * slot_alias_, so a new key frame can retire this safely.
     */
    std::shared_ptr<const Tensor> key_act_shared_;
    /** Per-slot aliases overriding the slot ring (memoization). */
    std::vector<std::shared_ptr<const Tensor>> slot_alias_;
    /** Lazy rle_decode cache backing stored_activation(). */
    mutable Tensor stored_cache_;
    mutable bool stored_cache_valid_ = false;
    bool hibernated_ = false;
    i64 frames_since_key_ = 0;
    AmcStats stats_;

    // Reused per-frame workspaces (front-half only).
    RfbmeResult me_;
    RfbmeWorkspace me_ws_;
    MotionField fitted_field_;
};

} // namespace eva2

#endif // EVA2_CORE_FRAME_PLAN_H
