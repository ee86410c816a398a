/**
 * @file
 * Software pipelining of one stream's frames across FramePlan stages.
 *
 * The compiled frame path (core/frame_plan.h) splits a frame into a
 * stateful front half (ingest → RFBME → policy → warp/encode, which
 * carries the key-frame state between frames) and a pure back half
 * (the CNN suffix). The StageScheduler exploits that split the way
 * EVA²'s hardware overlaps its motion/warp engines with the
 * accelerator: frame N+1's front half starts as soon as frame N's
 * front half has committed the carried state, while frame N's suffix
 * is still running on another worker. Up to `depth` frames are in
 * flight per stream, each owning one slot of the FramePlan's slot
 * ring.
 *
 * Guarantees:
 *  - Front halves run serialized in frame order (the carried
 *    key-frame state is the only cross-frame dependency).
 *  - Commits are delivered in frame order, so digest chains are
 *    bit-identical to serial execution.
 *  - No pool worker ever blocks inside the scheduler: a front that
 *    hits the depth window parks itself and is re-scheduled by the
 *    commit that frees a slot, so schedulers for many streams can
 *    share one pool of any size without deadlock. Only drain()
 *    blocks, and only on the caller's thread.
 *  - Without a pool every stage runs inline on the enqueueing
 *    thread, in order — the scheduler degrades to the serial path.
 */
#ifndef EVA2_RUNTIME_STAGE_SCHEDULER_H
#define EVA2_RUNTIME_STAGE_SCHEDULER_H

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "core/amc_pipeline.h"
#include "runtime/suffix_batcher.h"
#include "runtime/thread_pool.h"
#include "util/mutex.h"

namespace eva2 {

/**
 * The completed record of one pipelined frame, delivered to the
 * commit sink in frame order. Mirrors what the serial path's
 * AmcFrameResult carries, minus the tensors (the output digest and
 * top-1 are computed in place on the suffix worker, so a steady-state
 * predicted frame allocates nothing); `output` is populated only when
 * the scheduler was configured to store outputs.
 */
struct FrameCommit
{
    i64 frame = -1; ///< Frame index, as returned by enqueue().
    bool is_key = false;
    i64 top1 = -1;          ///< Argmax of the network output.
    u64 output_digest = 0;  ///< Digest of the raw output bits.
    double match_error = 0; ///< RFBME mean error (0 on key-only path).
    i64 me_add_ops = 0;     ///< RFBME arithmetic ops for this frame.
    /** Stream state bytes after this frame's front half (for the
     * Engine's resident-set accounting; 0 on error frames). */
    i64 resident_bytes = 0;
    Tensor output;          ///< Only with store_outputs.
    std::exception_ptr error; ///< Set when a stage threw.
};

/** Configuration of a StageScheduler. */
struct StageSchedulerOptions
{
    /**
     * Maximum frames of the stream in flight at once (>= 1). 1
     * serializes every frame (the legacy shape); 3 lets one suffix
     * run behind the front while a commit drains, which is enough to
     * hide the larger of the two halves.
     */
    i64 depth = 3;
    /** Copy every output tensor into its FrameCommit. */
    bool store_outputs = false;
    /**
     * Cross-stream suffix batcher shared with other streams'
     * schedulers, or null to run each suffix as its own task. When
     * set, the suffix stage becomes enqueue-to-batcher: the front
     * half hands the slot activation to the batcher, which executes
     * it inside a BatchedExecutionPlan run with other streams' ready
     * suffixes and routes the result back into this scheduler's
     * in-order commit flush. Digests are bit-identical either way.
     */
    SuffixBatcher *batcher = nullptr;
};

/**
 * Pipelines one AmcPipeline's frames across its FramePlan stages.
 * See the file comment for the execution model.
 *
 * Thread safety: enqueue() may be called from any thread; drain()
 * from any thread that is not a pool worker. The commit sink is
 * invoked serially, in frame order, on whichever thread flushed the
 * commit (a pool worker, or the enqueueing thread without a pool).
 */
class StageScheduler : public SuffixBatchClient
{
  public:
    using CommitFn = std::function<void(FrameCommit)>;

    /**
     * @param pipeline  The stream's pipeline (borrowed; must outlive
     *                  the scheduler). Its FramePlan slot ring is
     *                  resized to `opts.depth`.
     * @param pool      Worker pool for front/suffix tasks, or null to
     *                  run every stage inline on the enqueueing
     *                  thread.
     * @param opts      Pipelining configuration.
     * @param on_commit Per-frame commit sink (may be null).
     */
    StageScheduler(AmcPipeline &pipeline, ThreadPool *pool,
                   StageSchedulerOptions opts, CommitFn on_commit);

    /** Drains before destruction. */
    ~StageScheduler() override;

    StageScheduler(const StageScheduler &) = delete;
    StageScheduler &operator=(const StageScheduler &) = delete;

    /**
     * Enqueue one frame; returns its frame index (0-based, in
     * enqueue order). Without a pool the frame is fully processed —
     * and committed — before this returns.
     */
    i64 enqueue(Tensor frame);

    /** Block until every enqueued frame has committed. */
    void drain();

    /**
     * Restart frame numbering at 0 (after a stream reset). Requires
     * a drained scheduler.
     */
    void reset_counters();

    /** Frames enqueued so far. */
    i64 submitted() const;

    /** Frames committed so far. */
    i64 committed() const;

    i64 depth() const { return opts_.depth; }

    /**
     * SuffixBatchClient: a batched suffix execution for frame `token`
     * completed (on the batch worker's thread). Routes the result
     * into the in-order commit flush exactly like a locally-run
     * suffix.
     */
    void on_suffix_done(i64 token, const Tensor *out,
                        std::exception_ptr error) override;

  private:
    /** Front-half results parked between the front and its suffix. */
    struct FrameCtx
    {
        bool is_key = false;
        double match_error = 0.0;
        i64 me_add_ops = 0;
        i64 resident_bytes = 0;
        std::exception_ptr error;
    };

    /** Front strand body: run fronts until out of frames or slots. */
    void pump_front();

    /** Back half + in-order commit flush for one frame. */
    void run_suffix(i64 index);

    /**
     * Build frame `index`'s commit from its suffix output (or error)
     * and feed the in-order flush. Shared by the locally-run suffix
     * path and the batcher completion path.
     */
    void finish_frame(i64 index, const Tensor *out,
                      std::exception_ptr error);

    /** Deliver ready commits in frame order (sole flusher). */
    void flush_ready();

    /** Re-schedule the front after a commit freed a slot. */
    void maybe_restart_front_locked() REQUIRES(mutex_);

    /** Every enqueued frame committed and no thread still inside. */
    bool drained_locked() const REQUIRES(mutex_);

    void schedule_front();

    AmcObserver *observer() const { return pipeline_->observer(); }

    AmcPipeline *pipeline_;
    ThreadPool *pool_;
    StageSchedulerOptions opts_;
    CommitFn on_commit_;

    mutable Mutex mutex_;
    CondVar cv_;
    std::deque<Tensor> pending_ GUARDED_BY(mutex_);
    /** Awaiting in-order flush. */
    std::map<i64, FrameCommit> ready_ GUARDED_BY(mutex_);
    /**
     * Ring, indexed by frame % depth. Deliberately NOT guarded by
     * mutex_: slot `i` is written only by the serialized front strand
     * and read only by that frame's single suffix task, and the
     * handoff happens-before via the pool queue (or the batcher's
     * submit). The depth window keeps a slot from being reused until
     * its frame commits. See docs/static_analysis.md.
     */
    std::vector<FrameCtx> ctx_;
    bool front_active_ GUARDED_BY(mutex_) = false;
    /** Parked on a full depth window. */
    bool front_stalled_ GUARDED_BY(mutex_) = false;
    /** A thread is delivering commits. */
    bool flushing_ GUARDED_BY(mutex_) = false;
    i64 next_index_ GUARDED_BY(mutex_) = 0;  ///< Frames enqueued.
    /** Frames whose front half started. */
    i64 front_index_ GUARDED_BY(mutex_) = 0;
    /** Frames committed, in order. */
    i64 committed_ GUARDED_BY(mutex_) = 0;
};

} // namespace eva2

#endif // EVA2_RUNTIME_STAGE_SCHEDULER_H
