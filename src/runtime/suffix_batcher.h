/**
 * @file
 * Cross-stream CNN suffix batching.
 *
 * The suffix runs on every frame of every stream (EVA² only skips the
 * *prefix* on predicted frames), so at serving scale it is the
 * dominant compute — yet each stream's StageScheduler used to execute
 * it as a batch-of-1 task. The SuffixBatcher collects suffix-ready
 * slot-ring activations from many streams' FramePlans and dispatches
 * them as one BatchedExecutionPlan run, which streams FC weights once
 * per batch and fills conv GEMM tiles that one small late-suffix
 * plane would leave mostly empty (see cnn/execution_plan.h).
 *
 * Batch formation policy — the `max_batch`/`max_delay_us` pair every
 * serving batcher ends up with:
 *
 *  - a batch dispatches immediately when it reaches max_batch items;
 *  - a partial batch dispatches when its oldest item has waited
 *    max_delay_us (a background timer guarantees this even when no
 *    further submissions arrive — without it, streams whose pipeline
 *    depth windows are full of suffix-parked frames would deadlock
 *    waiting for each other);
 *  - flush() dispatches whatever is pending right now (drain paths).
 *
 * Ordering: batches may complete in any order; each item's completion
 * is routed back to its own stream's scheduler, whose in-order commit
 * flush already tolerates out-of-order suffix completion. Since the
 * batched plan is bit-identical per sample, per-stream digest chains
 * are unchanged by any batching the policy chooses.
 *
 * Without a pool (serial engines), submissions execute inline as
 * batch-of-1 — semantics identical, nothing ever pending.
 */
#ifndef EVA2_RUNTIME_SUFFIX_BATCHER_H
#define EVA2_RUNTIME_SUFFIX_BATCHER_H

#include <chrono>
#include <thread>
#include <vector>

#include "cnn/execution_plan.h"
#include "core/instrumentation.h"
#include "runtime/thread_pool.h"
#include "util/mutex.h"

namespace eva2 {

/** Batch-formation policy of a SuffixBatcher. */
struct SuffixBatchOptions
{
    /** Master switch (the resolved engine options embed this). */
    bool enabled = false;
    /** Dispatch as soon as this many items are pending (>= 1). */
    i64 max_batch = 8;
    /**
     * Dispatch a partial batch once its oldest item has waited this
     * long (>= 0). Bounds the latency cost of batching: with fewer
     * ready streams than max_batch, frames never stall longer than
     * this waiting for company.
     */
    i64 max_delay_us = 200;
};

/**
 * Receives one completion per submitted item, on the worker thread
 * that ran the item's batch (or on the submitting thread without a
 * pool). `out` points into that worker's arena and is only valid for
 * the duration of the call; `error` is set instead when the batch
 * threw. StageScheduler implements this to route completions into
 * its in-order commit flush.
 */
class SuffixBatchClient
{
  public:
    virtual ~SuffixBatchClient() = default;

    virtual void on_suffix_done(i64 token, const Tensor *out,
                                std::exception_ptr error) = 0;
};

/** Occupancy accounting of a batcher (RunReport echoes this). */
struct SuffixBatchStats
{
    i64 items = 0;   ///< Suffix executions routed through the batcher.
    i64 batches = 0; ///< Dispatched batches.
    /** occupancy[k-1] = number of batches that carried k items. */
    std::vector<i64> occupancy;

    /** Mean items per batch (0 when nothing dispatched). */
    double
    mean_occupancy() const
    {
        return batches == 0 ? 0.0
                            : static_cast<double>(items) /
                                  static_cast<double>(batches);
    }

    /** The accumulation since `before` (an earlier snapshot). */
    SuffixBatchStats delta_from(const SuffixBatchStats &before) const;
};

/**
 * Collects suffix-ready activations across streams and dispatches
 * them as batched plan runs (see file comment).
 *
 * Thread safety: submit()/flush() may be called from any thread
 * (schedulers call submit from their front strands). drain() blocks
 * the caller until every submitted item has been delivered; callers
 * must not submit concurrently with a drain they expect to be final.
 */
class SuffixBatcher
{
  public:
    /**
     * @param plan The shared batched suffix plan (borrowed; must
     *             outlive the batcher). Its max_batch() caps
     *             opts.max_batch.
     * @param pool Worker pool batches run on, or null to execute
     *             every submission inline as batch-of-1.
     * @param opts Batch-formation policy (validated here).
     */
    SuffixBatcher(const BatchedExecutionPlan &plan, ThreadPool *pool,
                  SuffixBatchOptions opts);

    /** Drains pending work and stops the timer. */
    ~SuffixBatcher();

    SuffixBatcher(const SuffixBatcher &) = delete;
    SuffixBatcher &operator=(const SuffixBatcher &) = delete;

    /**
     * Enqueue one suffix execution. `activation` (the stream's slot
     * ring entry, borrowed) must stay valid until the client's
     * on_suffix_done(token, ...) fires; `obs` (may be null) receives
     * the item's apportioned share of its batch's kSuffix time.
     */
    void submit(const Tensor *activation, SuffixBatchClient *client,
                i64 token, AmcObserver *obs);

    /** Dispatch any pending partial batch now. */
    void flush();

    /** Block until every submitted item has been delivered. */
    void drain();

    SuffixBatchStats stats() const;

    i64 max_batch() const { return opts_.max_batch; }
    i64 max_delay_us() const { return opts_.max_delay_us; }

  private:
    struct Item
    {
        const Tensor *activation = nullptr;
        SuffixBatchClient *client = nullptr;
        i64 token = 0;
        AmcObserver *obs = nullptr;
    };

    /** Execute one batch and deliver its completions. */
    void run_batch(std::vector<Item> batch);

    /** Hand a ready batch to the pool (or run it inline). */
    void dispatch(std::vector<Item> batch);

    /** Partial-batch deadline enforcement (pool mode only). */
    void timer_loop();

    const BatchedExecutionPlan *plan_;
    ThreadPool *pool_;
    SuffixBatchOptions opts_;

    mutable Mutex mutex_;
    CondVar cv_done_;  ///< drain() waits here.
    CondVar cv_timer_; ///< Timer parks here.
    std::vector<Item> pending_ GUARDED_BY(mutex_);
    /** When the oldest pending item arrived (deadline anchor). */
    std::chrono::steady_clock::time_point oldest_ GUARDED_BY(mutex_){};
    /** Items dispatched, not yet delivered. */
    i64 in_flight_ GUARDED_BY(mutex_) = 0;
    bool stop_ GUARDED_BY(mutex_) = false;
    SuffixBatchStats stats_ GUARDED_BY(mutex_);
    std::thread timer_;
};

} // namespace eva2

#endif // EVA2_RUNTIME_SUFFIX_BATCHER_H
