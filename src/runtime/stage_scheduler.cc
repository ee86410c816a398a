#include "runtime/stage_scheduler.h"

#include <algorithm>

#include "eval/metrics.h"
#include "runtime/stream_executor.h"

namespace eva2 {

StageScheduler::StageScheduler(AmcPipeline &pipeline, ThreadPool *pool,
                               StageSchedulerOptions opts,
                               CommitFn on_commit)
    : pipeline_(&pipeline),
      pool_(pool),
      opts_(opts),
      on_commit_(std::move(on_commit))
{
    require(opts_.depth >= 1,
            "StageScheduler: depth must be >= 1, got " +
                std::to_string(opts_.depth));
    pipeline_->frame_plan().set_depth(opts_.depth);
    ctx_.resize(static_cast<size_t>(opts_.depth));
}

StageScheduler::~StageScheduler()
{
    drain();
}

void
StageScheduler::schedule_front()
{
    if (pool_ != nullptr) {
        pool_->enqueue_detached([this]() { pump_front(); });
    } else {
        pump_front();
    }
}

i64
StageScheduler::enqueue(Tensor frame)
{
    i64 index;
    bool schedule = false;
    {
        MutexLock lock(mutex_);
        index = next_index_++;
        pending_.push_back(std::move(frame));
        if (!front_active_ && !front_stalled_) {
            front_active_ = true;
            schedule = true;
        }
    }
    if (schedule) {
        schedule_front();
    }
    return index;
}

void
StageScheduler::pump_front()
{
    for (;;) {
        Tensor frame;
        i64 index;
        {
            MutexLock lock(mutex_);
            if (pending_.empty()) {
                front_active_ = false;
                // drain() waits for the front strand too: the last
                // commit can land while this task is still between
                // its final front and this check, and the scheduler
                // must not be destroyed under a live task.
                cv_.notify_all();
                return;
            }
            if (front_index_ - committed_ >= opts_.depth) {
                // Depth window full: park; the commit that frees a
                // slot re-schedules us (no worker ever blocks here).
                front_active_ = false;
                front_stalled_ = true;
                return;
            }
            frame = std::move(pending_.front());
            pending_.pop_front();
            index = front_index_++;
        }
        const i64 slot = index % opts_.depth;
        FrameCtx &ctx = ctx_[static_cast<size_t>(slot)];
        ctx = FrameCtx{};
        try {
            const FrontResult front = pipeline_->frame_plan().run_front(
                frame, slot, ScratchArena::for_current_thread(),
                observer());
            ctx.is_key = front.is_key;
            ctx.match_error = front.features.match_error;
            ctx.me_add_ops = front.me_add_ops;
            ctx.resident_bytes = front.resident_bytes;
        } catch (...) {
            ctx.error = std::current_exception();
        }
        if (opts_.batcher != nullptr && !ctx.error) {
            // Suffix-as-enqueue: the batcher executes this slot's
            // activation inside a cross-stream batched plan run and
            // calls back on_suffix_done. The activation reference
            // stays valid because the slot cannot be reused until
            // this frame commits (the depth window).
            opts_.batcher->submit(
                &pipeline_->frame_plan().slot_activation(slot), this,
                index, observer());
        } else if (pool_ != nullptr) {
            pool_->enqueue_detached(
                [this, index]() { run_suffix(index); });
        } else {
            run_suffix(index);
        }
    }
}

void
StageScheduler::run_suffix(i64 index)
{
    const i64 slot = index % opts_.depth;
    const FrameCtx &ctx = ctx_[static_cast<size_t>(slot)];
    if (ctx.error) {
        finish_frame(index, nullptr, nullptr);
        return;
    }
    try {
        const Tensor &out = pipeline_->frame_plan().run_suffix(
            slot, ScratchArena::for_current_thread(), observer());
        finish_frame(index, &out, nullptr);
    } catch (...) {
        finish_frame(index, nullptr, std::current_exception());
    }
}

void
StageScheduler::on_suffix_done(i64 token, const Tensor *out,
                               std::exception_ptr error)
{
    finish_frame(token, out, error);
}

void
StageScheduler::finish_frame(i64 index, const Tensor *out,
                             std::exception_ptr error)
{
    const i64 slot = index % opts_.depth;
    const FrameCtx &ctx = ctx_[static_cast<size_t>(slot)];
    FrameCommit commit;
    commit.frame = index;
    if (ctx.error) {
        commit.error = ctx.error;
    } else if (error) {
        commit.error = error;
    } else {
        commit.is_key = ctx.is_key;
        commit.top1 = top1(*out);
        commit.output_digest = tensor_digest(*out);
        commit.match_error = ctx.match_error;
        commit.me_add_ops = ctx.me_add_ops;
        commit.resident_bytes = ctx.resident_bytes;
        if (opts_.store_outputs) {
            commit.output = *out;
        }
    }
    {
        MutexLock lock(mutex_);
        // The map is keyed by frame index; commits flush in order.
        // emplace-by-move keeps the (possibly stored) output tensor.
        ready_.emplace(index, std::move(commit));
        if (flushing_) {
            return;
        }
        flushing_ = true;
    }
    flush_ready();
}

void
StageScheduler::flush_ready()
{
    for (;;) {
        FrameCommit commit;
        {
            MutexLock lock(mutex_);
            const auto it = ready_.find(committed_);
            if (it == ready_.end()) {
                flushing_ = false;
                maybe_restart_front_locked();
                cv_.notify_all();
                return;
            }
            commit = std::move(it->second);
            ready_.erase(it);
        }
        {
            // Deliver outside the lock: sinks take their own locks
            // (a Session records the outcome), and the front may run
            // concurrently.
            StageScope timer(observer(), AmcStage::kCommit);
            if (on_commit_) {
                on_commit_(std::move(commit));
            }
        }
        {
            MutexLock lock(mutex_);
            ++committed_;
        }
    }
}

void
StageScheduler::maybe_restart_front_locked()
{
    if (front_stalled_ && !front_active_ && !pending_.empty() &&
        front_index_ - committed_ < opts_.depth) {
        front_stalled_ = false;
        front_active_ = true;
        // Without a pool nothing ever parks (each frame commits
        // inline before the next front), so a restart only happens
        // in pool mode.
        invariant(pool_ != nullptr,
                  "stage scheduler: inline front parked");
        pool_->enqueue_detached([this]() { pump_front(); });
    }
}

bool
StageScheduler::drained_locked() const
{
    // Covers every thread still inside the scheduler: the front
    // strand (front_active_), uncommitted frames, and the commit
    // flusher (flushing_) — a flusher that delivered the last commit
    // still has to reacquire the mutex once to retire, and drain()
    // may gate destruction, so it must not slip out early on a
    // spurious wakeup between those two critical sections.
    return committed_ == next_index_ && !front_active_ && !flushing_;
}

void
StageScheduler::drain()
{
    MutexLock lock(mutex_);
    if (opts_.batcher == nullptr) {
        while (!drained_locked()) {
            cv_.wait(lock);
        }
        return;
    }
    // With a batcher, frames of this stream may be parked in partial
    // batches waiting for other streams; flush so they dispatch now
    // instead of waiting out max_delay_us. Our still-running fronts
    // can submit more items after any single flush, so re-flush at
    // the batcher's own delay cadence — no tighter, since a shared
    // batcher's pending items belong to *other* streams too, and a
    // draining stream must not collapse their batch-formation window
    // below what the delay timer already guarantees.
    const auto cadence = std::chrono::microseconds(
        std::max<i64>(1000, opts_.batcher->max_delay_us()));
    while (!drained_locked()) {
        lock.unlock();
        opts_.batcher->flush();
        lock.lock();
        if (!drained_locked()) {
            cv_.wait_for(lock, cadence);
        }
    }
}

void
StageScheduler::reset_counters()
{
    MutexLock lock(mutex_);
    invariant(pending_.empty() && !front_active_ && ready_.empty() &&
                  committed_ == next_index_,
              "stage scheduler reset with work in flight");
    next_index_ = 0;
    front_index_ = 0;
    committed_ = 0;
    front_stalled_ = false;
}

i64
StageScheduler::submitted() const
{
    MutexLock lock(mutex_);
    return next_index_;
}

i64
StageScheduler::committed() const
{
    MutexLock lock(mutex_);
    return committed_;
}

} // namespace eva2
