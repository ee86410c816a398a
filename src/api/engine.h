/**
 * @file
 * The unified EVA2 serving API: Engine, Session, EngineConfig.
 *
 * An Engine is the one object a serving process holds per network. It
 * is configured declaratively — every component is a registry spec
 * string (`policy = "adaptive_error:th=0.05,max_gap=8"`), so a config
 * file or RPC payload can select policies, interpolation, and storage
 * codecs without touching C++ types. Streams are fed through one
 * path:
 *
 *  - the frame path, `Session::submit(frame) -> FrameTicket` plus
 *    `poll()`/`wait()`: feed one frame of one live feed at a time,
 *    the way frames actually arrive from cameras;
 *  - `run(streams)` is a convenience over it: it gets or creates the
 *    session named after each Sequence, submits every frame, drains,
 *    and folds this call's outcomes into a per-run RunReport.
 *
 * Each session owns one stream's AMC state (one AmcPipeline and its
 * StageScheduler strand), so a stream fed frame-by-frame produces
 * output digests bit-identical to the same frames fed through run().
 * Results come back as a structured RunReport — per-stream stats,
 * chained digests, RFBME op counts, per-stage timings from the
 * instrumentation hook layer — with JSON serialization.
 *
 * Threading model: sessions are independent strands. submit() may be
 * called from any thread; frames of one session are processed
 * strictly in submission order (on the engine's worker pool, or
 * inline when num_threads == 1), while different sessions run
 * concurrently. run(), report(), and reset() drain all in-flight
 * session work; do not call them concurrently with submissions to
 * the streams they touch.
 */
#ifndef EVA2_API_ENGINE_H
#define EVA2_API_ENGINE_H

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/run_report.h"
#include "runtime/stage_scheduler.h"
#include "runtime/stream_executor.h"
#include "util/mutex.h"
#include "video/frame.h"

namespace eva2 {

/**
 * Declarative engine configuration. String fields are registry specs
 * resolved (and validated) when the Engine is constructed; a typo or
 * out-of-range value throws ConfigError with the alternatives spelled
 * out instead of silently running a default.
 */
struct EngineConfig
{
    /** Key-frame policy spec (PolicyRegistry). */
    std::string policy = "every_frame";
    /** Warp interpolation spec (InterpRegistry). */
    std::string interp = "bilinear";
    /** Key-activation storage codec spec (CodecRegistry). */
    std::string codec = "rle_q88";
    /**
     * CNN execution kernel spec (KernelRegistry): how the compiled
     * plans run the network. `gemm` (im2col + blocked GEMM on the
     * bit-exact SIMD tile where the CPU supports it, fused conv+ReLU)
     * is bit-identical to the reference Network::forward; `tuned`
     * autotunes tiles per shape (bounded divergence).
     */
    std::string kernel = "gemm";
    /** AMC target layer: "last_spatial", "early", or "layer:<i>". */
    std::string target = "last_spatial";
    /** Predicted frames: "compensation" (warp) or "memoization". */
    std::string motion = "compensation";
    /**
     * Cross-stream suffix batching spec:
     *
     *   "off"                        each stream's CNN suffix runs as
     *                                its own task (the legacy shape);
     *   "auto[:max=N,delay_us=U]"    suffix-ready activations from
     *                                all streams collect into shared
     *                                BatchedExecutionPlan runs of up
     *                                to N samples (default 8), a
     *                                partial batch dispatching once
     *                                its oldest item has waited U
     *                                microseconds (default 200).
     *
     * Batching changes only the execution shape: per-stream digests
     * are bit-identical to "off". RunReport::batching reports how
     * full the batches actually ran.
     */
    std::string batch = "off";
    /**
     * Resident-session memory budget spec (runtime/resident_set.h):
     *
     *   "off"                       no tracking (the default);
     *   "budget_mb:N"               track per-session resident bytes
     *                               against a hard N MB cap — over it,
     *                               the serving layer sheds new frames
     *                               (SHED/memory) instead of growing;
     *   "budget_mb:N,hibernate=on"  additionally LRU-hibernate idle
     *                               sessions down to compressed-only
     *                               state (the RLE key activation plus
     *                               u8 key pixels) to get back under
     *                               budget; a hibernated session
     *                               rehydrates transparently on its
     *                               next submit. Requires a quantizing
     *                               codec (hibernation reconstructs
     *                               state from the compressed form, so
     *                               codec=dense cannot round-trip).
     *
     * Digests are unaffected either way: hibernation stores exactly
     * the compressed representation the codec already quantized to.
     */
    std::string memory = "off";
    i64 search_radius = 28; ///< RFBME search radius in pixels (> 0).
    i64 search_stride = 2;  ///< RFBME search step in pixels (> 0).
    /** Stream-level workers; 1 = serial inline, 0 = hardware default. */
    i64 num_threads = 0;
    /**
     * Frames of one stream software-pipelined across the FramePlan
     * stage graph, up to this many in flight per stream: frame N+1's
     * motion estimation overlaps frame N's CNN suffix on the worker
     * pool. <= 1 runs every frame's stages strictly serially (the
     * legacy shape). Output digests are bit-identical either way.
     */
    i64 pipeline_depth = 3;
    /** Retain every output tensor (tests; memory-heavy). */
    bool store_outputs = false;
    /** Feed the per-stage instrumentation layer (cheap; default on). */
    bool collect_timings = true;

    /**
     * Resolve every spec against the registries and the network into
     * the options the Engine builds its pipelines from; throws
     * ConfigError on any invalid field.
     */
    StreamExecutorOptions resolve(const Network &net) const;

    /** Validation without construction: resolve() and discard. */
    void
    validate(const Network &net) const
    {
        (void)resolve(net);
    }
};

/** Handle for one submitted frame of one session. */
struct FrameTicket
{
    i64 session = -1; ///< Owning session's stream index.
    i64 frame = -1;   ///< Per-session submission sequence number.
    i64 epoch = 0;    ///< Session reset generation; stale tickets
                      ///< (issued before an Engine::reset) are
                      ///< rejected instead of matching new frames.

    bool valid() const { return session >= 0 && frame >= 0; }
};

/** The completed record of one submitted frame. */
struct FrameOutcome
{
    i64 frame = -1; ///< Matches the ticket's frame number.
    bool is_key = false;
    i64 top1 = -1;          ///< Argmax of the network output.
    u64 output_digest = 0;  ///< Digest of the raw output bits.
    double match_error = 0; ///< RFBME mean error (0 on key-only path).
    i64 me_add_ops = 0;     ///< RFBME arithmetic ops for this frame.
    bool failed = false;    ///< Processing threw; see Session::wait.
};

class Engine;

/**
 * A live per-stream handle owning the submission strand for one
 * camera feed. Created by Engine::session(); pointer-stable for the
 * engine's lifetime.
 */
class Session
{
  public:
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    const std::string &name() const { return name_; }

    /** The engine stream index this session feeds. */
    i64 index() const { return index_; }

    /**
     * Enqueue one frame for processing. Thread-safe; frames of this
     * session are processed strictly in submission order. The frame's
     * shape is validated here, on the calling thread.
     */
    FrameTicket submit(Tensor frame);

    /** Convenience overload for labelled synthetic frames. */
    FrameTicket submit(const LabeledFrame &frame);

    /** Submit every frame of a sequence, in order. */
    std::vector<FrameTicket> submit_all(const Sequence &seq);

    /**
     * Non-blocking completion check: the outcome once the frame has
     * been processed, std::nullopt while it is still queued/running.
     */
    std::optional<FrameOutcome> poll(const FrameTicket &ticket) const;

    /**
     * Block until the frame completes. Throws if the frame failed.
     *
     * Failure semantics: submit() validates frame shape eagerly, so
     * a frame can only fail on an internal error. A failed frame
     * poisons the session — it contributes nothing to the digest,
     * stats, or outputs() (which stay aligned with the *successful*
     * outcomes), and the stored error is sticky: wait() on the
     * failed ticket, drain(), and engine report()/flush() all keep
     * rethrowing it until Engine::reset() discards the stream.
     *
     * Cross-thread semantics (the IO-loop shape: one thread submits,
     * another waits, a third may tear the engine down): wait() never
     * hangs on a ticket that can no longer complete. Engine::close()
     * drains, so the outcome arrives and is returned; Engine::reset()
     * or forget_outcomes() discarding the record wakes this waiter
     * and throws the same descriptive ConfigError poll() gives for a
     * stale/forgotten ticket. Only engine *destruction* must still be
     * ordered after all waiters return.
     */
    FrameOutcome wait(const FrameTicket &ticket);

    /** Block until every submitted frame completes; rethrows errors. */
    void drain() EXCLUDES(mutex_);

    i64 submitted() const;
    i64 completed() const;

    /** Frames submitted but not yet completed (occupancy). */
    i64
    in_flight() const
    {
        return submitted() - completed();
    }

    /**
     * Per-outcome completion hook, the push-style alternative to
     * polling tickets: invoked once per frame, in frame order, right
     * after the outcome becomes observable — on whichever thread
     * delivered the commit (an engine worker, or the submitting
     * thread when the engine runs inline). The net::Server IO loop
     * uses this to stream OUTCOME messages without polling thousands
     * of tickets.
     *
     * The sink runs outside the session's internal lock, so it may
     * call poll()/completed(); it must not block on wait()/drain()
     * of this session (it would wait on itself) and must be cleared
     * (set to nullptr, after a drain) before anything it captures
     * dies. Failed frames are delivered with outcome.failed set
     * rather than thrown.
     */
    using OutcomeSink = std::function<void(const FrameOutcome &)>;
    void set_outcome_sink(OutcomeSink sink);

    /**
     * Drop the per-frame outcome records (and retained outputs)
     * accumulated so far, keeping the cumulative stats and digest
     * chain intact. Long-lived serving loops call this periodically
     * to bound memory — outcomes otherwise accumulate for every
     * frame ever submitted. Drains first; poll()/wait() on a
     * forgotten ticket throws ConfigError.
     */
    void forget_outcomes();

    /**
     * This session's cumulative report row (drains first): frames,
     * key frames, RFBME ops, and the chained output digest that a
     * run() over the same frames reproduces bit-identically.
     */
    StreamReport report();

    /**
     * Snapshot of the retained output tensors in submission order;
     * only meaningful with EngineConfig::store_outputs, after
     * drain(). Returned by value: the record is guarded and may be
     * trimmed (forget_outcomes) or reset concurrently, so a reference
     * into it could not be made safe.
     */
    std::vector<Tensor> outputs() const;

  private:
    friend class Engine;

    Session(Engine *engine, i64 index, std::string name,
            AmcPipeline *pipeline, SuffixBatcher *batcher);

    /** Commit sink: record one pipelined frame (in frame order). */
    void record_commit(FrameCommit commit);

    /**
     * Rehydrate this session's plan if it was hibernated, recording
     * the latency. The submit gate is what serializes this against
     * the Engine's eviction loop — it hibernates only under a
     * try_lock of this same gate.
     */
    void hydrate_if_hibernated() REQUIRES(submit_mutex_);

    /** Reject foreign, stale (pre-reset), or forgotten tickets. */
    void check_ticket(const FrameTicket &ticket) const
        REQUIRES(mutex_);

    /** Drop cumulative records for an engine-level reset. */
    void reset_record();

    /** First-submit/last-done bounds, if any work was recorded. */
    bool time_bounds(std::chrono::steady_clock::time_point *first,
                     std::chrono::steady_clock::time_point *last) const;

    Engine *engine_;
    i64 index_;
    std::string name_;
    AmcPipeline *pipeline_;

    /**
     * Serializes submit() against Engine::close()/reset(): a submit
     * holds this across its closed-check, epoch read, and enqueue,
     * and close()/reset() acquire it after flipping their state, so
     * a submission racing teardown either completes before the drain
     * or observes the closed/reset state and fails loudly. Ordered
     * before mutex_ (a submit's inline commit takes mutex_ while the
     * gate is held; nothing takes the gate while holding mutex_). It
     * guards no data directly — it is a serialization gate, which is
     * why the fields below name only mutex_.
     */
    mutable Mutex submit_mutex_;

    mutable Mutex mutex_;
    CondVar cv_;
    i64 epoch_ GUARDED_BY(mutex_) = 0; ///< Bumped by Engine::reset().
    /** Frame number of done_[0] (after trims). */
    i64 done_base_ GUARDED_BY(mutex_) = 0;
    std::vector<FrameOutcome> done_ GUARDED_BY(mutex_);
    std::vector<Tensor> outputs_ GUARDED_BY(mutex_);
    /** First failure (drain rethrows it). */
    std::exception_ptr error_ GUARDED_BY(mutex_);
    /** Every failed frame's own diagnostic, by frame number. */
    std::map<i64, std::exception_ptr> frame_errors_ GUARDED_BY(mutex_);
    /** Per-commit push hook (may be null). */
    OutcomeSink outcome_sink_ GUARDED_BY(mutex_);

    // Cumulative stream accounting (one StreamReport row).
    u64 digest_ GUARDED_BY(mutex_) = kDigestSeed;
    i64 frames_ GUARDED_BY(mutex_) = 0;
    i64 key_frames_ GUARDED_BY(mutex_) = 0;
    i64 me_add_ops_ GUARDED_BY(mutex_) = 0;

    bool has_times_ GUARDED_BY(mutex_) = false;
    std::chrono::steady_clock::time_point first_submit_
        GUARDED_BY(mutex_);
    std::chrono::steady_clock::time_point last_done_
        GUARDED_BY(mutex_);

    /**
     * This session's submission strand: serializes the stateful
     * front stages in submission order and (with a pool) overlaps
     * each frame's CNN suffix with the next frames' fronts.
     * Declared last: its destructor drains in-flight commits into
     * the members above, so it must be destroyed before them.
     */
    std::unique_ptr<StageScheduler> scheduler_;
};

/**
 * The unified serving entry point: one network, N streams, both
 * batch and frame-level ingestion, structured reporting.
 */
class Engine
{
  public:
    /**
     * @param net    Shared read-only network; must outlive the engine.
     * @param config Declarative configuration; resolved and validated
     *               here (throws ConfigError on any bad field).
     */
    explicit Engine(const Network &net, EngineConfig config = {});

    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Get or create the session named `name`. New sessions take the
     * next free stream index (creation order). Thread-safe; the
     * returned reference is stable for the engine's lifetime.
     */
    Session &session(const std::string &name);

    /** The session named `name`, or null if never created. */
    Session *find_session(const std::string &name);

    i64 num_sessions() const;

    /**
     * Total frames submitted but not yet completed across all
     * sessions — the occupancy signal the serving layer's load
     * shedding and drain logic watch. Racy by nature (sessions keep
     * moving); exact once ingestion has stopped.
     */
    i64 in_flight() const;

    /**
     * Feed whole sequences through sessions: sequence i goes to the
     * session named streams[i].name (created on first use, so it
     * never aliases another stream's state), every frame is
     * submitted, and the engine drains. The report covers exactly
     * this call's frames, stage timings, and batching; its digest
     * chains the per-stream digests in argument order. Stream state
     * persists, so successive chunks of the same feeds continue
     * their AMC state. The fed sessions' per-frame outcome records
     * are forgotten afterwards (Session::forget_outcomes), so
     * repeated runs do not grow memory. Throws ConfigError when two
     * sequences share a name or a frame has the wrong shape — the
     * latter only after draining what was already submitted.
     */
    RunReport run(const std::vector<Sequence> &streams);

    /**
     * Aggregate report over everything every session has processed
     * so far, run() calls included (drains first). Per-stream digests
     * chain in session index order.
     */
    RunReport report();

    /**
     * Drain all sessions' in-flight work; rethrows the first error.
     * Must not hold mutex_: a commit still in flight re-enters the
     * engine through note_commit_resident → evict_to_budget, which
     * takes mutex_ — draining under it deadlocks.
     */
    void flush() EXCLUDES(mutex_);

    /**
     * Reset all stream state for an independent run: pipelines, the
     * sessions' cumulative records, and stage timings. Sessions stay
     * valid. Drains first.
     */
    void reset();

    /**
     * Permanently close the engine for ingestion: drains all
     * in-flight work, then rejects every later Session::submit(),
     * Engine::run(), and session creation with a descriptive
     * ConfigError instead of racing engine teardown. Idempotent;
     * completed work stays observable (poll/wait/report). The
     * destructor closes implicitly.
     */
    void close();

    /** True once close() (or destruction) has begun. */
    bool closed() const { return closed_.load(); }

    const EngineConfig &config() const { return config_; }
    const Network &network() const { return *net_; }

    /**
     * The resident-session memory manager, or null with memory=off.
     * Read-only counters for tests and benches; the Engine itself is
     * the only writer.
     */
    const ResidentSetManager *resident_manager() const
    {
        return resident_.get();
    }

    /**
     * True when a memory budget is set and tracked resident bytes
     * still exceed it — i.e. hibernation is off or could not reclaim
     * enough. The serving layer sheds new frames while this holds.
     */
    bool memory_pressure() const;

    /** Effective stream-level worker count. */
    i64 num_threads() const { return num_threads_; }

  private:
    friend class Session;

    /**
     * The shared cross-stream suffix batcher, created (with its
     * BatchedExecutionPlan, from pipeline 0's compiled suffix) on
     * first use; null with batch=off.
     */
    SuffixBatcher *suffix_batcher_locked() REQUIRES(mutex_);

    /** Batch occupancy counters so far; empty with batch=off. */
    SuffixBatchStats batching_stats() const EXCLUDES(mutex_);

    /** Every stream's stage timings so far, merged. */
    StageTimings merged_timings() const EXCLUDES(mutex_);

    /** Every session, in index order (the list only grows). */
    std::vector<Session *> session_list() const EXCLUDES(mutex_);

    /** Throw a descriptive ConfigError when the engine is closed. */
    void ensure_open(const char *what) const;

    /**
     * A frame of session `index` committed with `bytes` resident:
     * update the manager, then LRU-hibernate other idle sessions
     * while over budget (hibernate=on only). Called from the commit
     * path with no locks held.
     */
    void note_commit_resident(i64 index, i64 bytes) EXCLUDES(mutex_);

    /** Hibernate LRU-idle sessions until under budget or no victims. */
    void evict_to_budget(i64 protect_index) EXCLUDES(mutex_);

    RunReport base_report() EXCLUDES(mutex_);

    const Network *net_;
    EngineConfig config_;
    /** config_ resolved: AMC options, policy factory, batching. */
    StreamExecutorOptions resolved_;
    bool store_outputs_;
    i64 num_threads_;
    std::atomic<bool> closed_{false};
    /** Resolved memory= spec; disabled ⇒ resident_ is null. */
    MemoryBudget memory_budget_;
    std::unique_ptr<ResidentSetManager> resident_;

    /**
     * Guards the stream tables. Lock ordering (see
     * docs/static_analysis.md): a submit gate may be held when a
     * commit takes mutex_ (inline engines), so mutex_ must never be
     * held while acquiring a gate or draining a session — that is the
     * deadlock report()/reset() used to have.
     */
    mutable Mutex mutex_;
    /**
     * One pipeline per session, by session index. Declared before
     * pool_ so the pool's workers join before the pipelines they
     * touch die.
     */
    std::vector<std::unique_ptr<AmcPipeline>> pipelines_
        GUARDED_BY(mutex_);
    /** Stream-level worker pool; null when num_threads_ == 1. */
    std::unique_ptr<ThreadPool> pool_;
    /**
     * Suffix-batching machinery, created with the first session when
     * batch=auto. Declared after pool_ so the batcher (whose
     * destructor waits out in-flight batches) dies before the pool
     * its batches run on, and after pipelines_ since the batched plan
     * borrows the shared network through pipeline 0's compiled
     * suffix.
     */
    std::unique_ptr<BatchedExecutionPlan> batched_suffix_
        GUARDED_BY(mutex_);
    std::unique_ptr<SuffixBatcher> batcher_ GUARDED_BY(mutex_);
    std::vector<std::unique_ptr<StageTimings>> timings_
        GUARDED_BY(mutex_);
    std::vector<std::unique_ptr<Session>> sessions_
        GUARDED_BY(mutex_);
    std::map<std::string, i64> session_index_ GUARDED_BY(mutex_);
};

} // namespace eva2

#endif // EVA2_API_ENGINE_H
