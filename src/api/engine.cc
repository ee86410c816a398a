#include "api/engine.h"

#include <algorithm>
#include <set>
#include <utility>

#include "eval/metrics.h"
#include "simd/simd_kernels.h"

namespace eva2 {

// --------------------------------------------------------------------
// EngineConfig

namespace {

AmcOptions
resolve_amc(const EngineConfig &config, const Network &net)
{
    AmcOptions amc;
    amc.interp = InterpRegistry::instance().resolve(config.interp);
    CodecRegistry::instance().apply(config.codec, amc);
    // One execution kernel: every conv on the bit-exact GEMM tile
    // (SIMD where supported, scalar otherwise), fused with a following
    // ReLU, so plans are bit-identical to Network::forward.
    if (config.kernel != "gemm") {
        throw ConfigError("unknown execution kernel spec '" +
                          config.kernel +
                          "' (known: gemm, which takes no parameters)");
    }

    if (config.target == "last_spatial") {
        amc.target_choice = TargetChoice::kLastSpatial;
    } else if (config.target == "early") {
        amc.target_choice = TargetChoice::kEarly;
    } else if (config.target.rfind("layer:", 0) == 0) {
        const ComponentSpec spec =
            parse_component_spec("target:index=" +
                                 config.target.substr(6));
        amc.target_choice = TargetChoice::kExplicit;
        amc.explicit_target = spec.integer("index", -1);
    } else {
        throw ConfigError(
            "unknown target spec '" + config.target +
            "' (known: last_spatial, early, layer:<index>)");
    }

    if (config.motion == "compensation") {
        amc.motion_mode = MotionMode::kCompensation;
    } else if (config.motion == "memoization") {
        amc.motion_mode = MotionMode::kMemoization;
    } else {
        throw ConfigError("unknown motion mode '" + config.motion +
                          "' (known: compensation, memoization)");
    }

    amc.search_radius = config.search_radius;
    amc.search_stride = config.search_stride;
    amc.validate(net);
    return amc;
}

SuffixBatchOptions
resolve_batch(const std::string &spec)
{
    const ComponentSpec s = parse_component_spec(spec);
    SuffixBatchOptions out;
    if (s.kind == "off") {
        s.allow_only({});
        return out;
    }
    if (s.kind == "auto") {
        s.allow_only({"max", "delay_us"});
        out.enabled = true;
        out.max_batch = s.integer("max", out.max_batch);
        out.max_delay_us = s.integer("delay_us", out.max_delay_us);
        require(out.max_batch >= 1 &&
                    out.max_batch <= kMaxSuffixBatch,
                "batch spec '" + spec + "': max must be in [1, " +
                    std::to_string(kMaxSuffixBatch) + "], got " +
                    std::to_string(out.max_batch));
        require(out.max_delay_us >= 0,
                "batch spec '" + spec +
                    "': delay_us must be >= 0, got " +
                    std::to_string(out.max_delay_us));
        return out;
    }
    throw ConfigError("unknown batch spec '" + spec +
                      "' (known: off, auto[:max=N,delay_us=U])");
}

} // namespace

StreamExecutorOptions
EngineConfig::resolve(const Network &net) const
{
    StreamExecutorOptions opts;
    opts.amc = resolve_amc(*this, net);
    require(num_threads >= 0,
            "EngineConfig: num_threads must be >= 0, got " +
                std::to_string(num_threads));
    require(pipeline_depth >= 0,
            "EngineConfig: pipeline_depth must be >= 0, got " +
                std::to_string(pipeline_depth));
    opts.suffix_batch = resolve_batch(batch);
    // Validate the memory spec here so a typo throws at construction
    // like every other field; the Engine re-resolves it for its own
    // manager. Hibernation reconstructs session state from the
    // compressed form, so it needs a codec that actually stores one.
    const MemoryBudget mem = resolve_memory_spec(memory);
    require(!mem.hibernate || opts.amc.quantize_storage,
            "memory spec '" + memory +
                "': hibernate=on requires a quantizing storage codec "
                "(the dense precise activation of codec '" +
                codec + "' cannot be reconstructed from compressed "
                "state)");
    // The factory is shared across streams; each call builds a fresh
    // stateful policy instance. Validated eagerly by factory().
    auto make = PolicyRegistry::instance().factory(policy);
    opts.make_policy = [make](i64) { return make(); };
    return opts;
}

// --------------------------------------------------------------------
// Session

Session::Session(Engine *engine, i64 index, std::string name,
                 AmcPipeline *pipeline, SuffixBatcher *batcher)
    : engine_(engine),
      index_(index),
      name_(std::move(name)),
      pipeline_(pipeline)
{
    // The session's submission strand: the scheduler serializes the
    // stateful front stages in submission order and delivers commits
    // in order; with a pool and depth > 1 it overlaps each frame's
    // CNN suffix with the next frames' front stages. Without a pool
    // every frame is processed inline during submit(), exactly the
    // legacy serial-engine behavior.
    StageSchedulerOptions opts;
    opts.depth = std::max<i64>(1, engine_->config_.pipeline_depth);
    opts.store_outputs = engine_->store_outputs_;
    // With batch=auto the suffix stage becomes enqueue-to-batcher:
    // this session's suffixes execute batched with every other
    // session's.
    opts.batcher = batcher;
    scheduler_ = std::make_unique<StageScheduler>(
        *pipeline_, engine_->pool_.get(), opts,
        [this](FrameCommit commit) {
            record_commit(std::move(commit));
        });
}

FrameTicket
Session::submit(Tensor frame)
{
    // The gate makes {closed-check, epoch read, enqueue} one atomic
    // step against Engine::close()/reset(), which acquire it after
    // flipping their state: a submission racing teardown either
    // lands before the drain or throws — it can never be silently
    // accepted into a closing engine or carry a stale epoch into a
    // reset stream.
    MutexLock gate(submit_mutex_);
    engine_->ensure_open("Session::submit");
    require(frame.shape() == engine_->network().input_shape(),
            "session '" + name_ + "': frame shape " +
                frame.shape().str() + " does not match network input " +
                engine_->network().input_shape().str());
    FrameTicket ticket;
    ticket.session = index_;
    {
        MutexLock lock(mutex_);
        if (!has_times_) {
            first_submit_ = std::chrono::steady_clock::now();
            last_done_ = first_submit_;
            has_times_ = true;
        }
        ticket.epoch = epoch_;
    }
    // A hibernated session rehydrates before its frame enqueues: the
    // gate we hold is the same one the eviction loop try_locks, so
    // the plan cannot re-hibernate underneath the enqueue.
    hydrate_if_hibernated();
    // Enqueue outside the session mutex: without a pool the frame is
    // processed inline here, and its commit takes the mutex.
    ticket.frame = scheduler_->enqueue(std::move(frame));
    return ticket;
}

void
Session::hydrate_if_hibernated()
{
    FramePlan &plan = pipeline_->frame_plan();
    if (!plan.hibernated()) {
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    plan.hydrate();
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (engine_->resident_) {
        engine_->resident_->note_hydrated(index_,
                                          plan.resident_bytes(), us);
    }
}

void
Session::check_ticket(const FrameTicket &ticket) const
{
    require(ticket.valid() && ticket.session == index_,
            "session '" + name_ + "': ticket does not belong here");
    require(ticket.epoch == epoch_,
            "session '" + name_ + "': stale ticket from before a "
            "reset");
    require(ticket.frame >= done_base_,
            "session '" + name_ + "': outcome of frame " +
                std::to_string(ticket.frame) +
                " was forgotten (forget_outcomes)");
}

FrameTicket
Session::submit(const LabeledFrame &frame)
{
    return submit(frame.image);
}

std::vector<FrameTicket>
Session::submit_all(const Sequence &seq)
{
    std::vector<FrameTicket> tickets;
    tickets.reserve(seq.frames.size());
    for (const LabeledFrame &frame : seq.frames) {
        tickets.push_back(submit(frame.image));
    }
    return tickets;
}

void
Session::record_commit(FrameCommit commit)
{
    FrameOutcome outcome;
    OutcomeSink sink;
    const i64 resident_bytes = commit.resident_bytes;
    {
        MutexLock lock(mutex_);
        outcome.frame = done_base_ + static_cast<i64>(done_.size());
        if (commit.error) {
            outcome.failed = true;
            // Keep every frame's own diagnostic; error_ stays the
            // first failure, the one drain() keeps surfacing.
            frame_errors_[outcome.frame] = commit.error;
            if (!error_) {
                error_ = commit.error;
            }
        } else {
            outcome.is_key = commit.is_key;
            outcome.top1 = commit.top1;
            outcome.output_digest = commit.output_digest;
            outcome.match_error = commit.match_error;
            outcome.me_add_ops = commit.me_add_ops;
            digest_ = digest_combine(digest_, outcome.output_digest);
            ++frames_;
            if (outcome.is_key) {
                ++key_frames_;
            }
            me_add_ops_ += outcome.me_add_ops;
            if (engine_->store_outputs_) {
                outputs_.push_back(std::move(commit.output));
            }
        }
        done_.push_back(outcome);
        last_done_ = std::chrono::steady_clock::now();
        sink = outcome_sink_;
        cv_.notify_all();
    }
    // Resident accounting runs outside the session lock too — the
    // eviction walk it may trigger try_locks *other* sessions' gates.
    if (!outcome.failed && resident_bytes > 0) {
        engine_->note_commit_resident(index_, resident_bytes);
    }
    // Outside the session lock, so the sink may call poll() or
    // completed(). Commits are delivered serially in frame order
    // (the scheduler has a sole flusher), so sink calls are too.
    if (sink) {
        sink(outcome);
    }
}

void
Session::set_outcome_sink(OutcomeSink sink)
{
    MutexLock lock(mutex_);
    outcome_sink_ = std::move(sink);
}

std::optional<FrameOutcome>
Session::poll(const FrameTicket &ticket) const
{
    MutexLock lock(mutex_);
    check_ticket(ticket);
    if (ticket.frame <
        done_base_ + static_cast<i64>(done_.size())) {
        return done_[static_cast<size_t>(ticket.frame - done_base_)];
    }
    return std::nullopt;
}

FrameOutcome
Session::wait(const FrameTicket &ticket)
{
    MutexLock lock(mutex_);
    check_ticket(ticket);
    // The predicate wakes on completion, but also on an epoch bump
    // or a record trim: an Engine::reset() or forget_outcomes() from
    // another thread discards the very record this wait is blocked
    // on, so waiting purely for completion would hang forever — the
    // frame's outcome is gone, not late. Both paths notify the cv,
    // and the re-check below turns them into the same descriptive
    // stale/forgotten-ticket error poll() gives.
    while (ticket.epoch == epoch_ && ticket.frame >= done_base_ &&
           ticket.frame >=
               done_base_ + static_cast<i64>(done_.size())) {
        cv_.wait(lock);
    }
    check_ticket(ticket);
    const FrameOutcome outcome =
        done_[static_cast<size_t>(ticket.frame - done_base_)];
    if (outcome.failed) {
        const auto it = frame_errors_.find(ticket.frame);
        if (it != frame_errors_.end()) {
            std::rethrow_exception(it->second);
        }
        throw InternalError("session '" + name_ + "': frame " +
                            std::to_string(ticket.frame) +
                            " failed with no stored error");
    }
    return outcome;
}

void
Session::drain()
{
    scheduler_->drain();
    MutexLock lock(mutex_);
    // Sticky: a failed frame broke this stream's digest chain, so
    // every drain keeps failing until Engine::reset() discards it.
    if (error_) {
        std::rethrow_exception(error_);
    }
}

i64
Session::submitted() const
{
    return scheduler_->submitted();
}

i64
Session::completed() const
{
    MutexLock lock(mutex_);
    return done_base_ + static_cast<i64>(done_.size());
}

std::vector<Tensor>
Session::outputs() const
{
    MutexLock lock(mutex_);
    return outputs_;
}

StreamReport
Session::report()
{
    drain();
    MutexLock lock(mutex_);
    StreamReport row;
    row.name = name_;
    row.stream_index = index_;
    row.frames = frames_;
    row.key_frames = key_frames_;
    row.me_add_ops = me_add_ops_;
    row.digest = digest_;
    return row;
}

void
Session::forget_outcomes()
{
    drain();
    MutexLock lock(mutex_);
    done_base_ += static_cast<i64>(done_.size());
    done_.clear();
    outputs_.clear();
    // Forgotten tickets are rejected before lookup, so their
    // diagnostics can go too; error_ stays sticky for drain().
    frame_errors_.clear();
    // Wake cross-thread waiters whose record was just trimmed; their
    // re-check throws the forgotten-ticket error instead of hanging.
    cv_.notify_all();
}

void
Session::reset_record()
{
    // Hold the submit gate across the whole reset: a submit that
    // already passed the gate finishes its enqueue before we check
    // the drained invariant; one that arrives later observes the new
    // epoch and the restarted frame numbering together.
    MutexLock gate(submit_mutex_);
    // Restart the strand's frame numbering (asserts it is drained).
    scheduler_->reset_counters();
    MutexLock lock(mutex_);
    ++epoch_; // Pre-reset tickets must not match the new stream.
    done_base_ = 0;
    done_.clear();
    outputs_.clear();
    error_ = nullptr;
    frame_errors_.clear();
    digest_ = kDigestSeed;
    frames_ = 0;
    key_frames_ = 0;
    me_add_ops_ = 0;
    has_times_ = false;
    // Wake cross-thread waiters blocked on pre-reset tickets; their
    // epoch re-check throws the stale-ticket error instead of
    // sleeping forever on a record that was just discarded.
    cv_.notify_all();
}

bool
Session::time_bounds(std::chrono::steady_clock::time_point *first,
                     std::chrono::steady_clock::time_point *last) const
{
    MutexLock lock(mutex_);
    if (!has_times_) {
        return false;
    }
    *first = first_submit_;
    *last = last_done_;
    return true;
}

// --------------------------------------------------------------------
// Engine

Engine::Engine(const Network &net, EngineConfig config)
    : net_(&net),
      config_(std::move(config)),
      resolved_(config_.resolve(net)),
      store_outputs_(config_.store_outputs),
      num_threads_(config_.num_threads > 0
                       ? config_.num_threads
                       : ThreadPool::default_num_threads()),
      memory_budget_(resolve_memory_spec(config_.memory))
{
    if (num_threads_ > 1) {
        pool_ = std::make_unique<ThreadPool>(num_threads_);
    }
    if (memory_budget_.enabled) {
        resident_ =
            std::make_unique<ResidentSetManager>(memory_budget_);
    }
}

Engine::~Engine()
{
    // Strand tasks reference sessions and pipelines; nothing may be
    // in flight when members start destructing, and submissions that
    // race teardown must be rejected loudly rather than touch dying
    // state.
    try {
        close();
    } catch (...) {
        // A stream failure already surfaced (or never will); engine
        // teardown is not the place to throw.
    }
}

void
Engine::ensure_open(const char *what) const
{
    if (closed_.load(std::memory_order_acquire)) {
        throw ConfigError(std::string(what) + ": engine for network '" +
                          net_->name() +
                          "' is closed (close() was called or the "
                          "engine is being destroyed); create a new "
                          "Engine to submit more work");
    }
}

void
Engine::close()
{
    // Reject new ingestion first, then drain what is already in
    // flight; completed results stay observable through poll/wait/
    // report. Idempotent: later calls see closed_ already set and
    // only re-drain (a no-op on a drained engine).
    closed_.store(true, std::memory_order_release);
    // Wait out submits that passed their closed-check before the
    // store: each holds its session's submit gate until its frame is
    // enqueued, so acquiring every gate here means the flush below
    // sees every racing frame, and any submit arriving afterwards
    // observes closed_ under the gate and throws.
    const std::vector<Session *> sessions = session_list();
    for (Session *s : sessions) {
        MutexLock gate(s->submit_mutex_);
    }
    flush();
}

SuffixBatcher *
Engine::suffix_batcher_locked()
{
    if (!resolved_.suffix_batch.enabled) {
        return nullptr;
    }
    if (!batcher_) {
        // Every pipeline shares one network and one config, so
        // stream 0's compiled suffix describes them all; its batched
        // form is what every session's scheduler enqueues into.
        batched_suffix_ = std::make_unique<BatchedExecutionPlan>(
            pipelines_[0]->frame_plan().suffix_plan(),
            resolved_.suffix_batch.max_batch);
        batcher_ = std::make_unique<SuffixBatcher>(
            *batched_suffix_, pool_.get(), resolved_.suffix_batch);
    }
    return batcher_.get();
}

Session &
Engine::session(const std::string &name)
{
    MutexLock lock(mutex_);
    const auto it = session_index_.find(name);
    if (it != session_index_.end()) {
        // Existing sessions stay addressable after close() (their
        // completed work is still observable); only creation and
        // submission are rejected.
        return *sessions_[static_cast<size_t>(it->second)];
    }
    ensure_open("Engine::session");
    const i64 index = static_cast<i64>(sessions_.size());
    pipelines_.push_back(std::make_unique<AmcPipeline>(
        *net_, resolved_.make_policy(index), resolved_.amc));
    timings_.push_back(std::make_unique<StageTimings>());
    if (config_.collect_timings) {
        pipelines_.back()->set_observer(timings_.back().get());
    }
    sessions_.push_back(std::unique_ptr<Session>(
        new Session(this, index, name, pipelines_.back().get(),
                    suffix_batcher_locked())));
    session_index_[name] = index;
    return *sessions_.back();
}

std::vector<Session *>
Engine::session_list() const
{
    MutexLock lock(mutex_);
    std::vector<Session *> out;
    out.reserve(sessions_.size());
    for (const auto &s : sessions_) {
        out.push_back(s.get());
    }
    return out;
}

SuffixBatchStats
Engine::batching_stats() const
{
    MutexLock lock(mutex_);
    return batcher_ ? batcher_->stats() : SuffixBatchStats{};
}

StageTimings
Engine::merged_timings() const
{
    MutexLock lock(mutex_);
    StageTimings merged;
    for (const auto &t : timings_) {
        merged.merge(*t);
    }
    return merged;
}

Session *
Engine::find_session(const std::string &name)
{
    MutexLock lock(mutex_);
    const auto it = session_index_.find(name);
    return it == session_index_.end()
               ? nullptr
               : sessions_[static_cast<size_t>(it->second)].get();
}

i64
Engine::num_sessions() const
{
    MutexLock lock(mutex_);
    return static_cast<i64>(sessions_.size());
}

i64
Engine::in_flight() const
{
    MutexLock lock(mutex_);
    i64 total = 0;
    for (const auto &s : sessions_) {
        total += s->in_flight();
    }
    return total;
}

bool
Engine::memory_pressure() const
{
    return resident_ != nullptr && resident_->over_budget();
}

void
Engine::note_commit_resident(i64 index, i64 bytes)
{
    if (!resident_) {
        return;
    }
    resident_->note_resident(index, bytes);
    if (memory_budget_.hibernate && resident_->over_budget()) {
        evict_to_budget(index);
    }
}

void
Engine::evict_to_budget(i64 protect_index)
{
    // One bounded LRU pass per call — the batch is a constant, not
    // the session count, so a 100k-session fleet pays O(1) per
    // commit. A victim is skipped (not retried) when its submit gate
    // is held or it has frames in flight, and any overshoot left when
    // the batch runs out is reclaimed by the next commit's pass. No
    // blocking lock is ever taken on a session here, so this cannot
    // deadlock against submit paths.
    constexpr i64 kVictimBatch = 32;
    const std::vector<i64> victims =
        resident_->victims(kVictimBatch, protect_index);
    for (const i64 victim : victims) {
        if (!resident_->over_budget()) {
            return;
        }
        Session *s = nullptr;
        {
            MutexLock lock(mutex_);
            if (victim >= 0 &&
                victim < static_cast<i64>(sessions_.size())) {
                s = sessions_[static_cast<size_t>(victim)].get();
            }
        }
        if (s == nullptr) {
            continue;
        }
        MutexLock gate(s->submit_mutex_, std::defer_lock);
        if (!gate.try_lock()) {
            continue; // A submit holds the gate: not idle.
        }
        if (s->in_flight() != 0) {
            continue; // Busy: not idle enough to hibernate.
        }
        FramePlan &plan = s->pipeline_->frame_plan();
        if (plan.hibernated()) {
            continue;
        }
        plan.hibernate();
        resident_->note_hibernated(victim, plan.resident_bytes());
    }
}

RunReport
Engine::base_report()
{
    RunReport report;
    report.network = net_->name();
    report.policy = config_.policy;
    report.interp = config_.interp;
    report.codec = config_.codec;
    report.kernel = config_.kernel;
    report.target = config_.target;
    report.motion = config_.motion;
    report.batch = config_.batch;
    report.memory_spec = config_.memory;
    if (resident_) {
        report.memory = resident_->stats();
    }
    report.simd_isa = simd_supported() ? simd_isa_name() : "scalar";
    report.num_threads = num_threads_;
    report.pipeline_depth = config_.pipeline_depth;
    report.batching = batching_stats();
    // Per-layer kernel selection: all pipelines share one network and
    // one config, so stream 0's compiled plans describe every stream.
    MutexLock lock(mutex_);
    if (!pipelines_.empty()) {
        report.plan = pipelines_[0]->plan_records();
    }
    return report;
}

RunReport
Engine::run(const std::vector<Sequence> &streams)
{
    ensure_open("Engine::run");
    std::set<std::string> names;
    for (const Sequence &seq : streams) {
        if (!names.insert(seq.name).second) {
            throw ConfigError("Engine::run: two sequences are named '" +
                              seq.name +
                              "'; each name is one session's stream");
        }
    }
    flush();
    std::vector<Session *> targets;
    targets.reserve(streams.size());
    for (const Sequence &seq : streams) {
        targets.push_back(&session(seq.name));
    }
    // Snapshot the (lifetime-cumulative) timing and batching sinks so
    // the report's stage rows and occupancy cover exactly this run,
    // like its frames and wall_ms.
    const StageTimings timings_before = merged_timings();
    const SuffixBatchStats batch_before = batching_stats();
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::vector<FrameTicket>> tickets(streams.size());
    std::exception_ptr rejected;
    try {
        for (size_t i = 0; i < streams.size(); ++i) {
            tickets[i] = targets[i]->submit_all(streams[i]);
        }
    } catch (...) {
        rejected = std::current_exception();
    }
    // Drain everything already submitted before surfacing a rejected
    // frame, so no queued work outlives this call's bookkeeping.
    flush();
    if (rejected) {
        std::rethrow_exception(rejected);
    }

    RunReport report = base_report();
    report.batching = batching_stats().delta_from(batch_before);
    report.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    report.digest = kDigestSeed;
    for (size_t i = 0; i < streams.size(); ++i) {
        Session &s = *targets[i];
        StreamReport row;
        row.name = s.name();
        row.stream_index = s.index();
        row.digest = kDigestSeed;
        for (const FrameTicket &ticket : tickets[i]) {
            const FrameOutcome outcome = *s.poll(ticket);
            row.digest = digest_combine(row.digest, outcome.output_digest);
            ++row.frames;
            row.key_frames += outcome.is_key ? 1 : 0;
            row.me_add_ops += outcome.me_add_ops;
        }
        // The rows above are this call's record; dropping the
        // per-frame outcomes keeps repeated runs from growing memory.
        s.forget_outcomes();
        report.frames += row.frames;
        report.key_frames += row.key_frames;
        report.me_add_ops += row.me_add_ops;
        report.digest = digest_combine(report.digest, row.digest);
        report.streams.push_back(std::move(row));
    }
    report.stages = stage_reports(
        merged_timings().delta_from(timings_before), report.wall_ms);
    return report;
}

RunReport
Engine::report()
{
    flush();
    // Build the per-session rows WITHOUT holding mutex_. Each row's
    // session->report() drains that session, and a commit still in
    // flight re-enters the engine through note_commit_resident →
    // evict_to_budget, which takes mutex_ — so a drain under mutex_
    // deadlocks (the commit blocked on mutex_ can never raise the
    // committed count the drain is waiting for). The flush() above
    // already quiesced every session, so the rows are stable; the
    // snapshot matches flush()'s own pattern.
    const std::vector<Session *> sessions = session_list();
    RunReport report = base_report();
    report.digest = kDigestSeed;
    bool any_time = false;
    std::chrono::steady_clock::time_point first{};
    std::chrono::steady_clock::time_point last{};
    for (Session *session : sessions) {
        StreamReport row = session->report();
        report.frames += row.frames;
        report.key_frames += row.key_frames;
        report.me_add_ops += row.me_add_ops;
        report.digest = digest_combine(report.digest, row.digest);
        report.streams.push_back(std::move(row));

        std::chrono::steady_clock::time_point f, l;
        if (session->time_bounds(&f, &l)) {
            if (!any_time || f < first) {
                first = f;
            }
            if (!any_time || l > last) {
                last = l;
            }
            any_time = true;
        }
    }
    if (any_time) {
        report.wall_ms =
            std::chrono::duration<double, std::milli>(last - first)
                .count();
    }
    report.stages = stage_reports(merged_timings(), report.wall_ms);
    return report;
}

void
Engine::flush()
{
    const std::vector<Session *> sessions = session_list();
    // Drain without holding the engine mutex: strand tasks only take
    // their session's mutex, so new sessions can still be created
    // while we wait. Surface the first stream failure after every
    // session has drained.
    std::exception_ptr error;
    for (Session *s : sessions) {
        try {
            s->drain();
        } catch (...) {
            if (!error) {
                error = std::current_exception();
            }
        }
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

void
Engine::reset()
{
    // Snapshot the session list, then drain and reset the per-session
    // records WITHOUT holding mutex_. Two deadlocks hide in the
    // holding-mutex_ shape this replaced: (a) a commit still in
    // flight re-enters the engine via note_commit_resident →
    // evict_to_budget, which takes mutex_, so a drain under mutex_
    // waits on a commit that waits on us; (b) reset_record() acquires
    // the session's submit gate, and an inline submit holds that gate
    // while its commit's eviction pass takes mutex_ — acquiring the
    // gate under mutex_ is that same pair in the opposite order. See
    // docs/static_analysis.md (lock ordering).
    const std::vector<Session *> sessions = session_list();
    // Drain but swallow stream failures: reset discards the very
    // state (records, sticky errors) a failure poisoned.
    for (Session *s : sessions) {
        try {
            s->drain();
        } catch (...) {
        }
    }
    {
        MutexLock lock(mutex_);
        for (const auto &p : pipelines_) {
            p->reset();
        }
        for (const auto &t : timings_) {
            t->reset();
        }
    }
    for (Session *s : sessions) {
        s->reset_record();
    }
    // Stream state is gone (FramePlan::reset released it), so the
    // resident accounting restarts from zero too.
    if (memory_budget_.enabled) {
        resident_ =
            std::make_unique<ResidentSetManager>(memory_budget_);
    }
}

} // namespace eva2
