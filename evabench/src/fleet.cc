/**
 * @file
 * fleet_net: an open-loop fleet of camera sessions served over
 * loopback TCP by an in-process net::Server. Cameras alternate
 * fixed-rate bursts with idle gaps on a seeded schedule fixed in
 * absolute time; one generator thread sends every frame when it is
 * due and times it from that moment, so a stalled generator shows up
 * in the latency of the frames it delayed.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

#include "cnn/model_zoo.h"
#include "net/client.h"
#include "net/server.h"
#include "util/fixed_point.h"
#include "util/rng.h"
#include "video/scenarios.h"
#include "workloads.h"

namespace evabench {

using eva2::Engine;
using eva2::EngineConfig;
using eva2::Network;
using eva2::Tensor;

namespace {

/** Snap a frame to the Q8.8 grid, so hibernation is lossless. */
Tensor
quantize_q88_frame(const Tensor &in)
{
    Tensor out = in;
    for (i64 i = 0; i < out.size(); ++i) {
        out[i] =
            static_cast<float>(eva2::Q88::from_double(out[i]).to_double());
    }
    return out;
}

constexpr i64 kFleetCams = 96;
constexpr i64 kClips = 32; ///< Distinct clips; cameras share them.
constexpr i64 kConnections = 2;
constexpr i64 kClipLen = 48;
constexpr i64 kSize = 80;
constexpr double kCamFps = 30.0; ///< Frame rate inside a burst.
constexpr double kFrameIntervalMs = 1000.0 / kCamFps;
constexpr double kBurstMs = 600.0; ///< 18 frames per burst.
/**
 * Phase jitter within a camera's slot. Slots are 40.6 ms apart, so
 * the frames of the cameras bursting together land spread over the
 * 33.3 ms frame interval; a jitter as wide as a slot would let them
 * clump, and the tail latency would then depend on the seed.
 */
constexpr double kPhaseJitterMs = 2.0;
/** Idle gap per ms of burst: each camera is busy 1/6.5 of the time. */
constexpr double kGapPerBurst = 5.5;
constexpr double kWarmupS = 0.5;
constexpr double kDrainTimeoutMs = 5000.0;
constexpr double kPollMs = 0.2; ///< Answer polling period of the generator.
constexpr i64 kBudgetMb = 2; ///< Below the fleet's resident footprint.
constexpr i64 kCheckCams = kClips;  ///< One camera per distinct clip.
constexpr i64 kCheckFrames = 48;     ///< Leading frames checked per camera.
/**
 * Latency percentiles are taken per window of due times this long
 * (about 1100 frames, so p99 has ~11 samples beyond it) and the
 * median over windows is reported: one machine-wide hiccup then moves
 * one window, not the run's tail.
 */
constexpr double kLatWindowS = 2.5;
constexpr i64 kReplayFrames = 40;
constexpr i64 kSetups = 5;

// ---------------------------------------------------------------------
// The open-loop generator.

/** One scheduled frame: camera `cam` sends its frame `index` at due_ms. */
struct Due
{
    double due_ms = 0.0;
    i64 cam = 0;
    i64 index = 0;
};

/** What happened to one scheduled frame (times in ms since origin). */
struct Timing
{
    double due_ms = 0.0;
    double sent_ms = -1.0;     ///< First send.
    double answered_ms = -1.0; ///< Final answer, after any retries.
    double submit_us = 0.0;
    i64 outstanding_at_send = 0;
    i64 retries = 0; ///< Times the server asked for the frame again.
};

/** A span of `ms` milliseconds as a clock duration. */
Clock::duration
to_duration(double ms)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
}

/** The answer to a camera's frame in flight. */
enum class Reply
{
    kNone,   ///< Not answered yet.
    kServed, ///< OUTCOME (failed ones included).
    kShed,   ///< SHED for good.
    kRetry,  ///< SHED for memory pressure: send the frame again.
};

/** Where the generator sends frames and learns of answers. */
class Transport
{
  public:
    virtual ~Transport() = default;
    /** Send camera `cam`'s frame `index`; false when it cannot go now. */
    virtual bool try_send(i64 cam, i64 index) = 0;
    /** The answer to camera `cam`'s frame in flight, if it came. */
    virtual Reply poll(i64 cam) = 0;
};

/** Generator knobs; the stall fields exist for the self-test. */
struct GenOptions
{
    double window_start_ms = 0.0; ///< Timed window, for CPU sampling.
    double window_end_ms = 0.0;
    i64 stall_at = -1;      ///< Schedule index before which to stall.
    double stall_ms = 0.0;
};

/** The generator's record of a run. */
struct GenResult
{
    std::vector<Timing> timings; ///< Aligned with the schedule.
    i64 retries = 0;
    double cpu_window_ms = 0.0;
};

/**
 * Send every scheduled frame when due (or as soon after as the
 * camera's previous frame is answered), poll for answers, and stop
 * once all are answered or the drain timeout passes. Each camera has
 * at most one frame in flight, so a frame the server sheds for memory
 * pressure is sent again before the camera's next one and the engine
 * sees every camera's frames in order. Frames are timed from their due
 * time, never from when they were actually sent.
 */
GenResult
run_generator(const std::vector<Due> &schedule, i64 cams, Transport &tx,
              Clock::time_point origin, const GenOptions &go,
              TraceRecorder &trace)
{
    constexpr size_t kIdle = static_cast<size_t>(-1);
    GenResult res;
    res.timings.resize(schedule.size());
    std::vector<u64> span_ids(schedule.size(), 0);
    for (size_t k = 0; k < schedule.size(); ++k) {
        res.timings[k].due_ms = schedule[k].due_ms;
    }
    const size_t ncams = static_cast<size_t>(cams);
    std::vector<std::deque<size_t>> backlog(ncams);
    std::vector<size_t> in_flight(ncams, kIdle); ///< Schedule index.
    const auto now_ms = [&]() { return ms_between(origin, Clock::now()); };
    const double last_due = schedule.empty() ? 0.0 : schedule.back().due_ms;
    double cpu0 = -1.0;
    double cpu1 = -1.0;
    size_t next = 0;
    i64 outstanding = 0;
    bool stalled = false;
    while (true) {
        if (!stalled && go.stall_at >= 0 &&
            next == static_cast<size_t>(go.stall_at)) {
            stalled = true;
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(go.stall_ms));
        }
        double now = now_ms();
        if (cpu0 < 0.0 && now >= go.window_start_ms) {
            cpu0 = process_cpu_ms();
        }
        if (cpu1 < 0.0 && now >= go.window_end_ms) {
            cpu1 = process_cpu_ms();
        }
        // Answers first, so a frame to retry goes out again this pass.
        for (size_t c = 0; c < ncams; ++c) {
            const size_t k = in_flight[c];
            if (k == kIdle) {
                continue;
            }
            const Reply r = tx.poll(static_cast<i64>(c));
            if (r == Reply::kNone) {
                continue;
            }
            in_flight[c] = kIdle;
            --outstanding;
            const Clock::time_point ans = origin + to_duration(now);
            if (r == Reply::kRetry) {
                backlog[c].push_front(k);
                ++res.timings[k].retries;
                ++res.retries;
                trace.add("retry", ans, ans, static_cast<i64>(c),
                          schedule[k].index, span_ids[k]);
                continue;
            }
            Timing &t = res.timings[k];
            t.answered_ms = now;
            trace.add("frame", origin + to_duration(t.due_ms), ans,
                      static_cast<i64>(c), schedule[k].index, 0, span_ids[k]);
            trace.add(r == Reply::kShed ? "shed" : "outcome", ans, ans,
                      static_cast<i64>(c), schedule[k].index, span_ids[k]);
        }
        while (next < schedule.size() && schedule[next].due_ms <= now) {
            backlog[static_cast<size_t>(schedule[next].cam)].push_back(next);
            span_ids[next] = trace.next_id();
            ++next;
        }
        for (size_t c = 0; c < ncams; ++c) {
            std::deque<size_t> &q = backlog[c];
            if (in_flight[c] != kIdle || q.empty()) {
                continue;
            }
            const size_t k = q.front();
            const Clock::time_point s0 = Clock::now();
            if (!tx.try_send(static_cast<i64>(c), schedule[k].index)) {
                continue;
            }
            const Clock::time_point s1 = Clock::now();
            Timing &t = res.timings[k];
            if (t.sent_ms < 0.0) {
                t.sent_ms = ms_between(origin, s0);
                t.submit_us = ms_between(s0, s1) * 1e3;
                t.outstanding_at_send = outstanding;
                trace.add("gen.due_lag", origin + to_duration(t.due_ms), s0,
                          static_cast<i64>(c), schedule[k].index, span_ids[k]);
            }
            trace.add("submit", s0, s1, static_cast<i64>(c), schedule[k].index,
                      span_ids[k]);
            in_flight[c] = k;
            ++outstanding;
            q.pop_front();
        }
        bool idle = next == schedule.size() && outstanding == 0;
        for (const std::deque<size_t> &q : backlog) {
            idle = idle && q.empty();
        }
        now = now_ms();
        if (idle || now > last_due + kDrainTimeoutMs) {
            break;
        }
        double wake = now + kPollMs;
        if (next < schedule.size()) {
            wake = std::min(wake, schedule[next].due_ms);
        }
        std::this_thread::sleep_until(origin + to_duration(wake));
    }
    const double end_cpu = process_cpu_ms();
    res.cpu_window_ms = (cpu1 < 0.0 ? end_cpu : cpu1) -
                        (cpu0 < 0.0 ? end_cpu : cpu0);
    return res;
}

/**
 * The fleet's schedule: every camera repeats a kBurstMs burst at
 * kCamFps followed by an idle gap kGapPerBurst times as long. The seed
 * shuffles the cameras over evenly spaced phase slots and jitters each
 * phase slightly, so the aggregate offered rate (96 x 30 / 6.5, about
 * 443 frames/s, half the measured capacity) is fixed in absolute
 * terms and the load stays level; the seed moves which cameras (and
 * so which clips) burst together.
 */
std::vector<Due>
make_schedule(u64 seed, i64 cams, double total_ms)
{
    const double cycle_ms = kBurstMs * (1.0 + kGapPerBurst);
    eva2::Rng rng(seed ^ 0xf1ee7u);
    std::vector<i64> slot(static_cast<size_t>(cams));
    for (i64 c = 0; c < cams; ++c) {
        slot[static_cast<size_t>(c)] = c;
    }
    for (i64 c = cams - 1; c > 0; --c) {
        std::swap(slot[static_cast<size_t>(c)],
                  slot[static_cast<size_t>(rng.uniform_int(0, c))]);
    }
    std::vector<Due> sched;
    for (i64 c = 0; c < cams; ++c) {
        const double phase =
            static_cast<double>(slot[static_cast<size_t>(c)]) * cycle_ms /
                static_cast<double>(cams) +
            rng.uniform(0.0, kPhaseJitterMs);
        i64 index = 0;
        for (double start = phase; start < total_ms; start += cycle_ms) {
            for (double t = start; t < start + kBurstMs && t < total_ms;
                 t += kFrameIntervalMs) {
                sched.push_back(Due{t, c, index++});
            }
        }
    }
    std::stable_sort(sched.begin(), sched.end(),
                     [](const Due &a, const Due &b) {
                         return a.due_ms < b.due_ms;
                     });
    return sched;
}

// ---------------------------------------------------------------------
// The served fleet.

EngineConfig
fleet_config()
{
    EngineConfig ec;
    ec.policy = "adaptive_error:th=0.04,max_gap=16";
    ec.codec = "rle_q88";
    ec.kernel = "gemm";
    ec.target = "last_spatial";
    ec.search_radius = 4;
    ec.num_threads = 4;
    ec.batch = "auto";
    ec.memory = "budget_mb:" + std::to_string(kBudgetMb) + ",hibernate=on";
    return ec;
}

/** Network, engine, server, clients and sessions. */
struct Rig
{
    std::unique_ptr<Network> net;
    std::unique_ptr<Engine> engine;
    std::unique_ptr<eva2::net::Server> server;
    std::vector<std::unique_ptr<eva2::net::Client>> clients;
    std::vector<eva2::net::ClientSession *> sessions;

    Rig() = default;
    Rig(Rig &&) = default;
    Rig &operator=(Rig &&) = default;
    ~Rig() { reset(); }

    /** Close clients, drain the server, close the engine — in order. */
    void
    reset()
    {
        for (auto &c : clients) {
            c->close();
        }
        sessions.clear();
        clients.clear();
        if (server) {
            server->stop();
        }
        server.reset();
        engine.reset();
        net.reset();
    }
};

Rig
build_rig()
{
    Rig rig;
    eva2::ScaledBuildOptions bo;
    bo.input = eva2::Shape{1, kSize, kSize};
    bo.fc_dim = 2048;
    rig.net = std::make_unique<Network>(
        eva2::build_scaled(eva2::alexnet_spec(), bo));
    rig.engine = std::make_unique<Engine>(*rig.net, fleet_config());
    eva2::net::ServerConfig sc;
    sc.max_sessions = kFleetCams;
    rig.server = std::make_unique<eva2::net::Server>(*rig.engine, sc);
    rig.server->start();
    for (i64 k = 0; k < kConnections; ++k) {
        rig.clients.push_back(std::make_unique<eva2::net::Client>(
            "127.0.0.1", rig.server->port()));
    }
    for (i64 c = 0; c < kFleetCams; ++c) {
        rig.sessions.push_back(
            &rig.clients[static_cast<size_t>(c % kConnections)]->open_session(
                "cam" + std::to_string(c)));
    }
    return rig;
}

/** A camera's frames, pointing into the shared clips. */
using Feed = std::vector<const Tensor *>;

/**
 * Sends through the rig's client sessions and keeps each camera's final
 * answers. Memory sheds are the server's "retry later" and are handed
 * back to the generator; any other shed stands.
 */
class NetTransport : public Transport
{
  public:
    NetTransport(Rig &rig, const std::vector<Feed> &clips)
        : rig_(rig), clips_(clips), seqs_(rig.sessions.size(), 0),
          served_(rig.sessions.size())
    {
    }

    bool
    try_send(i64 cam, i64 index) override
    {
        const size_t c = static_cast<size_t>(cam);
        const Feed &clip = clips_[c];
        return rig_.sessions[c]->try_submit(
            *clip[static_cast<size_t>(index) % clip.size()], &seqs_[c]);
    }

    Reply
    poll(i64 cam) override
    {
        const size_t c = static_cast<size_t>(cam);
        eva2::net::ClientSession &s = *rig_.sessions[c];
        if (s.outstanding() != 0) {
            return Reply::kNone;
        }
        const eva2::net::NetOutcome o = s.wait(seqs_[c]);
        if (o.shed && o.shed_reason == eva2::net::ShedReason::kMemory) {
            return Reply::kRetry;
        }
        Served sv;
        sv.answered = !o.shed && !o.failed;
        sv.failed = o.failed;
        sv.shed = o.shed;
        sv.top1 = o.top1;
        sv.digest = o.output_digest;
        served_[c].push_back(sv);
        return o.shed ? Reply::kShed : Reply::kServed;
    }

    /**
     * Each camera's answered frames, in schedule order; frames never
     * answered are missing from the end.
     */
    const std::vector<std::vector<Served>> &
    served() const
    {
        return served_;
    }

  private:
    Rig &rig_;
    const std::vector<Feed> &clips_;
    std::vector<u64> seqs_; ///< Seq of each camera's frame in flight.
    std::vector<std::vector<Served>> served_;
};

/** One open-loop pass over a fresh rig. */
struct Pass
{
    GenResult gen;
    std::vector<std::vector<Served>> served;
    eva2::RunReport report;
    double fps = 0.0;
};

Pass
fleet_pass(Rig &rig, const std::vector<Feed> &clips,
           const std::vector<Due> &schedule, double seconds,
           Clock::time_point origin, TraceRecorder &trace)
{
    Pass pass;
    NetTransport tx(rig, clips);
    GenOptions go;
    go.window_start_ms = kWarmupS * 1e3;
    go.window_end_ms = (kWarmupS + seconds) * 1e3;
    pass.gen = run_generator(schedule, kFleetCams, tx, origin, go, trace);
    pass.served = tx.served();
    pass.report = rig.server->report();
    // Throughput counts OUTCOMEs (not sheds) answered in the window.
    std::vector<i64> per_cam(kFleetCams, 0);
    i64 in_window = 0;
    for (size_t k = 0; k < schedule.size(); ++k) {
        const Timing &t = pass.gen.timings[k];
        const size_t cam = static_cast<size_t>(schedule[k].cam);
        const size_t idx = static_cast<size_t>(per_cam[cam]++);
        const bool ok = idx < pass.served[cam].size() &&
                        pass.served[cam][idx].answered;
        if (ok && t.answered_ms >= go.window_start_ms &&
            t.answered_ms < go.window_end_ms) {
            ++in_window;
        }
    }
    pass.fps = static_cast<double>(in_window) / seconds;
    return pass;
}

} // namespace

bool
open_loop_self_test(std::string *why)
{
    // One camera at 5 ms intervals, a 2 ms service time, and a 60 ms
    // generator stall before frame 20: the stalled frames must carry
    // the stall in their latency, measured from their due time. Frame
    // 45 is shed once for memory and must be answered on its retry,
    // charged both round trips.
    constexpr double kInterval = 5.0, kService = 2.0, kStall = 60.0;
    constexpr i64 kFrames = 60, kStallAt = 20, kRetryAt = 45;
    struct FakeTransport : Transport
    {
        Clock::time_point sent;
        i64 index = -1;
        bool retried = false;
        bool
        try_send(i64, i64 i) override
        {
            sent = Clock::now();
            index = i;
            return true;
        }
        Reply
        poll(i64) override
        {
            if (ms_between(sent, Clock::now()) < kService) {
                return Reply::kNone;
            }
            if (index == kRetryAt && !retried) {
                retried = true;
                return Reply::kRetry;
            }
            return Reply::kServed;
        }
    } tx;
    std::vector<Due> sched;
    for (i64 i = 0; i < kFrames; ++i) {
        sched.push_back(Due{10.0 + kInterval * static_cast<double>(i), 0, i});
    }
    GenOptions go;
    go.stall_at = kStallAt;
    go.stall_ms = kStall;
    TraceRecorder off(false, Clock::now());
    const Clock::time_point origin = Clock::now();
    GenResult r = run_generator(sched, 1, tx, origin, go, off);

    std::vector<double> lag;
    for (const Timing &t : r.timings) {
        lag.push_back(t.sent_ms - t.due_ms);
    }
    const Timing &first = r.timings[kStallAt];
    const double stall_start = r.timings[kStallAt - 1].sent_ms;
    const double stall_end = first.sent_ms;
    std::printf("stall of %.0f ms before frame %lld; latency from due "
                "time around it:\n",
                kStall, static_cast<long long>(kStallAt));
    for (i64 i = kStallAt - 2; i < kStallAt + 14; ++i) {
        const Timing &t = r.timings[static_cast<size_t>(i)];
        std::printf("  frame %2lld due %7.2f sent %7.2f latency %7.2f ms\n",
                    static_cast<long long>(i), t.due_ms, t.sent_ms,
                    t.answered_ms - t.due_ms);
    }
    std::printf("gen.lag_p99_ms = %.3f\n", percentile(lag, 0.99));
    // Frames due during the stall wait for its end, then service.
    for (size_t i = 0; i < r.timings.size(); ++i) {
        const Timing &t = r.timings[i];
        if (t.answered_ms < 0.0) {
            *why = "frame " + std::to_string(i) + " never answered";
            return false;
        }
        const double latency = t.answered_ms - t.due_ms;
        if (t.due_ms > stall_start && t.due_ms < stall_end &&
            latency < stall_end - t.due_ms + kService - 0.5) {
            *why = "frame " + std::to_string(i) +
                   " latency does not include the stall";
            return false;
        }
    }
    if (first.answered_ms - first.due_ms < kStall - kInterval) {
        *why = "the first stalled frame is not charged the whole stall";
        return false;
    }
    if (percentile(lag, 0.99) < kStall * 0.5) {
        *why = "gen.lag_p99_ms does not show the stall";
        return false;
    }
    const Timing &retried = r.timings[kRetryAt];
    std::printf("frame %lld retried %lld time(s), latency %.2f ms\n",
                static_cast<long long>(kRetryAt),
                static_cast<long long>(retried.retries),
                retried.answered_ms - retried.due_ms);
    if (retried.retries != 1 || r.retries != 1) {
        *why = "the memory shed was not retried exactly once";
        return false;
    }
    if (retried.answered_ms - retried.due_ms < 2.0 * kService - 0.5) {
        *why = "the retried frame is not charged both round trips";
        return false;
    }
    return true;
}

RunResult
run_fleet(const Options &opts)
{
    RunResult out;
    std::string why;
    if (!open_loop_self_test(&why)) {
        out.fail("open-loop generator self-test: " + why);
    }

    // Pre-generated, Q8.8-snapped clips (hibernation is then
    // lossless). Camera c plays clip c % kClips from a per-camera
    // offset, so cameras sharing a clip still see different frames.
    log_phase("generate frames");
    std::vector<std::vector<Tensor>> snapped(kClips);
    {
        const std::vector<eva2::Sequence> raw =
            eva2::multi_stream_set(opts.seed, kClips, kClipLen, kSize);
        for (i64 k = 0; k < kClips; ++k) {
            for (const eva2::LabeledFrame &f :
                 raw[static_cast<size_t>(k)].frames) {
                snapped[static_cast<size_t>(k)].push_back(
                    quantize_q88_frame(f.image));
            }
        }
    }
    std::vector<Feed> clips(kFleetCams);
    for (i64 c = 0; c < kFleetCams; ++c) {
        const std::vector<Tensor> &src =
            snapped[static_cast<size_t>(c % kClips)];
        const size_t offset =
            static_cast<size_t>((c / kClips) * 7) % src.size();
        for (size_t i = 0; i < src.size(); ++i) {
            clips[static_cast<size_t>(c)].push_back(
                &src[(offset + i) % src.size()]);
        }
    }
    const std::vector<Due> schedule =
        make_schedule(opts.seed, kFleetCams, (kWarmupS + opts.seconds) * 1e3);

    log_phase("set up");
    std::vector<double> setup_s;
    Rig rig;
    for (i64 k = 0; k < kSetups; ++k) {
        rig.reset();
        const Clock::time_point t0 = Clock::now();
        rig = build_rig();
        setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
    }

    log_phase("untraced pass");
    TraceRecorder untraced(false, Clock::now());
    Pass pass =
        fleet_pass(rig, clips, schedule, opts.seconds, Clock::now(), untraced);
    std::unique_ptr<TraceRecorder> trace;
    if (opts.trace) {
        log_phase("traced pass");
        const double untraced_fps = pass.fps;
        rig.reset();
        rig = build_rig();
        const Clock::time_point origin = Clock::now();
        trace = std::make_unique<TraceRecorder>(true, origin);
        pass = fleet_pass(rig, clips, schedule, opts.seconds, origin, *trace);
        out.set("trace.overhead_frac", 1.0 - pass.fps / untraced_fps,
                "fraction");
    }

    // Latency from due time, retries of memory sheds included. Frames
    // shed for good, failed and unanswered frames all count as late
    // and toward fail_frac; only failed or unanswered ones (and digest
    // mismatches) make the run incorrect. A shed is the server's typed
    // refusal, not a wrong answer.
    std::vector<double> lat, lag, submit_us, outstanding;
    std::vector<std::vector<double>> windows(static_cast<size_t>(
        std::max(1.0, std::floor(opts.seconds / kLatWindowS))));
    i64 late = 0, in_window = 0, shed = 0, lost = 0;
    std::vector<i64> per_cam(kFleetCams, 0);
    for (size_t k = 0; k < schedule.size(); ++k) {
        const Timing &t = pass.gen.timings[k];
        const size_t cam = static_cast<size_t>(schedule[k].cam);
        const size_t idx = static_cast<size_t>(per_cam[cam]++);
        const std::vector<Served> &sv = pass.served[cam];
        const bool ok =
            idx < sv.size() && sv[idx].answered && t.answered_ms >= 0.0;
        if (!ok && idx < sv.size() && sv[idx].shed) {
            ++shed;
        } else if (!ok) {
            ++lost;
        }
        if (t.sent_ms >= 0.0) {
            lag.push_back(t.sent_ms - t.due_ms);
            submit_us.push_back(t.submit_us);
            outstanding.push_back(static_cast<double>(t.outstanding_at_send));
        }
        if (t.due_ms < kWarmupS * 1e3) {
            continue;
        }
        ++in_window;
        if (ok) {
            lat.push_back(t.answered_ms - t.due_ms);
            const double into_s = t.due_ms * 1e-3 - kWarmupS;
            const size_t w = std::min(
                windows.size() - 1, static_cast<size_t>(into_s / kLatWindowS));
            windows[w].push_back(t.answered_ms - t.due_ms);
        }
        if (!ok || t.answered_ms - t.due_ms > kFrameIntervalMs) {
            ++late;
        }
    }

    log_phase("correctness check");
    // Correctness: the leading frames of one camera per clip against a
    // single-threaded, memory=off replay of the frames they were sent.
    std::vector<std::vector<const Tensor *>> check_frames(kCheckCams);
    std::vector<std::vector<Served>> check_served(kCheckCams);
    for (i64 c = 0; c < kCheckCams; ++c) {
        const size_t cs = static_cast<size_t>(c);
        // Shed frames never reached the engine, so the replay skips
        // them too.
        const size_t n = std::min<size_t>(kCheckFrames, pass.served[cs].size());
        for (size_t i = 0; i < n; ++i) {
            if (pass.served[cs][i].shed) {
                continue;
            }
            check_frames[cs].push_back(clips[cs][i % clips[cs].size()]);
            check_served[cs].push_back(pass.served[cs][i]);
        }
    }
    const i64 mismatched =
        check_streams(*rig.net, rig.engine->config(), check_frames,
                      check_served, /*oracle_only=*/false, out);

    const double wall_s = opts.seconds;
    const eva2::NetStats &ns = pass.report.net;
    if (opts.trace) {
        report_layers(pass.report, pass.report.wall_ms * 1e-3,
                      rig.engine->num_threads(), out);
        out.set("api.submit_us", mean(submit_us), "us");
        out.set("api.inflight", mean(outstanding), "count");
        out.set("net.bytes_per_frame",
                static_cast<double>(ns.bytes_in + ns.bytes_out) /
                    static_cast<double>(std::max<i64>(ns.frames_in, 1)),
                "bytes");
        out.set("net.shed_frac",
                static_cast<double>(ns.shed_total()) /
                    static_cast<double>(std::max<i64>(
                        ns.frames_in + ns.shed_total(), 1)),
                "fraction");
        out.set("net.window_stalls", static_cast<double>(ns.window_stalls),
                "count");
        out.set("gen.lag_p99_ms", percentile(lag, 0.99), "ms");

        std::vector<const Tensor *> replay;
        for (i64 i = 0; i < kReplayFrames; ++i) {
            replay.push_back(
                clips[0][static_cast<size_t>(i) % clips[0].size()]);
        }
        log_phase("ledger replay");
        ledger_replay(*rig.net, rig.engine->config(), replay, *trace, out);
        write_trace(*trace, opts.workload + "_" + std::to_string(opts.seed),
                    out);
    }

    out.attempted = static_cast<i64>(schedule.size());
    out.failed = shed + lost + mismatched;
    out.set("fps", pass.fps, "frames/s");
    out.set("offered_fps",
            static_cast<double>(in_window) / wall_s, "frames/s");
    std::vector<double> p50s, p99s;
    for (const std::vector<double> &w : windows) {
        p50s.push_back(percentile(w, 0.50));
        p99s.push_back(percentile(w, 0.99));
    }
    out.set("lat_p50_ms", median(p50s), "ms");
    out.set("lat_p99_ms", median(p99s), "ms");
    out.set("lat_p99_pooled_ms", percentile(lat, 0.99), "ms");
    out.set("lat_samples", static_cast<double>(lat.size()), "count");
    out.set("late_frac",
            static_cast<double>(late) /
                static_cast<double>(std::max<i64>(in_window, 1)),
            "fraction");
    out.set("fail_frac",
            static_cast<double>(out.failed) /
                static_cast<double>(std::max<i64>(out.attempted, 1)),
            "fraction");
    out.set("cpu_ms_per_frame",
            pass.fps > 0.0 ? pass.gen.cpu_window_ms / (pass.fps * wall_s) : 0.0,
            "ms");
    out.set("setup_s", median(setup_s), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("key_frac", pass.report.key_fraction(), "fraction");
    out.set("gen.memory_retries", static_cast<double>(pass.gen.retries),
            "count");
    std::printf("net: frames_in %lld, shed window %lld overload %lld "
                "draining %lld memory %lld\n",
                static_cast<long long>(ns.frames_in),
                static_cast<long long>(ns.shed_window),
                static_cast<long long>(ns.shed_overload),
                static_cast<long long>(ns.shed_draining),
                static_cast<long long>(ns.shed_memory));
    const eva2::MemoryStats &ms = pass.report.memory;
    std::printf("memory: budget %lld B, resident %lld B (peak %lld B), "
                "sessions %lld resident / %lld hibernated, "
                "hibernations %lld, hydrations %lld\n",
                static_cast<long long>(ms.budget_bytes),
                static_cast<long long>(ms.resident_bytes),
                static_cast<long long>(ms.peak_resident_bytes),
                static_cast<long long>(ms.sessions_resident),
                static_cast<long long>(ms.sessions_hibernated),
                static_cast<long long>(ms.hibernations),
                static_cast<long long>(ms.hydrations));
    if (lost > 0) {
        out.fail(std::to_string(lost) + " frames failed or unanswered");
    }
    return out;
}

} // namespace evabench
