/**
 * @file
 * amc_cams / plain_cams: four camera sessions fed in a closed loop
 * through Session::submit, up to pipeline_depth frames in flight per
 * camera, on Faster16 scaled to 128x128. The two workloads share
 * cameras, frames and engine; only the policy and codec differ.
 */
#include <cstdio>
#include <memory>

#include "cnn/model_zoo.h"
#include "video/scenarios.h"
#include "workloads.h"

namespace evabench {

using eva2::Engine;
using eva2::EngineConfig;
using eva2::Network;
using eva2::Tensor;

namespace {

constexpr i64 kCams = 4;
constexpr i64 kSegments = 8;   ///< Scene clips per camera feed.
constexpr i64 kSegmentLen = 24; ///< Frames per clip.
constexpr i64 kSize = 128;
constexpr i64 kDepth = 3;
constexpr i64 kCheckCams = 2;     ///< Cameras the correctness check replays.
constexpr i64 kCheckFrames = 96;  ///< Leading frames checked per camera.
constexpr i64 kReplayFrames = 40; ///< Ledger replay frames (camera 0).
constexpr i64 kSetups = 5;
constexpr double kWarmupS = 0.5;

/**
 * Camera c's feed: clips c, c + kCams, c + 2 kCams, ... of one
 * multi_stream_set, so every camera cuts between several scene kinds
 * and the mix (hence the key rate) depends little on the seed. Feeds
 * are periodic: frame i of camera c is feeds[c][i % period].
 */
std::vector<std::vector<Tensor>>
make_feeds(u64 seed)
{
    const std::vector<eva2::Sequence> clips = eva2::multi_stream_set(
        seed, kCams * kSegments, kSegmentLen, kSize);
    std::vector<std::vector<Tensor>> feeds(kCams);
    for (i64 c = 0; c < kCams; ++c) {
        for (i64 s = 0; s < kSegments; ++s) {
            for (const eva2::LabeledFrame &f :
                 clips[static_cast<size_t>(c + kCams * s)].frames) {
                feeds[static_cast<size_t>(c)].push_back(f.image);
            }
        }
    }
    return feeds;
}

EngineConfig
cams_config(bool amc)
{
    EngineConfig ec;
    ec.policy = amc ? "adaptive_error:th=0.04,max_gap=16" : "every_frame";
    ec.codec = amc ? "rle_q88" : "dense";
    ec.kernel = "gemm";
    ec.target = "last_spatial";
    ec.search_radius = 28;
    ec.num_threads = kCams;
    ec.pipeline_depth = kDepth;
    ec.batch = "off";
    return ec;
}

/** Network + engine + sessions: everything before the first submit. */
struct Rig
{
    std::unique_ptr<Network> net;
    std::unique_ptr<Engine> engine;
    std::vector<eva2::Session *> sessions;

    Rig() = default;
    Rig(Rig &&) = default;
    Rig &operator=(Rig &&) = default;
    ~Rig() { reset(); }

    /** Tear down in dependency order: the engine borrows the network. */
    void
    reset()
    {
        sessions.clear();
        engine.reset();
        net.reset();
    }
};

Rig
build_rig(bool amc)
{
    Rig rig;
    rig.net = std::make_unique<Network>(
        eva2::build_scaled(eva2::faster16_spec(), eva2::ScaledBuildOptions{}));
    rig.engine = std::make_unique<Engine>(*rig.net, cams_config(amc));
    for (i64 c = 0; c < kCams; ++c) {
        rig.sessions.push_back(&rig.engine->session("cam" + std::to_string(c)));
    }
    return rig;
}

/** Per-frame record of one camera in one pass. */
struct FrameRec
{
    Clock::time_point submit;
    Clock::time_point commit;
    Served served;
};

/** The measured outcome of one closed-loop pass. */
struct Pass
{
    std::vector<std::vector<FrameRec>> recs;
    double fps = 0.0;
    double cpu_ms_per_frame = 0.0;
    std::vector<double> lat_ms;
    double submit_us = 0.0;
    double inflight = 0.0;
    i64 attempted = 0;
    i64 failed = 0;
    eva2::RunReport report;
};

/**
 * One closed-loop pass: keep every camera at kDepth frames in flight
 * for warm-up + `seconds`, timing the window after warm-up. Spans go
 * to `trace` (a disabled recorder costs one branch per boundary).
 */
Pass
closed_loop(Rig &rig, const std::vector<std::vector<Tensor>> &feeds,
            double seconds, TraceRecorder &trace)
{
    Pass pass;
    pass.recs.resize(kCams);
    eva2::Mutex mu;
    eva2::CondVar cv;
    std::vector<i64> inflight(kCams, 0);
    std::vector<i64> committed(kCams, 0);
    std::vector<std::vector<u64>> span_ids(kCams);

    // The sinks below capture this frame's locals: whatever happens,
    // drain the engine and detach them before the locals die.
    struct SinkGuard
    {
        Rig &rig;
        ~SinkGuard()
        {
            try {
                rig.engine->flush();
            } catch (const std::exception &e) {
                std::fprintf(stderr, "evabench: flush failed: %s\n", e.what());
            }
            for (eva2::Session *s : rig.sessions) {
                s->set_outcome_sink(nullptr);
            }
        }
    };
    const SinkGuard guard{rig};
    for (i64 c = 0; c < kCams; ++c) {
        rig.sessions[static_cast<size_t>(c)]->set_outcome_sink(
            [&, c](const eva2::FrameOutcome &o) {
                const Clock::time_point now = Clock::now();
                eva2::MutexLock lock(mu);
                const size_t cs = static_cast<size_t>(c);
                const size_t i = static_cast<size_t>(committed[cs]++);
                FrameRec &r = pass.recs[cs][i];
                r.commit = now;
                r.served.answered = !o.failed;
                r.served.failed = o.failed;
                r.served.top1 = o.top1;
                r.served.digest = o.output_digest;
                --inflight[cs];
                if (trace.enabled()) {
                    trace.add("frame", r.submit, now, c,
                              static_cast<i64>(i), 0, span_ids[cs][i]);
                    trace.add("commit", now, Clock::now(), c,
                              static_cast<i64>(i), span_ids[cs][i]);
                }
                cv.notify_all();
            });
    }

    const Clock::time_point start = Clock::now();
    const Clock::time_point t0 =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kWarmupS));
    const Clock::time_point t_end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    double cpu0 = -1.0;
    double cpu1 = 0.0;
    double submit_us_sum = 0.0;
    double inflight_sum = 0.0;
    i64 submits_in_window = 0;
    {
        eva2::MutexLock lock(mu);
        while (true) {
            Clock::time_point now = Clock::now();
            if (cpu0 < 0.0 && now >= t0) {
                cpu0 = process_cpu_ms();
            }
            if (now >= t_end) {
                cpu1 = process_cpu_ms();
                break;
            }
            bool submitted = false;
            for (i64 c = 0; c < kCams; ++c) {
                const size_t cs = static_cast<size_t>(c);
                while (inflight[cs] < kDepth) {
                    const size_t i = pass.recs[cs].size();
                    const std::vector<Tensor> &feed = feeds[cs];
                    const Tensor &frame = feed[i % feed.size()];
                    pass.recs[cs].push_back(FrameRec{});
                    span_ids[cs].push_back(trace.next_id());
                    const u64 root = span_ids[cs].back();
                    ++inflight[cs];
                    i64 total_inflight = 0;
                    for (const i64 n : inflight) {
                        total_inflight += n;
                    }
                    const Clock::time_point s0 = Clock::now();
                    pass.recs[cs][i].submit = s0;
                    lock.unlock();
                    rig.sessions[cs]->submit(frame);
                    const Clock::time_point s1 = Clock::now();
                    trace.add("submit", s0, s1, c, static_cast<i64>(i),
                              root);
                    lock.lock();
                    if (s0 >= t0 && s0 < t_end) {
                        submit_us_sum += ms_between(s0, s1) * 1e3;
                        inflight_sum += static_cast<double>(total_inflight);
                        ++submits_in_window;
                    }
                    submitted = true;
                }
            }
            if (!submitted) {
                cv.wait_until(lock, cpu0 < 0.0 ? t0 : t_end);
            }
        }
    }
    rig.engine->flush();
    pass.report = rig.engine->report();

    i64 in_window = 0;
    for (const std::vector<FrameRec> &cam : pass.recs) {
        for (const FrameRec &r : cam) {
            ++pass.attempted;
            if (!r.served.answered) {
                ++pass.failed;
                continue;
            }
            if (r.commit >= t0 && r.commit < t_end) {
                ++in_window;
            }
            if (r.submit >= t0 && r.submit < t_end) {
                pass.lat_ms.push_back(ms_between(r.submit, r.commit));
            }
        }
    }
    pass.fps = static_cast<double>(in_window) / seconds;
    pass.cpu_ms_per_frame =
        in_window > 0 ? (cpu1 - cpu0) / static_cast<double>(in_window) : 0.0;
    const double submits =
        static_cast<double>(std::max<i64>(submits_in_window, 1));
    pass.submit_us = submit_us_sum / submits;
    pass.inflight = inflight_sum / submits;
    return pass;
}

const eva2::StageReport *
find_stage(const eva2::RunReport &r, const std::string &name)
{
    for (const eva2::StageReport &s : r.stages) {
        if (s.stage == name) {
            return &s;
        }
    }
    return nullptr;
}

} // namespace

void
report_layers(const eva2::RunReport &r, double wall_s, i64 threads,
              RunResult &out)
{
    const auto mean_ms = [&](const char *stage) {
        const eva2::StageReport *s = find_stage(r, stage);
        return s != nullptr ? s->mean_ms() : 0.0;
    };
    const auto calls = [&](const char *stage) {
        const eva2::StageReport *s = find_stage(r, stage);
        return s != nullptr ? static_cast<double>(s->calls) : 0.0;
    };
    const double frames = static_cast<double>(std::max<i64>(r.frames, 1));
    const double me_calls = calls("motion_estimation");
    out.set("flow.rfbme_ms", mean_ms("motion_estimation"), "ms");
    out.set("flow.motion_field_ms", mean_ms("motion_field"), "ms");
    out.set("flow.rfbme_calls", me_calls / frames, "1/frame");
    out.set("flow.rfbme_useful_frac",
            me_calls > 0.0
                ? static_cast<double>(r.frames - r.key_frames) / me_calls
                : 0.0,
            "fraction");
    out.set("cnn.prefix_ms", mean_ms("prefix"), "ms");
    out.set("cnn.prefix_calls", calls("prefix") / frames, "1/frame");
    out.set("cnn.suffix_ms", mean_ms("suffix"), "ms");
    out.set("cnn.suffix_calls", calls("suffix") / frames, "1/frame");
    out.set("core.key_frac", r.key_fraction(), "fraction");
    out.set("core.warp_ms", mean_ms("warp"), "ms");
    out.set("core.encode_ms", mean_ms("encode"), "ms");
    out.set("core.policy_ms", mean_ms("policy"), "ms");
    out.set("core.ingest_ms", mean_ms("ingest"), "ms");
    out.set("core.commit_ms", mean_ms("commit"), "ms");
    double busy_ms = 0.0;
    double overlap = 0.0;
    for (const eva2::StageReport &s : r.stages) {
        busy_ms += s.total_ms;
        overlap += s.occupancy;
    }
    out.set("runtime.busy_frac",
            busy_ms / (wall_s * 1e3 * static_cast<double>(threads)),
            "fraction");
    out.set("runtime.overlap", overlap, "count");
    out.set("runtime.batch_mean", r.batching.mean_occupancy(), "count");
    out.set("runtime.hibernations", static_cast<double>(r.memory.hibernations),
            "count");
    out.set("runtime.hydrations", static_cast<double>(r.memory.hydrations),
            "count");
    out.set("runtime.hydrate_p99_us", r.memory.hydrate_p99_us, "us");
    out.set("runtime.resident_kb_per_session",
            r.memory.bytes_per_session() / 1024.0, "KB");
}

RunResult
run_cams(const Options &opts, bool amc)
{
    RunResult out;
    log_phase("generate frames");
    const std::vector<std::vector<Tensor>> feeds = make_feeds(opts.seed);

    log_phase("set up");
    // Set-up, several times; the last rig serves the run.
    std::vector<double> setup_s;
    Rig rig;
    for (i64 k = 0; k < kSetups; ++k) {
        rig.reset();
        const Clock::time_point t0 = Clock::now();
        rig = build_rig(amc);
        setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
    }

    log_phase("untraced pass");
    TraceRecorder untraced(false, Clock::now());
    Pass pass = closed_loop(rig, feeds, opts.seconds, untraced);
    if (opts.trace) {
        // The same traffic again with spans on; its fps against the
        // untraced pass's is the tracing overhead.
        const double untraced_fps = pass.fps;
        log_phase("traced pass");
        rig.engine->reset();
        TraceRecorder trace(true, Clock::now());
        pass = closed_loop(rig, feeds, opts.seconds, trace);
        out.set("trace.overhead_frac", 1.0 - pass.fps / untraced_fps,
                "fraction");
        report_layers(pass.report, pass.report.wall_ms * 1e-3,
                      rig.engine->num_threads(), out);
        out.set("api.submit_us", pass.submit_us, "us");
        out.set("api.inflight", pass.inflight, "count");
        out.set("net.bytes_per_frame", 0.0, "bytes");
        out.set("net.shed_frac", 0.0, "fraction");
        out.set("net.window_stalls", 0.0, "count");
        out.set("gen.lag_p99_ms", 0.0, "ms");
        out.set("late_frac", 0.0, "fraction");

        std::vector<const Tensor *> replay;
        for (i64 i = 0; i < kReplayFrames; ++i) {
            replay.push_back(&feeds[0][static_cast<size_t>(i)]);
        }
        log_phase("ledger replay");
        ledger_replay(*rig.net, rig.engine->config(), replay, trace, out);
        write_trace(trace, opts.workload + "_" + std::to_string(opts.seed),
                    out);
        std::printf("break-even: flow.rfbme_ms / cnn.prefix_ms = %.4f / "
                    "%.4f = %.4f\n",
                    out.get("flow.rfbme_ms"), out.get("cnn.prefix_ms"),
                    out.get("cnn.prefix_ms") > 0.0
                        ? out.get("flow.rfbme_ms") / out.get("cnn.prefix_ms")
                        : 0.0);
    }

    log_phase("correctness check");
    // Correctness: the leading frames of the checked cameras against
    // a one-thread engine replay (AMC) or the plain-CNN oracle.
    std::vector<std::vector<const Tensor *>> check_frames(kCheckCams);
    std::vector<std::vector<Served>> check_served(kCheckCams);
    for (i64 c = 0; c < kCheckCams; ++c) {
        const size_t cs = static_cast<size_t>(c);
        const i64 n = std::min<i64>(
            kCheckFrames, static_cast<i64>(pass.recs[cs].size()));
        for (i64 i = 0; i < n; ++i) {
            check_frames[cs].push_back(
                &feeds[cs][static_cast<size_t>(i) % feeds[cs].size()]);
            check_served[cs].push_back(
                pass.recs[cs][static_cast<size_t>(i)].served);
        }
    }
    const i64 mismatched =
        check_streams(*rig.net, rig.engine->config(), check_frames,
                      check_served, /*oracle_only=*/!amc, out);

    out.attempted = pass.attempted;
    out.failed = pass.failed + mismatched;
    out.set("fps", pass.fps, "frames/s");
    out.set("lat_p50_ms", percentile(pass.lat_ms, 0.50), "ms");
    out.set("lat_p99_ms", percentile(pass.lat_ms, 0.99), "ms");
    out.set("lat_samples", static_cast<double>(pass.lat_ms.size()), "count");
    out.set("fail_frac",
            static_cast<double>(out.failed) /
                static_cast<double>(std::max<i64>(out.attempted, 1)),
            "fraction");
    out.set("cpu_ms_per_frame", pass.cpu_ms_per_frame, "ms");
    out.set("setup_s", median(setup_s), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("key_frac", pass.report.key_fraction(), "fraction");
    if (pass.failed > 0) {
        out.fail(std::to_string(pass.failed) + " frames failed");
    }
    return out;
}

} // namespace evabench
