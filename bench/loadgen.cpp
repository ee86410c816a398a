/**
 * @file
 * loadgen — a TCP load generator for the net::Server serving front
 * end: N connections x M sessions of synthetic camera traffic in
 * open- or closed-loop, with end-to-end latency percentiles and a
 * direct comparison against in-process Session::submit throughput
 * (the serving layer's overhead, the number the perf gate watches).
 *
 * Phases (all run under --smoke, individually sized for CI):
 *
 *   latency      closed-loop RTT percentiles (p50/p90/p99/p99.9) over
 *                a few window-1 sessions: submit, wait, measure.
 *   throughput   windowed closed-loop across connections x sessions:
 *                aggregate frames/sec through the socket, then the
 *                same workload through in-process Session::submit on
 *                a fresh engine; their ratio is `net_overhead`.
 *   burst        an open-loop sender deliberately overrunning its
 *                credit window: the server must shed (never queue)
 *                the excess, and every admitted frame completes.
 *   sessions     admission at scale: 1k+ concurrent sessions across
 *                8 connections, one frame each, bounded memory
 *                (VmHWM is reported), zero lost frames.
 *   drain        frames in flight when stop() lands: the graceful
 *                drain must deliver every admitted frame's OUTCOME
 *                (lost_frames is asserted zero by CI).
 *   soak         session density under a hard memory budget: N
 *                in-process sessions (default 100k; 512 under
 *                --smoke) fed in idle-then-return passes against a
 *                fixed `memory=budget_mb:B,hibernate=on` engine. The
 *                budget defaults to ~60% of the fleet's unconstrained
 *                footprint so the LRU hibernate tier must actually
 *                evict; hibernation is lossless, so every session's
 *                digest — evicted or not — must equal a memory=off control
 *                engine's digest for the same frames. Reports
 *                bytes/session, hydrate p50/p99, and the VmHWM delta.
 *
 * Usage:
 *   bench_loadgen [--smoke] [--connections N] [--sessions N]
 *                 [--frames N] [--threads N] [--size N]
 *                 [--mode closed|open] [--window N]
 *                 [--soak-sessions N] [--soak-budget-mb N]
 *                 [--json PATH]
 *
 * --json writes BENCH_loadgen.json: headline numbers plus the
 * server's full RunReport (net section included).
 * scripts/check_bench_baseline.py consumes the file via its loadgen
 * rows (loadgen/net_overhead/<shape> anchored at loadgen/anchor/
 * <shape>), so a >20% serving-overhead regression fails CI.
 */
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "cnn/model_zoo.h"
#include "net/client.h"
#include "net/server.h"
#include "util/json.h"
#include "video/scenarios.h"

using namespace eva2;
using Clock = std::chrono::steady_clock;

namespace {

struct Args
{
    bool smoke = false;
    i64 connections = 2;
    i64 sessions = 8; ///< Per connection.
    i64 frames = 8;   ///< Per session.
    i64 threads = 2;  ///< Engine worker threads.
    i64 size = 64;    ///< Square frame edge.
    i64 window = 8;
    i64 soak_sessions = 0;  ///< 0 = default (100k; 512 under --smoke).
    i64 soak_budget_mb = 0; ///< 0 = auto (~60% of unconstrained).
    std::string mode = "closed"; ///< closed | open.
    std::string json_path;
};

Args
parse_args(int argc, char **argv)
{
    Args args;
    auto next_int = [&](int &i) {
        if (i + 1 >= argc) {
            std::cerr << "missing value after " << argv[i] << "\n";
            std::exit(2);
        }
        return static_cast<i64>(std::atoll(argv[++i]));
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            args.smoke = true;
        } else if (a == "--connections") {
            args.connections = next_int(i);
        } else if (a == "--sessions") {
            args.sessions = next_int(i);
        } else if (a == "--frames") {
            args.frames = next_int(i);
        } else if (a == "--threads") {
            args.threads = next_int(i);
        } else if (a == "--size") {
            args.size = next_int(i);
        } else if (a == "--window") {
            args.window = next_int(i);
        } else if (a == "--soak-sessions") {
            args.soak_sessions = next_int(i);
        } else if (a == "--soak-budget-mb") {
            args.soak_budget_mb = next_int(i);
        } else if (a == "--mode") {
            if (i + 1 >= argc) {
                std::cerr << "missing value after --mode\n";
                std::exit(2);
            }
            args.mode = argv[++i];
        } else if (a == "--json") {
            if (i + 1 >= argc) {
                std::cerr << "missing value after --json\n";
                std::exit(2);
            }
            args.json_path = argv[++i];
        } else {
            std::cerr << "unknown argument: " << a << "\n";
            std::exit(2);
        }
    }
    if (args.mode != "closed" && args.mode != "open") {
        std::cerr << "--mode must be closed or open\n";
        std::exit(2);
    }
    return args;
}

double
ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const double idx = p * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/** Peak resident set (kB) from /proc; 0 where unavailable. */
i64
vm_hwm_kb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::atoll(line.c_str() + 6);
        }
    }
    return 0;
}

struct LatencyStats
{
    double p50 = 0, p90 = 0, p99 = 0, p999 = 0, mean = 0;

    static LatencyStats
    from(std::vector<double> samples)
    {
        LatencyStats s;
        if (samples.empty()) {
            return s;
        }
        double sum = 0;
        for (const double v : samples) {
            sum += v;
        }
        s.mean = sum / static_cast<double>(samples.size());
        std::sort(samples.begin(), samples.end());
        s.p50 = percentile(samples, 0.50);
        s.p90 = percentile(samples, 0.90);
        s.p99 = percentile(samples, 0.99);
        s.p999 = percentile(samples, 0.999);
        return s;
    }
};

/** Closed-loop window-1 RTT phase. */
LatencyStats
run_latency_phase(const Network &net, const Args &args,
                  const std::vector<Sequence> &streams)
{
    EngineConfig ec;
    ec.policy = "static:interval=2";
    ec.num_threads = args.threads;
    Engine engine(net, ec);
    net::Server server(engine);
    server.start();
    std::vector<double> latencies;
    {
        net::Client client("127.0.0.1", server.port());
        const i64 num = std::min<i64>(4, static_cast<i64>(streams.size()));
        for (i64 s = 0; s < num; ++s) {
            net::ClientSession &session =
                client.open_session("lat" + std::to_string(s));
            for (const LabeledFrame &frame : streams[s].frames) {
                const Clock::time_point t0 = Clock::now();
                const u64 seq = session.submit(frame.image);
                const net::NetOutcome out = session.wait(seq);
                if (!out.shed && !out.failed) {
                    latencies.push_back(ms_since(t0));
                }
            }
        }
        client.close();
    }
    server.stop();
    return LatencyStats::from(std::move(latencies));
}

struct ThroughputResult
{
    double fps_net = 0;
    double fps_inproc = 0;
    i64 frames_done = 0;
    i64 shed = 0;
    i64 credit_stalls = 0;
    NetStats stats;

    double
    overhead() const
    {
        return fps_net > 0 ? fps_inproc / fps_net : 0.0;
    }
};

/**
 * One client thread: `sessions` windowed closed-loop streams over one
 * connection. Keeps every session's window full (closed loop) or
 * fires regardless of credit (open loop), then drains all waits.
 */
void
client_thread(const char *host, int port, i64 thread_id, i64 sessions,
              i64 frames, const std::vector<Sequence> &streams,
              bool open_loop, std::atomic<i64> *done,
              std::atomic<i64> *shed, std::atomic<i64> *stalls)
{
    net::Client client(host, port);
    std::vector<net::ClientSession *> handles;
    for (i64 s = 0; s < sessions; ++s) {
        handles.push_back(&client.open_session(
            "t" + std::to_string(thread_id) + "-s" + std::to_string(s)));
    }
    // Interleave sessions round-robin, one frame at a time, so all
    // windows stay busy; wait for each session's oldest outstanding
    // seq once its window fills (or at the end).
    std::vector<std::vector<u64>> pending(handles.size());
    const Sequence &proto = streams[static_cast<size_t>(thread_id) %
                                    streams.size()];
    for (i64 f = 0; f < frames; ++f) {
        const Tensor &img =
            proto.frames[static_cast<size_t>(f) % proto.frames.size()]
                .image;
        for (size_t s = 0; s < handles.size(); ++s) {
            if (open_loop) {
                pending[s].push_back(handles[s]->submit_uncredited(img));
                continue;
            }
            if (static_cast<i64>(pending[s].size()) >=
                static_cast<i64>(handles[s]->window())) {
                const net::NetOutcome out =
                    handles[s]->wait(pending[s].front());
                pending[s].erase(pending[s].begin());
                if (out.shed) {
                    shed->fetch_add(1);
                } else {
                    done->fetch_add(1);
                }
            }
            pending[s].push_back(handles[s]->submit(img));
        }
    }
    for (size_t s = 0; s < handles.size(); ++s) {
        for (const u64 seq : pending[s]) {
            const net::NetOutcome out = handles[s]->wait(seq);
            if (out.shed) {
                shed->fetch_add(1);
            } else {
                done->fetch_add(1);
            }
        }
        stalls->fetch_add(handles[s]->credit_stalls());
    }
    client.close();
}

ThroughputResult
run_throughput_phase(const Network &net, const Args &args,
                     const std::vector<Sequence> &streams,
                     bool open_loop, bool measure_inproc = true)
{
    EngineConfig ec;
    ec.policy = "static:interval=2";
    ec.num_threads = args.threads;
    ThroughputResult result;
    {
        Engine engine(net, ec);
        net::ServerConfig sc;
        sc.window = args.window;
        net::Server server(engine, sc);
        server.start();
        std::atomic<i64> done{0}, shed{0}, stalls{0};
        const Clock::time_point t0 = Clock::now();
        std::vector<std::thread> threads;
        for (i64 t = 0; t < args.connections; ++t) {
            threads.emplace_back(client_thread, "127.0.0.1",
                                 server.port(), t, args.sessions,
                                 args.frames, std::cref(streams),
                                 open_loop, &done, &shed, &stalls);
        }
        for (std::thread &t : threads) {
            t.join();
        }
        const double wall_ms = ms_since(t0);
        server.stop();
        result.frames_done = done.load();
        result.shed = shed.load();
        result.credit_stalls = stalls.load();
        result.fps_net =
            wall_ms > 0 ? 1e3 * static_cast<double>(done.load()) / wall_ms
                        : 0.0;
        result.stats = server.stats();
    }
    if (!measure_inproc) {
        return result;
    }
    // The same admitted frame count through in-process submission on
    // a fresh engine: the serving layer's overhead denominator.
    {
        Engine engine(net, ec);
        const Clock::time_point t0 = Clock::now();
        i64 submitted = 0;
        std::vector<Session *> sessions;
        for (i64 t = 0; t < args.connections; ++t) {
            for (i64 s = 0; s < args.sessions; ++s) {
                sessions.push_back(&engine.session(
                    "t" + std::to_string(t) + "-s" + std::to_string(s)));
            }
        }
        const Sequence &proto = streams[0];
        for (i64 f = 0; f < args.frames && submitted < result.frames_done;
             ++f) {
            const Tensor &img =
                proto.frames[static_cast<size_t>(f) % proto.frames.size()]
                    .image;
            for (Session *s : sessions) {
                if (submitted >= result.frames_done) {
                    break;
                }
                (void)s->submit(img);
                ++submitted;
            }
        }
        engine.flush();
        const double wall_ms = ms_since(t0);
        result.fps_inproc =
            wall_ms > 0 ? 1e3 * static_cast<double>(submitted) / wall_ms
                        : 0.0;
    }
    return result;
}

struct SessionsResult
{
    i64 target = 0;
    i64 accepted = 0;
    i64 completed = 0;
    i64 vm_hwm_kb = 0;
};

/** 1k+ concurrent sessions, one frame each, across 8 connections. */
SessionsResult
run_sessions_phase(const Network &net,
                   const std::vector<Sequence> &streams, i64 target)
{
    SessionsResult result;
    result.target = target;
    EngineConfig ec;
    ec.policy = "static:interval=2";
    ec.num_threads = 1;      // One core on CI runners; keep it honest.
    ec.pipeline_depth = 1;   // One frame per session: no pipelining win.
    Engine engine(net, ec);
    net::ServerConfig sc;
    sc.max_sessions = target;
    sc.max_connections = 16;
    net::Server server(engine, sc);
    server.start();
    const i64 conns = 8;
    const i64 per_conn = (target + conns - 1) / conns;
    std::atomic<i64> accepted{0}, completed{0};
    std::vector<std::thread> threads;
    for (i64 c = 0; c < conns; ++c) {
        threads.emplace_back([&, c]() {
            net::Client client("127.0.0.1", server.port());
            std::vector<net::ClientSession *> handles;
            const i64 base = c * per_conn;
            for (i64 s = 0; s < per_conn && base + s < target; ++s) {
                handles.push_back(&client.open_session(
                    "mass" + std::to_string(base + s)));
                accepted.fetch_add(1);
            }
            const Tensor &img =
                streams[static_cast<size_t>(c) % streams.size()]
                    .frames[0]
                    .image;
            std::vector<u64> seqs;
            seqs.reserve(handles.size());
            for (net::ClientSession *h : handles) {
                seqs.push_back(h->submit(img));
            }
            for (size_t i = 0; i < handles.size(); ++i) {
                const net::NetOutcome out = handles[i]->wait(seqs[i]);
                if (!out.shed && !out.failed) {
                    completed.fetch_add(1);
                }
            }
            client.close();
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    server.stop();
    result.accepted = accepted.load();
    result.completed = completed.load();
    result.vm_hwm_kb = vm_hwm_kb();
    return result;
}

// --------------------------------------------------------------------
// Soak: session density under a hard memory budget.

struct SoakResult
{
    i64 sessions = 0;
    i64 frames = 0;
    i64 budget_mb = 0;
    i64 hibernations = 0;
    i64 hydrations = 0;
    i64 sessions_hibernated = 0; ///< Still hibernated at the end.
    double bytes_per_session = 0;
    double hydrate_p50_us = 0;
    double hydrate_p99_us = 0;
    i64 resident_bytes = 0;
    i64 peak_resident_bytes = 0;
    i64 vm_hwm_delta_kb = 0;
    i64 digest_mismatches = 0;
    i64 evicted_digest_mismatches = 0;
};

EngineConfig
soak_config(const std::string &memory)
{
    EngineConfig ec;
    ec.policy = "static:interval=2";
    ec.num_threads = 1;    // Deterministic inline commits + eviction.
    ec.pipeline_depth = 1; // One frame in flight per session.
    ec.memory = memory;
    return ec;
}

/** Unconstrained steady-state bytes of one session (for auto-budget). */
i64
probe_session_bytes(const Network &net,
                    const std::vector<Tensor> &frames)
{
    Engine engine(net, soak_config("budget_mb:1048576"));
    Session &s = engine.session("probe");
    for (const Tensor &f : frames) {
        (void)s.submit(f);
    }
    engine.flush();
    return engine.resident_manager()->stats().resident_bytes;
}

SoakResult
run_soak_phase(const Network &net, const Args &args, i64 target)
{
    constexpr i64 kProtoStreams = 4;
    constexpr i64 kFramesPerSession = 4;
    constexpr i64 kPasses = 2; // 2 frames per session per pass.
    SoakResult r;
    r.sessions = target;
    r.frames = target * kFramesPerSession;

    // Raw rendered frames: hibernation is lossless for any pixels.
    const std::vector<Sequence> raw = multi_stream_set(
        /*seed=*/97, kProtoStreams, kFramesPerSession, args.size);
    std::vector<std::vector<Tensor>> proto(kProtoStreams);
    for (i64 p = 0; p < kProtoStreams; ++p) {
        for (const LabeledFrame &f : raw[static_cast<size_t>(p)].frames) {
            proto[static_cast<size_t>(p)].push_back(f.image);
        }
    }

    // Control digests from an unconstrained engine: what every soak
    // session fed the same frames must reproduce bit-identically.
    std::vector<u64> control(kProtoStreams);
    {
        Engine engine(net, soak_config("off"));
        for (i64 p = 0; p < kProtoStreams; ++p) {
            Session &s = engine.session("ctl" + std::to_string(p));
            for (const Tensor &f : proto[static_cast<size_t>(p)]) {
                (void)s.submit(f);
            }
        }
        engine.flush();
        for (i64 p = 0; p < kProtoStreams; ++p) {
            control[static_cast<size_t>(p)] =
                engine.session("ctl" + std::to_string(p))
                    .report()
                    .digest;
        }
    }

    i64 budget_mb = args.soak_budget_mb;
    if (budget_mb <= 0) {
        // ~60% of the fleet's unconstrained footprint: enough room
        // that the compressed forms fit, tight enough that the LRU
        // tier must hibernate a large fraction of the fleet.
        const i64 per = probe_session_bytes(net, proto[0]);
        budget_mb = std::max<i64>(
            1, per * target * 3 / 5 / (1024 * 1024));
    }
    r.budget_mb = budget_mb;

    const i64 hwm_before = vm_hwm_kb();
    Engine engine(net,
                  soak_config("budget_mb:" + std::to_string(budget_mb) +
                              ",hibernate=on"));
    std::vector<Session *> sessions;
    sessions.reserve(static_cast<size_t>(target));
    for (i64 i = 0; i < target; ++i) {
        sessions.push_back(&engine.session("soak" + std::to_string(i)));
    }
    // Pass structure: every session submits two frames, then goes
    // idle while the rest of the fleet runs — exactly the
    // mostly-idle-fleet shape the hibernate tier exists for. Pass 2
    // returns to each (possibly hibernated) session, forcing
    // rehydration before its next frame.
    for (i64 pass = 0; pass < kPasses; ++pass) {
        for (i64 i = 0; i < target; ++i) {
            const std::vector<Tensor> &frames =
                proto[static_cast<size_t>(i % kProtoStreams)];
            for (i64 f = pass * 2; f < pass * 2 + 2; ++f) {
                (void)sessions[static_cast<size_t>(i)]->submit(
                    frames[static_cast<size_t>(f)]);
            }
        }
    }
    engine.flush();

    const ResidentSetManager *mgr = engine.resident_manager();
    const MemoryStats stats = mgr->stats();
    r.hibernations = stats.hibernations;
    r.hydrations = stats.hydrations;
    r.sessions_hibernated = stats.sessions_hibernated;
    r.bytes_per_session = stats.bytes_per_session();
    r.hydrate_p50_us = stats.hydrate_p50_us;
    r.hydrate_p99_us = stats.hydrate_p99_us;
    r.resident_bytes = stats.resident_bytes;
    r.peak_resident_bytes = stats.peak_resident_bytes;
    r.vm_hwm_delta_kb = vm_hwm_kb() - hwm_before;

    for (i64 i = 0; i < target; ++i) {
        Session *s = sessions[static_cast<size_t>(i)];
        const u64 digest = s->report().digest;
        if (digest != control[static_cast<size_t>(i % kProtoStreams)]) {
            ++r.digest_mismatches;
            if (mgr->hibernation_count(s->index()) > 0) {
                ++r.evicted_digest_mismatches;
            }
        }
    }
    return r;
}

struct DrainResult
{
    i64 admitted = 0;
    i64 delivered = 0;
    i64 lost = 0;
};

/** Stop the server with frames in flight; count every outcome. */
DrainResult
run_drain_phase(const Network &net, const Args &args,
                const std::vector<Sequence> &streams)
{
    EngineConfig ec;
    ec.policy = "static:interval=2";
    ec.num_threads = args.threads;
    Engine engine(net, ec);
    net::ServerConfig sc;
    sc.window = 32;
    net::Server server(engine, sc);
    server.start();
    DrainResult result;
    net::Client client("127.0.0.1", server.port());
    net::ClientSession &session = client.open_session("drain");
    std::vector<u64> seqs;
    const Sequence &proto = streams[0];
    for (i64 f = 0; f < 12; ++f) {
        seqs.push_back(session.submit(
            proto.frames[static_cast<size_t>(f) % proto.frames.size()]
                .image));
    }
    // Drain while those frames are in flight.
    std::thread stopper([&server]() { server.stop(); });
    for (const u64 seq : seqs) {
        const net::NetOutcome out = session.wait(seq);
        if (out.shed) {
            continue; // Refused before admission: not lost.
        }
        ++result.delivered;
    }
    stopper.join();
    result.admitted = static_cast<i64>(server.stats().frames_in);
    result.lost = result.admitted - result.delivered;
    client.close();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse_args(argc, argv);
    if (args.smoke) {
        // CI gate configuration: small enough for a one-core shared
        // runner, large enough to exercise every serving path.
        args.connections = 2;
        args.sessions = 8;
        args.frames = 6;
        args.threads = 2;
        args.size = 64;
        args.window = 8;
    }

    ScaledBuildOptions opts;
    opts.input = Shape{1, args.size, args.size};
    const Network net = build_scaled(alexnet_spec(), opts);
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/33, /*num_streams=*/4,
                         /*frames_per_stream=*/std::max<i64>(args.frames, 4),
                         args.size);

    std::cout << "loadgen: " << args.connections << " connection(s) x "
              << args.sessions << " session(s) x " << args.frames
              << " frame(s), " << args.size << "px, window "
              << args.window << ", mode " << args.mode << "\n";

    std::cout << "  [latency] closed-loop RTT...\n";
    const LatencyStats lat = run_latency_phase(net, args, streams);
    std::cout << "    p50 " << lat.p50 << " ms, p90 " << lat.p90
              << " ms, p99 " << lat.p99 << " ms, p99.9 " << lat.p999
              << " ms\n";

    std::cout << "  [throughput] " << args.mode << "-loop...\n";
    const ThroughputResult tp =
        run_throughput_phase(net, args, streams, args.mode == "open");
    std::cout << "    net " << tp.fps_net << " fps over TCP, in-process "
              << tp.fps_inproc << " fps, overhead x" << tp.overhead()
              << " (" << tp.frames_done << " frames, " << tp.shed
              << " shed, " << tp.credit_stalls << " credit stalls)\n";

    std::cout << "  [burst] open-loop overrun...\n";
    Args burst_args = args;
    burst_args.connections = 1;
    burst_args.sessions = 2;
    burst_args.frames = 24;
    const ThroughputResult burst = run_throughput_phase(
        net, burst_args, streams, /*open_loop=*/true,
        /*measure_inproc=*/false);
    std::cout << "    " << burst.frames_done << " completed, "
              << burst.shed << " shed (window bound enforced)\n";

    const i64 session_target = args.smoke ? 1024 : args.connections *
                                                       args.sessions;
    std::cout << "  [sessions] " << session_target
              << " concurrent sessions...\n";
    const SessionsResult mass =
        run_sessions_phase(net, streams, session_target);
    std::cout << "    accepted " << mass.accepted << "/" << mass.target
              << ", completed " << mass.completed << ", VmHWM "
              << mass.vm_hwm_kb << " kB\n";

    std::cout << "  [drain] stop() with frames in flight...\n";
    const DrainResult drain = run_drain_phase(net, args, streams);
    std::cout << "    admitted " << drain.admitted << ", delivered "
              << drain.delivered << ", lost " << drain.lost << "\n";

    const i64 soak_target =
        args.soak_sessions > 0 ? args.soak_sessions
                               : (args.smoke ? 512 : 100000);
    std::cout << "  [soak] " << soak_target
              << " sessions under a fixed memory budget...\n";
    const SoakResult soak = run_soak_phase(net, args, soak_target);
    std::cout << "    budget " << soak.budget_mb << " MB, "
              << soak.bytes_per_session << " bytes/session, "
              << soak.hibernations << " hibernation(s), "
              << soak.hydrations << " hydration(s), hydrate p50 "
              << soak.hydrate_p50_us << " us / p99 "
              << soak.hydrate_p99_us << " us, VmHWM +"
              << soak.vm_hwm_delta_kb << " kB, "
              << soak.digest_mismatches << " digest mismatch(es)\n";

    bool ok = true;
    if (soak.digest_mismatches != 0) {
        std::cerr << "FAIL: soak digests diverged for "
                  << soak.digest_mismatches << " session(s) ("
                  << soak.evicted_digest_mismatches
                  << " of them hibernated at least once)\n";
        ok = false;
    }
    if (soak.hibernations <= 0 || soak.hydrations <= 0) {
        std::cerr << "FAIL: soak never exercised the hibernate tier "
                  << "(hibernations " << soak.hibernations
                  << ", hydrations " << soak.hydrations << ")\n";
        ok = false;
    }
    if (soak.resident_bytes > soak.budget_mb * 1024 * 1024) {
        std::cerr << "FAIL: soak ended over budget ("
                  << soak.resident_bytes << " bytes tracked vs "
                  << soak.budget_mb << " MB cap)\n";
        ok = false;
    }
    // The VmHWM bound: the budget caps tracked stream state; session
    // fixtures (Session/scheduler/pipeline objects) are per-session
    // overhead outside the tier, allowed 16 kB each plus global slack
    // for the allocator and earlier phases.
    const i64 vm_cap_kb =
        soak.budget_mb * 1024 + soak.sessions * 16 + 262144;
    if (soak.vm_hwm_delta_kb > vm_cap_kb) {
        std::cerr << "FAIL: soak VmHWM grew " << soak.vm_hwm_delta_kb
                  << " kB, cap " << vm_cap_kb << " kB\n";
        ok = false;
    }
    if (drain.lost != 0) {
        std::cerr << "FAIL: graceful drain lost " << drain.lost
                  << " admitted frame(s)\n";
        ok = false;
    }
    if (mass.accepted != mass.target || mass.completed != mass.target) {
        std::cerr << "FAIL: mass-session phase accepted " << mass.accepted
                  << " and completed " << mass.completed << " of "
                  << mass.target << "\n";
        ok = false;
    }
    if (tp.frames_done <= 0 || lat.p99 <= 0.0) {
        std::cerr << "FAIL: empty measurement\n";
        ok = false;
    }

    if (!args.json_path.empty()) {
        const std::string shape =
            "c" + std::to_string(args.connections) + "s" +
            std::to_string(args.sessions) + "f" +
            std::to_string(args.frames) + "_" +
            std::to_string(args.size) + "px";
        JsonWriter w(2);
        w.begin_object();
        w.member("bench", "loadgen");
        w.member("smoke", args.smoke);
        w.member("mode", args.mode);
        w.member("shape", shape);
        w.member("connections", args.connections);
        w.member("sessions_per_connection", args.sessions);
        w.member("frames_per_session", args.frames);
        w.member("input_size", args.size);
        w.member("threads", args.threads);
        w.member("window", args.window);
        w.member("p50_ms", lat.p50);
        w.member("p90_ms", lat.p90);
        w.member("p99_ms", lat.p99);
        w.member("p999_ms", lat.p999);
        w.member("mean_ms", lat.mean);
        w.member("fps_net", tp.fps_net);
        w.member("fps_inproc", tp.fps_inproc);
        w.member("net_overhead", tp.overhead());
        w.member("frames_done", tp.frames_done);
        w.member("credit_stalls", tp.credit_stalls);
        w.member("burst_completed", burst.frames_done);
        w.member("burst_shed", burst.shed);
        w.member("mass_sessions_target", mass.target);
        w.member("mass_sessions_accepted", mass.accepted);
        w.member("mass_sessions_completed", mass.completed);
        w.member("vm_hwm_kb", mass.vm_hwm_kb);
        w.member("drain_admitted", drain.admitted);
        w.member("drain_delivered", drain.delivered);
        w.member("lost_frames", drain.lost);
        // Soak metrics; bytes_per_session and hydrate_p99_us are the
        // rows scripts/check_bench_baseline.py gates.
        w.member("soak_sessions", soak.sessions);
        w.member("soak_frames", soak.frames);
        w.member("soak_budget_mb", soak.budget_mb);
        w.member("bytes_per_session", soak.bytes_per_session);
        w.member("hydrate_p50_us", soak.hydrate_p50_us);
        w.member("hydrate_p99_us", soak.hydrate_p99_us);
        w.member("soak_hibernations", soak.hibernations);
        w.member("soak_hydrations", soak.hydrations);
        w.member("soak_sessions_hibernated", soak.sessions_hibernated);
        w.member("soak_resident_bytes", soak.resident_bytes);
        w.member("soak_peak_resident_bytes", soak.peak_resident_bytes);
        w.member("soak_vm_hwm_delta_kb", soak.vm_hwm_delta_kb);
        w.member("soak_digest_mismatches", soak.digest_mismatches);
        w.key("net_stats").begin_object();
        w.member("frames_in", tp.stats.frames_in);
        w.member("outcomes_out", tp.stats.outcomes_out);
        w.member("shed_window", tp.stats.shed_window);
        w.member("shed_overload", tp.stats.shed_overload);
        w.member("shed_draining", tp.stats.shed_draining);
        w.member("bytes_in", tp.stats.bytes_in);
        w.member("bytes_out", tp.stats.bytes_out);
        w.member("window_stalls", tp.stats.window_stalls);
        w.end_object();
        w.end_object();
        std::ofstream out(args.json_path);
        if (!out) {
            std::cerr << "cannot write " << args.json_path << "\n";
            return 1;
        }
        out << w.str() << "\n";
        std::cout << "  json report written to " << args.json_path
                  << "\n";
    }

    return ok ? 0 : 1;
}
