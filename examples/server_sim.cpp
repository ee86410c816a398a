/**
 * @file
 * A real inference server: eva2::Engine behind the net::Server TCP
 * front end, fed by an in-process net::Client speaking the wire
 * protocol over loopback — the full serving path (framing, admission,
 * per-session credit windows, OUTCOME streaming, graceful drain) in
 * one small demo.
 *
 * Eight synthetic cameras (mixed scenario kinds — pans, moving
 * objects, occlusions, chaos) each open a session over one shared TCP
 * connection and deliver frames in interleaved rounds, the way a
 * serving process receives them. Each OUTCOME message carries the
 * frame's key-flag, top-1, output digest, and the session's refreshed
 * credit. At the end the server drains gracefully (every in-flight
 * frame answered, BYE to every connection), prints its RunReport —
 * now including the `net` section — and the same traffic is replayed
 * on a serial reference Engine (one thread, no pipelining, no
 * batching) to verify the whole TCP path was bit-identical.
 *
 * See docs/serving.md for the wire format and semantics.
 */
#include <csignal>
#include <iostream>

#include "api/engine.h"
#include "cnn/model_zoo.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/thread_pool.h"
#include "video/scenarios.h"

using namespace eva2;

namespace {

constexpr i64 kCameras = 8;
constexpr i64 kRounds = 3;
constexpr i64 kFramesPerRound = 4;

const char *kPolicySpec = "adaptive_error:th=0.02,max_gap=8";

} // namespace

int
main()
{
    const i64 threads = ThreadPool::default_num_threads();
    std::cout << "serving demo: " << kCameras << " cameras over TCP, "
              << kRounds << " rounds of " << kFramesPerRound
              << " frames, " << threads << " worker thread(s)\n\n";

    Network net = build_scaled(alexnet_spec());
    const std::vector<Sequence> feeds = multi_stream_set(
        /*seed=*/77, kCameras, kRounds * kFramesPerRound);

    EngineConfig config;
    config.policy = kPolicySpec;
    config.num_threads = threads;
    // Cross-stream suffix batching still applies behind the socket
    // layer: the sessions' CNN suffixes merge into shared batched
    // plan runs (docs/suffix_batching.md), bit-identical to off.
    config.batch = "auto:max=8,delay_us=500";
    Engine engine(net, config);

    net::Server server(engine);
    server.install_signal_handlers({SIGINT, SIGTERM});
    server.start();
    std::cout << "server listening on 127.0.0.1:" << server.port()
              << "\n";

    u64 total = 0, keys = 0;
    {
        net::Client client("127.0.0.1", server.port());
        std::vector<net::ClientSession *> cams;
        for (const Sequence &feed : feeds) {
            cams.push_back(&client.open_session(feed.name));
        }
        std::cout << "opened " << cams.size()
                  << " sessions (credit window " << cams[0]->window()
                  << " frames each)\n\n";

        for (i64 round = 0; round < kRounds; ++round) {
            // Ingest: one frame per camera per tick, interleaved
            // across feeds. submit() blocks only when a session's
            // credit window is full — server-driven backpressure.
            std::vector<std::pair<net::ClientSession *, u64>> seqs;
            for (i64 f = 0; f < kFramesPerRound; ++f) {
                const i64 t = round * kFramesPerRound + f;
                for (i64 c = 0; c < kCameras; ++c) {
                    if (t < feeds[c].size()) {
                        seqs.emplace_back(
                            cams[c], cams[c]->submit(feeds[c][t].image));
                    }
                }
            }
            // Serve: collect this round's OUTCOMEs.
            i64 round_keys = 0;
            for (auto &[cam, seq] : seqs) {
                const net::NetOutcome out = cam->wait(seq);
                if (!out.shed && out.is_key) {
                    ++round_keys;
                }
            }
            total += seqs.size();
            keys += round_keys;
            std::cout << "round " << round << ": "
                      << static_cast<i64>(seqs.size())
                      << " frames served over TCP, " << round_keys
                      << " key frames\n";
        }
        client.close();
    }

    // Graceful drain: every admitted frame was answered before the
    // listener went down.
    server.stop();

    const RunReport report = server.report();
    std::cout << "\ntotal: " << report.frames << " frames, "
              << report.key_frames << " key frames ("
              << 100.0 * report.key_fraction() << "% keys), "
              << report.frames_per_second() << " fps aggregate\n";
    std::cout << "net: " << report.net.frames_in << " frames in, "
              << report.net.outcomes_out << " outcomes out, "
              << report.net.bytes_in / 1024 << " KiB in, "
              << report.net.bytes_out / 1024 << " KiB out, "
              << report.net.sessions_accepted << " sessions, "
              << report.net.shed_total() << " shed, "
              << report.net.window_stalls << " window stalls\n";
    std::cout << "suffix batching (" << engine.config().batch
              << "): " << report.batching.batches << " batches, mean "
              << "occupancy " << report.batching.mean_occupancy()
              << "\n";

    // Replay the same traffic on the serial reference engine and
    // compare: the whole TCP serving path must be bit-identical.
    EngineConfig replay_config;
    replay_config.policy = kPolicySpec;
    replay_config.num_threads = 1;
    replay_config.pipeline_depth = 1;
    Engine replay(net, replay_config);
    const u64 serial_digest = replay.run(feeds).digest;
    const bool identical = serial_digest == report.digest;
    std::cout << "\nTCP serving path vs serial batch replay: "
              << (identical ? "bit-identical" : "MISMATCH") << "\n";
    return identical ? 0 : 1;
}
