/**
 * @file
 * Tests for the TCP serving front end (src/net): wire-protocol
 * round-trips and hostile-input hardening, loopback end-to-end digest
 * identity against in-process submission across a scenario x policy x
 * kernel sweep, backpressure (the window is a hard bound), load
 * shedding under overload, admission control, graceful drain with
 * zero lost in-flight frames — plus regression tests pinning the
 * cross-thread Session::wait() semantics the IO loop depends on
 * (reset()/close() from another thread must wake waiters, never hang
 * them).
 */
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "cnn/model_zoo.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

using net::Client;
using net::ClientSession;
using net::FrameDecoder;
using net::Message;
using net::MsgHeader;
using net::MsgType;
using net::NetOutcome;
using net::ProtocolError;
using net::Server;
using net::ServerConfig;

// --------------------------------------------------------------------
// Wire protocol

Tensor
test_frame(i64 c, i64 h, i64 w, float scale)
{
    Tensor t(c, h, w);
    for (i64 i = 0; i < t.size(); ++i) {
        t.data()[i] = scale * static_cast<float>(i % 251);
    }
    return t;
}

std::vector<Message>
decode_all(const std::vector<u8> &bytes)
{
    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    std::vector<Message> out;
    Message msg;
    while (dec.next(&msg)) {
        out.push_back(msg);
    }
    return out;
}

TEST(Wire, EveryMessageTypeRoundTrips)
{
    std::vector<u8> stream;
    net::HelloMsg hello;
    hello.priority = 3;
    hello.name = "cam-\"7\"";
    auto append = [&stream](const std::vector<u8> &m) {
        stream.insert(stream.end(), m.begin(), m.end());
    };
    append(net::encode_hello(11, hello));
    append(net::encode_hello_ack(11, {16}));
    append(net::encode_nack(
        12, {net::NackReason::kSessionLimit, "limit hit"}));
    const Tensor frame = test_frame(1, 5, 7, 0.25f);
    append(net::encode_frame(11, 42, frame));
    net::OutcomeMsg om;
    om.is_key = true;
    om.failed = false;
    om.credit = 7;
    om.top1 = 5;
    om.output_digest = 0xdeadbeefcafef00dull;
    om.match_error = 0.125;
    append(net::encode_outcome(11, 42, om));
    append(net::encode_shed(11, 43, {net::ShedReason::kWindow, 0}));
    append(net::encode_bye(0));

    const std::vector<Message> msgs = decode_all(stream);
    ASSERT_EQ(msgs.size(), 7u);

    EXPECT_EQ(msgs[0].header.type, MsgType::kHello);
    EXPECT_EQ(msgs[0].header.session, 11u);
    const net::HelloMsg h = net::parse_hello(msgs[0].payload);
    EXPECT_EQ(h.priority, 3);
    EXPECT_EQ(h.name, "cam-\"7\"");

    EXPECT_EQ(msgs[1].header.type, MsgType::kHelloAck);
    EXPECT_EQ(net::parse_hello_ack(msgs[1].payload).window, 16u);

    EXPECT_EQ(msgs[2].header.type, MsgType::kNack);
    const net::NackMsg n = net::parse_nack(msgs[2].payload);
    EXPECT_EQ(n.reason, net::NackReason::kSessionLimit);
    EXPECT_EQ(n.detail, "limit hit");

    EXPECT_EQ(msgs[3].header.type, MsgType::kFrame);
    EXPECT_EQ(msgs[3].header.seq, 42u);
    const Tensor back = net::parse_frame(msgs[3].payload);
    ASSERT_EQ(back.shape(), frame.shape());
    for (i64 i = 0; i < frame.size(); ++i) {
        ASSERT_EQ(back.data()[i], frame.data()[i]);
    }

    EXPECT_EQ(msgs[4].header.type, MsgType::kOutcome);
    const net::OutcomeMsg o = net::parse_outcome(msgs[4].payload);
    EXPECT_TRUE(o.is_key);
    EXPECT_FALSE(o.failed);
    EXPECT_EQ(o.credit, 7u);
    EXPECT_EQ(o.top1, 5);
    EXPECT_EQ(o.output_digest, 0xdeadbeefcafef00dull);
    EXPECT_DOUBLE_EQ(o.match_error, 0.125);

    EXPECT_EQ(msgs[5].header.type, MsgType::kShed);
    EXPECT_EQ(net::parse_shed(msgs[5].payload).reason,
              net::ShedReason::kWindow);

    EXPECT_EQ(msgs[6].header.type, MsgType::kBye);
}

TEST(Wire, DecoderHandlesArbitrarySplitPoints)
{
    std::vector<u8> stream;
    const Tensor frame = test_frame(2, 3, 4, 1.0f);
    const std::vector<u8> one = net::encode_frame(9, 1, frame);
    for (int rep = 0; rep < 3; ++rep) {
        stream.insert(stream.end(), one.begin(), one.end());
    }
    for (size_t chunk = 1; chunk <= 13; chunk += 4) {
        FrameDecoder dec;
        size_t off = 0;
        i64 got = 0;
        Message msg;
        while (off < stream.size()) {
            const size_t n = std::min(chunk, stream.size() - off);
            dec.feed(stream.data() + off, n);
            off += n;
            while (dec.next(&msg)) {
                ++got;
                EXPECT_EQ(msg.header.type, MsgType::kFrame);
            }
        }
        EXPECT_EQ(got, 3);
        EXPECT_EQ(dec.buffered(), 0u);
    }
}

TEST(Wire, GarbageHeaderIsRejectedAtTheHeader)
{
    // Hostile stream: plausible length field but wrong magic — the
    // decoder must throw at the 32 header bytes, not wait for (or
    // allocate) the declared payload.
    std::vector<u8> junk(net::kHeaderSize, 0xa5);
    FrameDecoder dec;
    EXPECT_THROW(dec.feed(junk.data(), junk.size()), ProtocolError);
}

TEST(Wire, CorruptChecksumIsRejected)
{
    std::vector<u8> msg = net::encode_bye(3);
    msg[8] ^= 0x01; // Flip a session-id bit; checksum now mismatches.
    FrameDecoder dec;
    EXPECT_THROW(dec.feed(msg.data(), msg.size()), ProtocolError);
}

TEST(Wire, OversizedPayloadLengthIsRejected)
{
    // Forge a header declaring a payload beyond kMaxPayload, with a
    // *valid* checksum — only the explicit length bound can catch it,
    // and it must, before any allocation happens.
    std::vector<u8> buf;
    net::ByteWriter w(&buf);
    w.u32v(net::kMagic);
    w.u8v(net::kWireVersion);
    w.u8v(static_cast<u8>(MsgType::kFrame));
    w.u16v(0);
    w.u32v(1);                    // session
    w.u32v(net::kMaxPayload + 1); // hostile payload length
    w.u64v(0);                    // seq
    w.u32v(net::header_checksum(buf.data()));
    w.u32v(0);
    ASSERT_EQ(buf.size(), net::kHeaderSize);
    FrameDecoder dec;
    EXPECT_THROW(dec.feed(buf.data(), buf.size()), ProtocolError);
}

TEST(Wire, TruncatedPayloadsThrowDescriptively)
{
    const Tensor frame = test_frame(1, 4, 4, 1.0f);
    std::vector<u8> msg = net::encode_frame(1, 0, frame);
    // Rewrite the header to declare fewer payload bytes than the
    // frame body needs; parse_frame must reject the short payload.
    std::vector<Message> msgs = decode_all(msg);
    ASSERT_EQ(msgs.size(), 1u);
    msgs[0].payload.resize(msgs[0].payload.size() - 3);
    EXPECT_THROW(net::parse_frame(msgs[0].payload), ProtocolError);
    // Trailing garbage after the declared tensor is also an error.
    msgs = decode_all(net::encode_frame(1, 0, frame));
    msgs[0].payload.push_back(0);
    EXPECT_THROW(net::parse_frame(msgs[0].payload), ProtocolError);
}

TEST(Wire, UnknownTypeAndVersionAreRejected)
{
    std::vector<u8> msg = net::encode_bye(0);
    {
        std::vector<u8> bad = msg;
        bad[4] = 9; // Version byte.
        // Recompute nothing: the checksum covers the version, so the
        // tamper is caught either way; both paths must throw.
        FrameDecoder dec;
        EXPECT_THROW(dec.feed(bad.data(), bad.size()), ProtocolError);
    }
    {
        MsgHeader h;
        h.type = static_cast<MsgType>(200);
        h.payload_len = 0;
        std::vector<u8> buf;
        net::encode_header(&buf, h);
        FrameDecoder dec;
        EXPECT_THROW(dec.feed(buf.data(), buf.size()), ProtocolError);
    }
}

TEST(Wire, FrameFuzzDoesNotCrash)
{
    // Deterministic xorshift fuzz over the frame-payload parser: any
    // byte soup must either parse or throw ProtocolError — never
    // crash, never allocate from unvalidated lengths.
    u64 state = 0x9e3779b97f4a7c15ull;
    auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<u8> payload(next() % 64);
        for (u8 &b : payload) {
            b = static_cast<u8>(next());
        }
        try {
            (void)net::parse_frame(payload);
        } catch (const ProtocolError &) {
        }
        try {
            (void)net::parse_hello(payload);
        } catch (const ProtocolError &) {
        }
        try {
            (void)net::parse_outcome(payload);
        } catch (const ProtocolError &) {
        }
    }
}

// --------------------------------------------------------------------
// Loopback serving fixture

/** A small net + workload and a served engine with a loopback client. */
struct NetFixture
{
    Network net;
    std::vector<Sequence> streams;

    explicit NetFixture(i64 num_streams = 2, i64 frames = 4)
        : net(build_scaled(alexnet_spec(), small_opts())),
          streams(multi_stream_set(/*seed=*/17, num_streams, frames,
                                   /*size=*/64))
    {
    }

    static ScaledBuildOptions
    small_opts()
    {
        ScaledBuildOptions o;
        o.input = Shape{1, 64, 64};
        return o;
    }

    static EngineConfig
    engine_config(i64 threads)
    {
        EngineConfig c;
        c.policy = "static:interval=2";
        c.num_threads = threads;
        return c;
    }
};

/** Digests from feeding the streams through Session::submit directly. */
std::vector<u64>
inprocess_digests(const Network &net, const EngineConfig &config,
                  const std::vector<Sequence> &streams)
{
    Engine engine(net, config);
    for (const Sequence &seq : streams) {
        engine.session(seq.name).submit_all(seq);
    }
    std::vector<u64> out;
    RunReport report = engine.report();
    for (const StreamReport &s : report.streams) {
        out.push_back(s.digest);
    }
    return out;
}

TEST(NetServer, LoopbackDigestsMatchInProcessAcrossConfigs)
{
    // The serving layer must be invisible to the results: for every
    // policy x kernel (x threading) config, digests over TCP equal
    // digests from direct submission, bit for bit.
    NetFixture fx;
    struct Case
    {
        const char *policy;
        const char *kernel;
        i64 threads;
    };
    const Case cases[] = {
        {"static:interval=2", "gemm", 1},
        {"static:interval=2", "tuned:budget_us=1000", 1},
        {"adaptive_error:th=0.05,max_gap=8", "gemm", 1},
        {"static:interval=2", "gemm", 2},
    };
    for (const Case &c : cases) {
        EngineConfig config;
        config.policy = c.policy;
        config.kernel = c.kernel;
        config.num_threads = c.threads;

        const std::vector<u64> expected =
            inprocess_digests(fx.net, config, fx.streams);

        Engine engine(fx.net, config);
        Server server(engine);
        server.start();
        {
            Client client("127.0.0.1", server.port());
            std::vector<ClientSession *> sessions;
            for (const Sequence &seq : fx.streams) {
                sessions.push_back(&client.open_session(seq.name));
            }
            for (size_t s = 0; s < fx.streams.size(); ++s) {
                for (const LabeledFrame &frame : fx.streams[s].frames) {
                    const u64 seq = sessions[s]->submit(frame.image);
                    const NetOutcome out = sessions[s]->wait(seq);
                    ASSERT_FALSE(out.shed);
                    ASSERT_FALSE(out.failed);
                }
            }
            for (size_t s = 0; s < fx.streams.size(); ++s) {
                EXPECT_EQ(sessions[s]->chained_digest(), expected[s])
                    << "policy=" << c.policy << " kernel=" << c.kernel
                    << " threads=" << c.threads << " stream=" << s;
            }
            client.close();
        }
        server.stop();
        const NetStats stats = server.stats();
        EXPECT_EQ(stats.frames_in,
                  static_cast<i64>(fx.streams.size() *
                                   fx.streams[0].frames.size()));
        EXPECT_EQ(stats.outcomes_out, stats.frames_in);
        EXPECT_EQ(stats.shed_total(), 0);
        EXPECT_EQ(stats.protocol_errors, 0);
    }
}

TEST(NetServer, ReportCarriesNetSection)
{
    NetFixture fx(1, 2);
    Engine engine(fx.net, NetFixture::engine_config(1));
    Server server(engine);
    server.start();
    {
        Client client("127.0.0.1", server.port());
        ClientSession &s = client.open_session(fx.streams[0].name);
        const u64 seq = s.submit(fx.streams[0].frames[0].image);
        (void)s.wait(seq);
        client.close();
    }
    server.stop();
    const RunReport report = server.report();
    EXPECT_EQ(report.net.frames_in, 1);
    EXPECT_EQ(report.net.sessions_accepted, 1);
    const std::string json = report.to_json(2);
    EXPECT_NE(json.find("\"net\""), std::string::npos);
    EXPECT_NE(json.find("\"outcomes_out\": 1"), std::string::npos);
}

TEST(NetServer, WindowIsAHardBoundAndOverrunsAreShed)
{
    NetFixture fx(1, 2);
    Engine engine(fx.net, NetFixture::engine_config(1));
    ServerConfig sc;
    sc.window = 2;
    Server server(engine, sc);
    server.start();
    {
        Client client("127.0.0.1", server.port());
        ClientSession &s = client.open_session("cam");
        EXPECT_EQ(s.window(), 2u);
        // A misbehaving sender fires a burst far past its credit.
        const Tensor &img = fx.streams[0].frames[0].image;
        std::vector<u64> seqs;
        for (int i = 0; i < 12; ++i) {
            seqs.push_back(s.submit_uncredited(img));
        }
        i64 completed = 0;
        i64 shed_window = 0;
        for (const u64 seq : seqs) {
            const NetOutcome out = s.wait(seq);
            if (out.shed) {
                EXPECT_EQ(out.shed_reason, net::ShedReason::kWindow);
                ++shed_window;
            } else {
                ++completed;
            }
        }
        // Every overrun was shed, none queued: with an inline engine
        // each admitted frame completes before the next message is
        // decoded, so the window bound admits frames only as credit
        // allows — and the server never held more than `window`.
        EXPECT_EQ(completed + shed_window, 12);
        EXPECT_GT(completed, 0);
        client.close();
    }
    server.stop();
    const NetStats stats = server.stats();
    EXPECT_EQ(stats.shed_window + stats.frames_in, 12);
    EXPECT_GT(stats.shed_window, 0);
    EXPECT_EQ(stats.outcomes_out, stats.frames_in);
}

TEST(NetServer, OverloadShedsByPriorityInsteadOfQueueing)
{
    NetFixture fx(1, 2);
    // Two worker threads + a deep pipeline so frames genuinely sit in
    // flight while the IO loop keeps decoding.
    EngineConfig ec = NetFixture::engine_config(2);
    Engine engine(fx.net, ec);
    ServerConfig sc;
    sc.window = 64;
    sc.max_inflight = 4; // Priority 0 sheds at 1 in flight.
    Server server(engine, sc);
    server.start();
    {
        Client client("127.0.0.1", server.port());
        ClientSession &lo = client.open_session("lo", /*priority=*/0);
        const Tensor &img = fx.streams[0].frames[0].image;
        std::vector<u64> seqs;
        for (int i = 0; i < 16; ++i) {
            seqs.push_back(lo.submit_uncredited(img));
        }
        i64 shed_overload = 0;
        for (const u64 seq : seqs) {
            const NetOutcome out = lo.wait(seq);
            if (out.shed &&
                out.shed_reason == net::ShedReason::kOverload) {
                ++shed_overload;
            }
        }
        // Priority 0's share of max_inflight=4 is one slot: the burst
        // mostly sheds instead of queueing into the engine.
        EXPECT_GT(shed_overload, 0);
        client.close();
    }
    server.stop();
    EXPECT_GT(server.stats().shed_overload, 0);
    EXPECT_EQ(server.stats().outcomes_out, server.stats().frames_in);
}

TEST(NetServer, AdmissionControlRejectsWithTypedNacks)
{
    NetFixture fx(1, 1);
    Engine engine(fx.net, NetFixture::engine_config(1));
    ServerConfig sc;
    sc.max_sessions = 1;
    Server server(engine, sc);
    server.start();
    {
        Client client("127.0.0.1", server.port());
        (void)client.open_session("cam0");
        // Session limit.
        try {
            client.open_session("cam1");
            FAIL() << "expected session-limit NACK";
        } catch (const net::NetError &e) {
            EXPECT_NE(std::string(e.what()).find("session_limit"),
                      std::string::npos)
                << e.what();
        }
        // Duplicate name from a second connection.
        Client other("127.0.0.1", server.port());
        // (max_sessions=1 hits first unless we raise it; duplicate
        // is checked before the engine, after the limits — so use a
        // server with room in the next block instead.)
        try {
            other.open_session("cam0");
            FAIL() << "expected NACK";
        } catch (const net::NetError &) {
        }
        other.close();
        client.close();
    }
    server.stop();
    EXPECT_GE(server.stats().sessions_rejected, 2);

    // Duplicate-name rejection, specifically.
    Server server2(engine, ServerConfig{});
    server2.start();
    {
        Client a("127.0.0.1", server2.port());
        Client b("127.0.0.1", server2.port());
        (void)a.open_session("cam");
        try {
            b.open_session("cam");
            FAIL() << "expected duplicate-session NACK";
        } catch (const net::NetError &e) {
            EXPECT_NE(std::string(e.what()).find("duplicate_session"),
                      std::string::npos)
                << e.what();
        }
        b.close();
        a.close();
    }
    server2.stop();
}

TEST(NetServer, ConnectionLimitSendsNackAndCloses)
{
    NetFixture fx(1, 1);
    Engine engine(fx.net, NetFixture::engine_config(1));
    ServerConfig sc;
    sc.max_connections = 1;
    Server server(engine, sc);
    server.start();
    Client first("127.0.0.1", server.port());
    (void)first.open_session("cam");
    // The second connection is told why before the close.
    Client second("127.0.0.1", server.port());
    try {
        second.open_session("late");
        FAIL() << "expected connection-limit rejection";
    } catch (const net::NetError &) {
        // Either the typed NACK or the close races first; both
        // surface as NetError. The server counted the rejection:
    }
    EXPECT_EQ(server.stats().connections_rejected, 1);
    second.close();
    first.close();
    server.stop();
}

TEST(NetServer, MalformedTrafficGetsProtocolNackAndClose)
{
    NetFixture fx(1, 1);
    Engine engine(fx.net, NetFixture::engine_config(1));
    Server server(engine);
    server.start();
    {
        // Raw socket speaking garbage.
        net::Fd fd = net::tcp_connect("127.0.0.1", server.port());
        // At least one full header's worth of garbage: the server
        // rejects at the 32-byte header boundary.
        const char junk[] = "GET /frames HTTP/1.1\r\nHost: nope\r\n\r\n";
        ASSERT_GT(::send(fd.get(), junk, sizeof(junk) - 1, 0), 0);
        // The server answers with a NACK(protocol) then EOF.
        std::vector<u8> buf(4096);
        size_t got = 0;
        for (;;) {
            const ssize_t n = ::recv(fd.get(), buf.data() + got,
                                     buf.size() - got, 0);
            if (n <= 0) {
                break;
            }
            got += static_cast<size_t>(n);
        }
        ASSERT_GE(got, net::kHeaderSize);
        FrameDecoder dec;
        dec.feed(buf.data(), got);
        Message msg;
        ASSERT_TRUE(dec.next(&msg));
        EXPECT_EQ(msg.header.type, MsgType::kNack);
        EXPECT_EQ(net::parse_nack(msg.payload).reason,
                  net::NackReason::kProtocol);
    }
    server.stop();
    EXPECT_EQ(server.stats().protocol_errors, 1);
}

TEST(NetServer, GracefulDrainLosesNoInFlightFrames)
{
    NetFixture fx(1, 2);
    // Worker threads so submitted frames are genuinely in flight
    // when the drain starts.
    Engine engine(fx.net, NetFixture::engine_config(2));
    ServerConfig sc;
    sc.window = 32;
    Server server(engine, sc);
    server.start();
    Client client("127.0.0.1", server.port());
    ClientSession &s = client.open_session("cam");
    const Tensor &img = fx.streams[0].frames[0].image;
    std::vector<u64> seqs;
    for (int i = 0; i < 8; ++i) {
        seqs.push_back(s.submit(img));
    }
    // The zero-loss guarantee covers *admitted* frames — frames still
    // in the socket buffer when the drain flag rises are shed
    // (draining), which is correct but not what this test pins. Wait
    // for the IO thread to admit all 8 before pulling the plug.
    while (server.stats().frames_in < 8) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Stop while those frames are in flight: every admitted frame
    // must still get its OUTCOME before the server closes.
    std::thread stopper([&server]() { server.stop(); });
    i64 completed = 0;
    for (const u64 seq : seqs) {
        const NetOutcome out = s.wait(seq);
        if (!out.shed) {
            EXPECT_FALSE(out.failed);
            ++completed;
        }
    }
    stopper.join();
    EXPECT_EQ(completed, 8) << "graceful drain lost in-flight frames";
    EXPECT_EQ(server.stats().outcomes_out, 8);
    EXPECT_TRUE(client.server_closed()); // Server said BYE.
    client.close();
    // New connections are refused once the listener is down.
    EXPECT_THROW(Client("127.0.0.1", server.port()), net::NetError);
}

TEST(NetServer, DrainingServerShedsNewFramesAndNacksNewSessions)
{
    // Pin the drain-refusal paths without a racing workload: enter
    // drain via request_stop() while a client holds a live session,
    // then watch the next frame get SHED(draining). The session was
    // opened before the drain began.
    NetFixture fx(1, 1);
    Engine engine(fx.net, NetFixture::engine_config(1));
    Server server(engine);
    server.start();
    Client client("127.0.0.1", server.port());
    ClientSession &s = client.open_session("cam");
    server.request_stop();
    // Submit a frame racing the drain. Three outcomes are legal: it
    // slipped in before the flag and completed; the server read it
    // while draining and shed it (draining); or the drain finished
    // first and the connection closed under the frame, in which case
    // wait() throws the descriptive down-connection error. What the
    // test pins is that none of these hang and the shed, when it
    // happens, is typed kDraining.
    try {
        const u64 seq =
            s.submit_uncredited(fx.streams[0].frames[0].image);
        const NetOutcome out = s.wait(seq);
        if (out.shed) {
            EXPECT_EQ(out.shed_reason, net::ShedReason::kDraining);
        }
    } catch (const net::NetError &) {
        // Drain won the race: BYE/close beat the frame.
    }
    server.stop();
    client.close();
}

// --------------------------------------------------------------------
// Cross-thread Session::wait regression (the IO-loop shape)

TEST(SessionWait, ResetFromAnotherThreadWakesWaiters)
{
    // Regression: wait()'s predicate used to watch only completion,
    // and reset() never notified the condition variable — a waiter on
    // a not-yet-completed ticket slept forever when another thread
    // reset the engine. The waiter must wake and get the stale-ticket
    // ConfigError instead.
    NetFixture fx(1, 1);
    Engine engine(fx.net, NetFixture::engine_config(1));
    Session &cam = engine.session("cam");
    (void)cam.submit(fx.streams[0].frames[0].image);
    FrameTicket future;
    future.session = cam.index();
    future.frame = 5; // Never submitted: would block forever.
    future.epoch = 0;
    std::atomic<bool> woke{false};
    std::thread waiter([&]() {
        EXPECT_THROW(cam.wait(future), ConfigError);
        woke.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(woke.load());
    engine.reset();
    waiter.join();
    EXPECT_TRUE(woke.load());
}

TEST(SessionWait, CloseFromAnotherThreadDeliversOutcomes)
{
    NetFixture fx(1, 4);
    Engine engine(fx.net, NetFixture::engine_config(2));
    Session &cam = engine.session("cam");
    std::vector<FrameTicket> tickets;
    for (const LabeledFrame &frame : fx.streams[0].frames) {
        tickets.push_back(cam.submit(frame.image));
    }
    std::thread closer([&engine]() { engine.close(); });
    // close() drains, so every ticket's outcome arrives; wait() from
    // this thread must return them, not hang or throw.
    for (const FrameTicket &t : tickets) {
        const FrameOutcome out = cam.wait(t);
        EXPECT_FALSE(out.failed);
    }
    closer.join();
    EXPECT_THROW(cam.submit(fx.streams[0].frames[0].image), ConfigError);
}

TEST(SessionWait, ForgottenTicketsThrowInsteadOfHanging)
{
    NetFixture fx(1, 2);
    Engine engine(fx.net, NetFixture::engine_config(1));
    Session &cam = engine.session("cam");
    const FrameTicket t0 = cam.submit(fx.streams[0].frames[0].image);
    cam.forget_outcomes();
    EXPECT_THROW(cam.wait(t0), ConfigError);
    EXPECT_THROW(cam.poll(t0), ConfigError);
    // The session keeps working after the trim.
    const FrameTicket t1 = cam.submit(fx.streams[0].frames[1].image);
    EXPECT_FALSE(cam.wait(t1).failed);
}

TEST(SessionSink, OutcomeSinkSeesEveryFrameInOrder)
{
    NetFixture fx(1, 4);
    Engine engine(fx.net, NetFixture::engine_config(2));
    Session &cam = engine.session("cam");
    std::mutex mu;
    std::vector<i64> seen;
    cam.set_outcome_sink([&](const FrameOutcome &out) {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(out.frame);
    });
    for (const LabeledFrame &frame : fx.streams[0].frames) {
        (void)cam.submit(frame.image);
    }
    engine.flush();
    cam.set_outcome_sink(nullptr);
    ASSERT_EQ(seen.size(), fx.streams[0].frames.size());
    for (size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i], static_cast<i64>(i));
    }
}

} // namespace
} // namespace eva2
