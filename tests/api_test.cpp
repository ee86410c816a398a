/**
 * @file
 * Tests for the eva2::Engine serving API: spec parsing and the
 * string-keyed registries, EngineConfig validation, run() matching a
 * serial reference engine bit-for-bit, frame-level Session submission
 * (including incremental feeding split across bursts and concurrent
 * multi-threaded submission), and RunReport structure/JSON.
 *
 * The digest-identity tests are the API's core contract: no matter
 * how frames reach the engine — one run(), several chunked runs, or
 * frame-by-frame session submission from several threads — the
 * outputs must be bit-identical to the serial reference (one thread,
 * no pipelining, no batching).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "api/run_report.h"
#include "cnn/model_zoo.h"
#include "util/json.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

// --------------------------------------------------------------------
// Component spec parsing

TEST(ComponentSpec, ParsesKindAndParams)
{
    const ComponentSpec spec =
        parse_component_spec("adaptive_error:th=0.05,max_gap=8");
    EXPECT_EQ(spec.kind, "adaptive_error");
    ASSERT_EQ(spec.params.size(), 2u);
    EXPECT_DOUBLE_EQ(spec.number("th", -1.0), 0.05);
    EXPECT_EQ(spec.integer("max_gap", -1), 8);
    EXPECT_FALSE(spec.has("interval"));
    EXPECT_EQ(spec.integer("interval", 42), 42);
}

TEST(ComponentSpec, BareKindHasNoParams)
{
    const ComponentSpec spec = parse_component_spec("bilinear");
    EXPECT_EQ(spec.kind, "bilinear");
    EXPECT_TRUE(spec.params.empty());
}

TEST(ComponentSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(parse_component_spec(""), ConfigError);
    EXPECT_THROW(parse_component_spec(":th=1"), ConfigError);
    EXPECT_THROW(parse_component_spec("static:"), ConfigError);
    EXPECT_THROW(parse_component_spec("static:interval"), ConfigError);
    EXPECT_THROW(parse_component_spec("static:=4"), ConfigError);
    EXPECT_THROW(parse_component_spec("static:interval=4,"),
                 ConfigError);
    EXPECT_THROW(parse_component_spec("static:interval=4,interval=5"),
                 ConfigError);
}

TEST(ComponentSpec, RejectsBadNumbers)
{
    const ComponentSpec spec = parse_component_spec("p:th=abc,n=1.5");
    EXPECT_THROW(spec.number("th", 0.0), ConfigError);
    EXPECT_THROW(spec.integer("n", 0), ConfigError);
    EXPECT_DOUBLE_EQ(spec.number("n", 0.0), 1.5);
}

TEST(ComponentSpec, RejectsIntegerOverflow)
{
    const ComponentSpec spec =
        parse_component_spec("static:interval=99999999999999999999");
    EXPECT_THROW(spec.integer("interval", 0), ConfigError);
    EXPECT_THROW(PolicyRegistry::instance().make(
                     "static:interval=99999999999999999999"),
                 ConfigError);
}

TEST(ComponentSpec, AllowOnlyCatchesTypos)
{
    const ComponentSpec spec =
        parse_component_spec("adaptive_error:threshold=0.05");
    EXPECT_THROW(spec.allow_only({"th", "max_gap"}), ConfigError);
}

// --------------------------------------------------------------------
// Registries

TEST(PolicyRegistry, BuildsBuiltInPolicies)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    EXPECT_EQ(reg.make("every_frame")->name(), "static(1)");
    EXPECT_EQ(reg.make("static:interval=4")->name(), "static(4)");
    EXPECT_EQ(reg.make("adaptive_error:th=0.05")->name(),
              reg.make("block_error:th=0.05")->name());
    EXPECT_NE(reg.make("adaptive_motion:th=10,max_gap=4"), nullptr);
}

TEST(PolicyRegistry, UnknownKindNamesAlternatives)
{
    try {
        PolicyRegistry::instance().make("no_such_policy");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no_such_policy"), std::string::npos);
        EXPECT_NE(msg.find("adaptive_error"), std::string::npos);
    }
}

TEST(PolicyRegistry, FactoryValidatesEagerlyAndMintsFreshInstances)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    EXPECT_THROW(reg.factory("static:bogus=1"), ConfigError);
    auto make = reg.factory("static:interval=3");
    auto a = make();
    auto b = make();
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->name(), b->name());
}

TEST(PolicyRegistry, AcceptsCustomRegistrations)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    reg.add("test_always", [](const ComponentSpec &spec) {
        spec.allow_only({});
        return std::make_unique<StaticRatePolicy>(1);
    });
    EXPECT_TRUE(reg.contains("test_always"));
    EXPECT_NE(reg.make("test_always"), nullptr);
}

TEST(InterpRegistry, ResolvesModes)
{
    InterpRegistry &reg = InterpRegistry::instance();
    EXPECT_EQ(reg.resolve("bilinear"), InterpMode::kBilinear);
    EXPECT_EQ(reg.resolve("nearest"), InterpMode::kNearest);
    EXPECT_THROW(reg.resolve("cubic"), ConfigError);
}

TEST(CodecRegistry, AppliesStorageOptions)
{
    CodecRegistry &reg = CodecRegistry::instance();
    AmcOptions amc;
    reg.apply("rle_q88:prune=0.3", amc);
    EXPECT_TRUE(amc.quantize_storage);
    EXPECT_DOUBLE_EQ(amc.storage_prune_rel, 0.3);
    reg.apply("dense", amc);
    EXPECT_FALSE(amc.quantize_storage);
    EXPECT_DOUBLE_EQ(amc.storage_prune_rel, 0.0);
    EXPECT_THROW(reg.apply("zip", amc), ConfigError);
    EXPECT_THROW(reg.apply("rle_q88:prune=-1", amc), ConfigError);
}

// --------------------------------------------------------------------
// Option and config validation

TEST(AmcOptionsValidation, RejectsDegenerateSearchParameters)
{
    const Network net = build_scaled(alexnet_spec());
    AmcOptions opts;
    opts.search_stride = 0;
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
    opts = AmcOptions{};
    opts.search_radius = -2;
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
    opts = AmcOptions{};
    opts.storage_prune_rel = -0.1;
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
    opts = AmcOptions{};
    opts.search_stride = opts.search_radius + 1;
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
}

TEST(AmcOptionsValidation, RejectsExplicitTargetOutOfBounds)
{
    const Network net = build_scaled(alexnet_spec());
    AmcOptions opts;
    opts.target_choice = TargetChoice::kExplicit;
    opts.explicit_target = net.num_layers();
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
    opts.explicit_target = -1;
    EXPECT_THROW(AmcPipeline(net, nullptr, opts), ConfigError);
}

TEST(EngineConfig, ValidatesOnConstruction)
{
    const Network net = build_scaled(alexnet_spec());
    {
        EngineConfig config;
        config.policy = "no_such_policy";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.interp = "cubic";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.codec = "zip";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.target = "layer:9999";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.target = "somewhere";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.motion = "teleport";
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.search_stride = 0;
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    {
        EngineConfig config;
        config.num_threads = -1;
        EXPECT_THROW(Engine(net, config), ConfigError);
    }
    EngineConfig ok;
    ok.policy = "adaptive_error:th=0.02,max_gap=8";
    ok.target = "early";
    EXPECT_NO_THROW(ok.validate(net));
}

// --------------------------------------------------------------------
// Engine behaviour

/** Shared fixture: a small network and a multi-stream workload. */
struct EngineFixture
{
    Network net;
    std::vector<Sequence> streams;

    EngineFixture()
        : net(build_scaled(alexnet_spec())),
          streams(multi_stream_set(/*seed=*/9, /*num_streams=*/3,
                                   /*frames_per_stream=*/4))
    {
    }

    EngineConfig
    config(i64 threads) const
    {
        EngineConfig c;
        c.policy = "static:interval=2";
        c.num_threads = threads;
        return c;
    }

    /** The serial reference: one thread, depth 1, batch off. */
    EngineConfig
    serial_config() const
    {
        EngineConfig c = config(1);
        c.pipeline_depth = 1;
        c.batch = "off";
        return c;
    }

    u64
    serial_digest()
    {
        Engine serial(net, serial_config());
        return serial.run(streams).digest;
    }
};

TEST(Engine, RunMatchesSerialEngineBitForBit)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(4));
    const RunReport report = engine.run(fx.streams);
    EXPECT_EQ(report.digest, fx.serial_digest());
    EXPECT_EQ(report.frames, 3 * 4);
    ASSERT_EQ(report.streams.size(), 3u);
    for (const StreamReport &s : report.streams) {
        EXPECT_EQ(s.frames, 4);
        EXPECT_GE(s.key_frames, 1);
        EXPECT_GT(s.me_add_ops, 0);
    }
    EXPECT_GT(report.wall_ms, 0.0);
    EXPECT_GT(report.frames_per_second(), 0.0);
}

TEST(Engine, SessionSubmissionMatchesBatchBitForBit)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(4));
    for (const Sequence &seq : fx.streams) {
        engine.session(seq.name).submit_all(seq);
    }
    const RunReport report = engine.report();
    EXPECT_EQ(report.digest, fx.serial_digest());
    EXPECT_EQ(report.frames, 3 * 4);
    ASSERT_EQ(report.streams.size(), 3u);
    EXPECT_EQ(report.streams[0].name, fx.streams[0].name);
}

TEST(Engine, RunFeedsNamedSessionsAndReportIncludesThem)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    const RunReport run = engine.run(fx.streams);
    // run() feeds the session named after each sequence...
    ASSERT_EQ(engine.num_sessions(), 3);
    for (size_t i = 0; i < fx.streams.size(); ++i) {
        Session *s = engine.find_session(fx.streams[i].name);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->index(), static_cast<i64>(i));
        EXPECT_EQ(run.streams[i].stream_index, s->index());
    }
    // ...so the cumulative report covers the frames run() fed.
    const RunReport report = engine.report();
    EXPECT_EQ(report.frames, 3 * 4);
    EXPECT_EQ(report.digest, run.digest);

    // One name per call: a second sequence with the same name would
    // feed the same session twice.
    std::vector<Sequence> dup = {fx.streams[0], fx.streams[0]};
    EXPECT_THROW(engine.run(dup), ConfigError);
    EXPECT_EQ(engine.report().frames, 3 * 4);
}

TEST(Engine, SessionCreatedAfterRunStartsFresh)
{
    // Regression: run() must not hand its streams' state to sessions
    // created afterwards. A new session's first frame is a key frame
    // and its digest equals the same frames on a fresh engine.
    EngineFixture fx;
    EngineConfig config = fx.config(2);
    config.policy = "static:interval=8"; // Frame 4 of a stream predicts.
    Engine engine(fx.net, config);
    engine.run(fx.streams);

    Session &fresh = engine.session("new");
    EXPECT_EQ(fresh.index(), 3);
    const std::vector<FrameTicket> tickets =
        fresh.submit_all(fx.streams[0]);
    EXPECT_TRUE(fresh.wait(tickets[0]).is_key);

    Engine reference(fx.net, config);
    Session &ref = reference.session("new");
    ref.submit_all(fx.streams[0]);
    EXPECT_EQ(fresh.report().digest, ref.report().digest);
}

TEST(Engine, SerialEngineProcessesInline)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(1));
    EXPECT_EQ(engine.num_threads(), 1);
    Session &cam = engine.session("cam");
    const FrameTicket t = cam.submit(fx.streams[0].frames[0].image);
    // No worker pool: the frame completed on the submitting thread.
    const auto outcome = cam.poll(t);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_TRUE(outcome->is_key);
    EXPECT_EQ(outcome->frame, 0);
}

TEST(Engine, IncrementalFeedingIsBitIdenticalToOneBatch)
{
    // Satellite: splitting each stream's frames across two
    // submissions must reproduce the one-shot digests exactly —
    // session state (stored key frame, RLE buffer, policy state)
    // persists across the split.
    EngineFixture fx;
    const u64 expected = fx.serial_digest();

    // Two engine.run() calls over chunked sequences: per-chunk
    // digests must match a serial engine fed the same chunks, and
    // stream state must persist across the boundary (each run()
    // restarts the digest chain, so chunks compare chunk-to-chunk).
    {
        std::vector<Sequence> first, second;
        for (const Sequence &seq : fx.streams) {
            Sequence a, b;
            a.name = b.name = seq.name;
            for (i64 i = 0; i < seq.size(); ++i) {
                ((i < seq.size() / 2) ? a : b)
                    .frames.push_back(seq[i]);
            }
            first.push_back(std::move(a));
            second.push_back(std::move(b));
        }
        Engine engine(fx.net, fx.config(2));
        const RunReport r1 = engine.run(first);
        const RunReport r2 = engine.run(second);
        Engine serial(fx.net, fx.serial_config());
        EXPECT_EQ(r1.digest, serial.run(first).digest);
        EXPECT_EQ(r2.digest, serial.run(second).digest);
        EXPECT_EQ(r1.frames + r2.frames, 3 * 4);
    }

    // Session path: two submit bursts with a drain between them must
    // chain into exactly the one-batch digest.
    {
        Engine engine(fx.net, fx.config(2));
        for (const Sequence &seq : fx.streams) {
            Session &cam = engine.session(seq.name);
            for (i64 i = 0; i < seq.size() / 2; ++i) {
                cam.submit(seq[i]);
            }
        }
        engine.flush();
        for (const Sequence &seq : fx.streams) {
            Session &cam = engine.session(seq.name);
            for (i64 i = seq.size() / 2; i < seq.size(); ++i) {
                cam.submit(seq[i]);
            }
        }
        const RunReport report = engine.report();
        EXPECT_EQ(report.digest, expected);
        EXPECT_EQ(report.frames, 3 * 4);
        // Fewer key frames than a fresh-per-chunk run would need:
        // the split reused each stream's stored key frame.
        for (const StreamReport &s : report.streams) {
            EXPECT_EQ(s.frames, 4);
        }
    }
}

TEST(Engine, PerFrameOutcomesMatchBatchRecords)
{
    EngineFixture fx;
    // run() on one engine...
    Engine batch_engine(fx.net, fx.config(1));
    const RunReport batch = batch_engine.run(fx.streams);
    // ...frame-level on another; the outcomes must chain into the
    // same stream digest.
    Engine engine(fx.net, fx.config(2));
    Session &cam = engine.session(fx.streams[0].name);
    const std::vector<FrameTicket> tickets =
        cam.submit_all(fx.streams[0]);
    EXPECT_EQ(cam.submitted(), 4);
    for (size_t i = 0; i < tickets.size(); ++i) {
        const FrameOutcome outcome = cam.wait(tickets[i]);
        EXPECT_EQ(outcome.frame, static_cast<i64>(i));
        EXPECT_FALSE(outcome.failed);
    }
    EXPECT_EQ(cam.completed(), 4);
    EXPECT_EQ(cam.report().digest, batch.streams[0].digest);
}

TEST(Engine, ConcurrentSubmissionFromManyThreads)
{
    // The TSan target: many ingest threads, one per camera, pushing
    // frames concurrently while the engine's pool drains the strands.
    EngineFixture fx;
    Engine engine(fx.net, fx.config(4));
    // Create sessions up front so indices match stream order.
    for (const Sequence &seq : fx.streams) {
        engine.session(seq.name);
    }
    std::vector<std::thread> ingest;
    std::atomic<i64> submitted{0};
    for (const Sequence &seq : fx.streams) {
        ingest.emplace_back([&engine, &seq, &submitted]() {
            Session &cam = engine.session(seq.name);
            for (const LabeledFrame &frame : seq.frames) {
                cam.submit(frame);
                submitted.fetch_add(1);
            }
        });
    }
    for (std::thread &t : ingest) {
        t.join();
    }
    const RunReport report = engine.report();
    EXPECT_EQ(submitted.load(), 3 * 4);
    EXPECT_EQ(report.frames, 3 * 4);
    EXPECT_EQ(report.digest, fx.serial_digest());
}

TEST(Engine, ResetReproducesFirstRun)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    const RunReport first = engine.run(fx.streams);
    const RunReport second = engine.run(fx.streams);
    // State persisted: second run reuses stored key frames.
    EXPECT_EQ(second.frames, first.frames);
    engine.reset();
    const RunReport again = engine.run(fx.streams);
    EXPECT_EQ(again.digest, first.digest);
}

TEST(Engine, SubmitRejectsBadFrameShapeOnCallerThread)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    Session &cam = engine.session("cam");
    EXPECT_THROW(cam.submit(Tensor(1, 8, 8)), ConfigError);
    // The session stays usable afterwards.
    cam.submit(fx.streams[0].frames[0].image);
    cam.drain();
    EXPECT_EQ(cam.completed(), 1);
}

TEST(Engine, StaleTicketsAreRejectedAfterReset)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(1));
    Session &cam = engine.session("cam");
    const FrameTicket old =
        cam.submit(fx.streams[0].frames[0].image);
    engine.reset();
    // A pre-reset ticket must not resolve against the new epoch's
    // outcomes (or hang): it is rejected outright.
    EXPECT_THROW(cam.poll(old), ConfigError);
    EXPECT_THROW(cam.wait(old), ConfigError);
    const FrameTicket fresh =
        cam.submit(fx.streams[0].frames[0].image);
    EXPECT_FALSE(cam.wait(fresh).failed);
}

TEST(Engine, ForgetOutcomesBoundsMemoryButKeepsTheChain)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    Session &cam = engine.session(fx.streams[0].name);
    const Sequence &seq = fx.streams[0];
    FrameTicket first_half{};
    for (i64 i = 0; i < seq.size() / 2; ++i) {
        first_half = cam.submit(seq[i]);
    }
    cam.forget_outcomes(); // Long-lived server trimming records.
    EXPECT_THROW(cam.poll(first_half), ConfigError);
    std::vector<FrameTicket> rest;
    for (i64 i = seq.size() / 2; i < seq.size(); ++i) {
        rest.push_back(cam.submit(seq[i]));
    }
    // Post-trim tickets still resolve, numbering uninterrupted...
    EXPECT_EQ(cam.wait(rest.front()).frame, seq.size() / 2);
    // ...and stats plus the digest chain survived the trim intact.
    cam.drain();
    EXPECT_EQ(cam.completed(), seq.size());
    Engine serial(fx.net, fx.serial_config());
    EXPECT_EQ(cam.report().digest, serial.run({seq}).streams[0].digest);
}

TEST(ComponentSpec, RejectsNonFiniteNumbers)
{
    const ComponentSpec spec =
        parse_component_spec("p:a=nan,b=inf,c=-inf");
    EXPECT_THROW(spec.number("a", 0.0), ConfigError);
    EXPECT_THROW(spec.number("b", 0.0), ConfigError);
    EXPECT_THROW(spec.number("c", 0.0), ConfigError);
    EngineFixture fx;
    EngineConfig config;
    config.policy = "adaptive_error:th=nan";
    EXPECT_THROW(Engine(fx.net, config), ConfigError);
}

TEST(Engine, SessionsAreStableAndNamed)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    Session &a = engine.session("cam_a");
    Session &b = engine.session("cam_b");
    EXPECT_NE(&a, &b);
    EXPECT_EQ(&a, &engine.session("cam_a"));
    EXPECT_EQ(a.index(), 0);
    EXPECT_EQ(b.index(), 1);
    EXPECT_EQ(engine.num_sessions(), 2);
    EXPECT_EQ(engine.find_session("cam_a"), &a);
    EXPECT_EQ(engine.find_session("nope"), nullptr);
}

TEST(Engine, ClosedEngineRejectsSubmissionDescriptively)
{
    // Satellite regression: submitting after close()/teardown must be
    // a loud, descriptive error — not undefined behavior against a
    // half-destroyed engine.
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    Session &cam = engine.session("cam");
    const FrameTicket t = cam.submit(fx.streams[0].frames[0].image);
    cam.wait(t);

    engine.close();
    EXPECT_TRUE(engine.closed());
    engine.close(); // Idempotent.

    try {
        cam.submit(fx.streams[0].frames[1].image);
        FAIL() << "submit after close did not throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("closed"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(engine.run(fx.streams), ConfigError);
    EXPECT_THROW(engine.session("new_cam"), ConfigError);

    // Completed work stays observable: the existing session is still
    // addressable and its outcome, report, and digests survive.
    EXPECT_EQ(&engine.session("cam"), &cam);
    ASSERT_TRUE(cam.poll(t).has_value());
    EXPECT_TRUE(cam.poll(t)->is_key);
    const RunReport report = engine.report();
    EXPECT_EQ(report.frames, 1);
}

TEST(Engine, PipelineDepthConfigIsValidatedAndEchoed)
{
    EngineFixture fx;
    EngineConfig bad = fx.config(2);
    bad.pipeline_depth = -1;
    EXPECT_THROW(Engine(fx.net, bad), ConfigError);

    EngineConfig serial_frames = fx.config(2);
    serial_frames.pipeline_depth = 1;
    Engine a(fx.net, serial_frames);
    EngineConfig pipelined = fx.config(2);
    pipelined.pipeline_depth = 4;
    Engine b(fx.net, pipelined);
    const RunReport ra = a.run(fx.streams);
    const RunReport rb = b.run(fx.streams);
    EXPECT_EQ(ra.pipeline_depth, 1);
    EXPECT_EQ(rb.pipeline_depth, 4);
    // The execution-shape knob must not change a single output bit.
    EXPECT_EQ(ra.digest, rb.digest);
    EXPECT_NE(ra.to_json(0).find("\"pipeline_depth\":1"),
              std::string::npos);
}

// --------------------------------------------------------------------
// RunReport and JSON

TEST(RunReport, CollectsStageTimings)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    const RunReport report = engine.run(fx.streams);
    ASSERT_EQ(report.stages.size(),
              static_cast<size_t>(kNumAmcStages));
    auto calls = [&](const char *name) -> i64 {
        for (const StageReport &s : report.stages) {
            if (s.stage == name) {
                return s.calls;
            }
        }
        return -1;
    };
    // 3 streams x 4 frames, static:interval=2 -> 2 keys per stream.
    EXPECT_EQ(calls("prefix"), 6);
    EXPECT_EQ(calls("suffix"), 12);
    EXPECT_EQ(calls("motion_estimation"), 9); // All non-first frames.
    EXPECT_EQ(calls("warp"), 6);
    EXPECT_EQ(calls("encode"), 6);

    // Stage rows cover exactly one run, like frames and wall_ms: a
    // second run must not report doubled (lifetime) counts.
    const RunReport second = engine.run(fx.streams);
    for (const StageReport &s : second.stages) {
        if (s.stage == "suffix") {
            EXPECT_EQ(s.calls, 12);
        }
    }
}

TEST(RunReport, JsonIsWellFormedAndCarriesHeadlineNumbers)
{
    EngineFixture fx;
    Engine engine(fx.net, fx.config(2));
    const RunReport report = engine.run(fx.streams);
    const std::string json = report.to_json();

    // Structural sanity: balanced brackets outside strings.
    i64 depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);

    for (const char *key :
         {"\"network\"", "\"policy\"", "\"wall_ms\"", "\"frames\"",
          "\"key_fraction\"", "\"fps\"", "\"me_add_ops\"",
          "\"digest\"", "\"streams\"", "\"stages\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    EXPECT_NE(json.find("\"static:interval=2\""), std::string::npos);
}

TEST(JsonEscape, SharedHelperCoversQuotesBackslashesAndControls)
{
    // The one escape routine every report path shares (satellite):
    // stage/kernel/stream names with hostile characters cannot
    // corrupt a saved report.
    EXPECT_EQ(json_escape("plain_name"), "plain_name");
    EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(json_escape("tab\there"), "tab\\there");
    EXPECT_EQ(json_escape("nl\nrc\r"), "nl\\nrc\\r");
    EXPECT_EQ(json_escape(std::string("bell\x01") + "x"),
              "bell\\u0001x");

    // A report whose stage/kernel-bearing names carry quotes and
    // backslashes still serializes through the helper: the raw name
    // never appears unescaped.
    RunReport report;
    report.network = "net\"quoted\\name";
    StageReport stage;
    stage.stage = "stage\"x";
    report.stages.push_back(stage);
    PlanRecord plan;
    plan.scope = "prefix";
    PlanStepInfo step;
    step.layer = "conv\\1";
    step.kernel = "gemm\"fused";
    plan.steps.push_back(step);
    report.plan.push_back(plan);
    const std::string json = report.to_json(0);
    EXPECT_EQ(json.find("net\"quoted"), std::string::npos);
    EXPECT_NE(json.find("net\\\"quoted\\\\name"), std::string::npos);
    EXPECT_NE(json.find("stage\\\"x"), std::string::npos);
    EXPECT_NE(json.find("conv\\\\1"), std::string::npos);
    EXPECT_NE(json.find("gemm\\\"fused"), std::string::npos);
}

TEST(StageReportTest, OccupancyAndMeanLatencyRows)
{
    StageTimings timings;
    timings.on_stage(AmcStage::kSuffix, 30.0);
    timings.on_stage(AmcStage::kSuffix, 10.0);
    timings.on_stage(AmcStage::kMotionEstimation, 60.0);
    const std::vector<StageReport> rows =
        stage_reports(timings, /*wall_ms=*/50.0);
    ASSERT_EQ(rows.size(), static_cast<size_t>(kNumAmcStages));
    for (const StageReport &row : rows) {
        if (row.stage == "suffix") {
            EXPECT_DOUBLE_EQ(row.total_ms, 40.0);
            EXPECT_EQ(row.calls, 2);
            EXPECT_DOUBLE_EQ(row.mean_ms(), 20.0);
            EXPECT_DOUBLE_EQ(row.occupancy, 0.8);
        } else if (row.stage == "motion_estimation") {
            // Busy past the wall clock: overlapped execution.
            EXPECT_DOUBLE_EQ(row.occupancy, 1.2);
        } else {
            EXPECT_DOUBLE_EQ(row.occupancy, 0.0);
            EXPECT_DOUBLE_EQ(row.mean_ms(), 0.0);
        }
    }
    // Without a wall time, occupancies are simply absent (0).
    EXPECT_DOUBLE_EQ(stage_reports(timings)[0].occupancy, 0.0);
}

TEST(JsonWriterTest, EscapesAndNests)
{
    JsonWriter w(0);
    w.begin_object();
    w.member("s", "a\"b\\c\nd");
    w.member("i", i64{-3});
    w.member("b", true);
    w.key("a").begin_array().value(1.5).null().end_array();
    w.end_object();
    EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,"
                       "\"b\":true,\"a\":[1.5,null]}");
}

TEST(JsonWriterTest, SplicesRawSubdocuments)
{
    JsonWriter inner(0);
    inner.begin_object().member("x", i64{1}).end_object();
    JsonWriter w(0);
    w.begin_object();
    w.key("nested").raw(inner.str());
    w.key("arr").begin_array().raw("[2,3]").end_array();
    w.end_object();
    EXPECT_EQ(w.str(), "{\"nested\":{\"x\":1},\"arr\":[[2,3]]}");
}

TEST(JsonWriterTest, RejectsStructuralMisuse)
{
    {
        JsonWriter w;
        w.begin_array();
        EXPECT_THROW(w.key("k"), InternalError);
    }
    {
        JsonWriter w;
        w.begin_object();
        EXPECT_THROW(w.value(i64{1}), InternalError);
    }
    {
        JsonWriter w;
        w.begin_object();
        EXPECT_THROW(w.str(), InternalError);
    }
}

TEST(RunReportTest, DigestHexFormatsFixedWidth)
{
    EXPECT_EQ(digest_hex(0), "0x0000000000000000");
    EXPECT_EQ(digest_hex(0xdeadbeefull), "0x00000000deadbeef");
}

} // namespace
} // namespace eva2
