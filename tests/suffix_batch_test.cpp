/**
 * @file
 * Tests for cross-stream suffix batching: BatchedExecutionPlan
 * bit-exact parity with per-sample ExecutionPlan runs (over kernels,
 * fusion, batch sizes, and layer ranges), zero steady-state
 * allocations, the SuffixBatcher's formation policy (full batches,
 * partial-batch delay dispatch, inline batch-of-1), the batch=auto
 * Engine spec, and the acceptance sweep: per-stream digests with
 * batching enabled are bit-identical to unbatched execution across
 * scenarios x policies x kernels.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>

#include "api/engine.h"
#include "api/registry.h"
#include "cnn/model_zoo.h"
#include "runtime/stream_executor.h"
#include "runtime/suffix_batcher.h"
#include "util/rng.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

Network
small_net(i64 size = 96)
{
    ScaledBuildOptions o;
    o.input = Shape{1, size, size};
    return build_scaled(alexnet_spec(), o);
}

Tensor
random_tensor(Shape shape, u64 seed)
{
    Tensor t(shape);
    Rng rng(seed);
    for (i64 i = 0; i < t.size(); ++i) {
        t[i] = rng.uniform_f(-1.5f, 1.5f);
    }
    return t;
}

// --------------------------------------------------------------------
// BatchedExecutionPlan parity

/**
 * The core bit-exactness contract: every sample of a batched run
 * equals the unbatched plan's output exactly, for every batch size,
 * kernel, and fusion setting, over both the suffix range (FC-heavy)
 * and the whole network (conv/pool/LRN-heavy).
 */
TEST(BatchedPlan, BitIdenticalToPerSampleRuns)
{
    Network net = small_net();
    const i64 target = net.default_target_index();
    struct Range
    {
        i64 begin;
        i64 end;
        Shape in;
    };
    ExecutionPlan prefix(net, 0, target + 1, net.input_shape());
    const std::vector<Range> ranges = {
        {target + 1, net.num_layers(), prefix.out_shape()},
        {0, net.num_layers(), net.input_shape()},
    };
    for (const Range &range : ranges) {
        for (const ConvKernel kernel :
             {ConvKernel::kIm2colGemm, ConvKernel::kDirect}) {
            for (const bool fuse : {true, false}) {
                PlanOptions popts;
                popts.conv_kernel = kernel;
                popts.fuse_conv_relu = fuse;
                ExecutionPlan plan(net, range.begin, range.end,
                                   range.in, popts);
                BatchedExecutionPlan batched(plan, /*max_batch=*/4);
                EXPECT_EQ(batched.out_shape(), plan.out_shape());
                for (const i64 n : {1, 2, 3, 4}) {
                    std::vector<Tensor> inputs;
                    std::vector<const Tensor *> in_ptrs;
                    for (i64 i = 0; i < n; ++i) {
                        inputs.push_back(random_tensor(
                            range.in,
                            static_cast<u64>(1000 + i)));
                    }
                    for (const Tensor &t : inputs) {
                        in_ptrs.push_back(&t);
                    }
                    const Tensor *outs[kMaxSuffixBatch] = {};
                    ScratchArena batch_arena;
                    batched.run(in_ptrs.data(), n, outs, batch_arena);
                    for (i64 i = 0; i < n; ++i) {
                        ScratchArena ref_arena;
                        const Tensor &expect =
                            plan.run(inputs[static_cast<size_t>(i)],
                                     ref_arena);
                        ASSERT_NE(outs[i], nullptr);
                        EXPECT_TRUE(*outs[i] == expect)
                            << "range [" << range.begin << ", "
                            << range.end << "), kernel "
                            << conv_kernel_name(kernel) << ", fuse "
                            << fuse << ", batch " << n << ", sample "
                            << i;
                    }
                }
            }
        }
    }
}

TEST(BatchedPlan, EmptyRangeReturnsInputs)
{
    Network net = small_net();
    BatchedExecutionPlan batched(net, 2, 2,
                                 ExecutionPlan(net, 0, 2,
                                               net.input_shape())
                                     .out_shape(),
                                 /*max_batch=*/2);
    const Tensor a = random_tensor(batched.in_shape(), 7);
    const Tensor b = random_tensor(batched.in_shape(), 8);
    const Tensor *ins[2] = {&a, &b};
    const Tensor *outs[2] = {};
    ScratchArena arena;
    batched.run(ins, 2, outs, arena);
    EXPECT_EQ(outs[0], &a);
    EXPECT_EQ(outs[1], &b);
}

TEST(BatchedPlan, RejectsBadBatchAndShapes)
{
    Network net = small_net();
    EXPECT_THROW(BatchedExecutionPlan(net, 0, net.num_layers(),
                                      net.input_shape(), 0),
                 ConfigError);
    EXPECT_THROW(BatchedExecutionPlan(net, 0, net.num_layers(),
                                      net.input_shape(),
                                      kMaxSuffixBatch + 1),
                 ConfigError);
    BatchedExecutionPlan batched(net, 0, net.num_layers(),
                                 net.input_shape(), 2);
    const Tensor good = random_tensor(net.input_shape(), 1);
    const Tensor bad = random_tensor(Shape{1, 8, 8}, 2);
    const Tensor *outs[2] = {};
    ScratchArena arena;
    {
        const Tensor *ins[2] = {&good, &good};
        EXPECT_THROW(batched.run(ins, 3, outs, arena), ConfigError);
        EXPECT_THROW(batched.run(ins, 0, outs, arena), ConfigError);
    }
    {
        const Tensor *ins[2] = {&good, &bad};
        EXPECT_THROW(batched.run(ins, 2, outs, arena), ConfigError);
    }
}

/**
 * The allocation half of the acceptance bar: once the arena is warm,
 * a batched suffix run allocates no tensor buffers at any batch size
 * up to max_batch.
 */
TEST(BatchedPlan, ZeroSteadyStateAllocations)
{
    Network net = small_net();
    const i64 target = net.default_target_index();
    ExecutionPlan prefix(net, 0, target + 1, net.input_shape());
    ExecutionPlan suffix(net, target + 1, net.num_layers(),
                         prefix.out_shape());
    BatchedExecutionPlan batched(suffix, /*max_batch=*/4);
    std::vector<Tensor> inputs;
    for (i64 i = 0; i < 4; ++i) {
        inputs.push_back(random_tensor(suffix.in_shape(),
                                       static_cast<u64>(50 + i)));
    }
    const Tensor *ins[4] = {&inputs[0], &inputs[1], &inputs[2],
                            &inputs[3]};
    const Tensor *outs[4] = {};
    ScratchArena arena;
    // Warm every batch size (slot shapes differ with n).
    for (const i64 n : {1, 2, 3, 4}) {
        batched.run(ins, n, outs, arena);
    }
    const u64 before = Tensor::buffer_allocations();
    for (i64 rep = 0; rep < 3; ++rep) {
        for (const i64 n : {4, 1, 3, 2}) {
            batched.run(ins, n, outs, arena);
        }
    }
    EXPECT_EQ(Tensor::buffer_allocations() - before, 0u)
        << "batched suffix runs allocated tensor buffers steady-state";
}

// --------------------------------------------------------------------
// SuffixBatcher formation policy

struct RecordingClient : SuffixBatchClient
{
    std::mutex mutex;
    std::vector<i64> tokens;
    std::vector<u64> digests;
    std::vector<std::exception_ptr> errors;

    void
    on_suffix_done(i64 token, const Tensor *out,
                   std::exception_ptr error) override
    {
        std::lock_guard<std::mutex> lock(mutex);
        tokens.push_back(token);
        digests.push_back(out != nullptr ? tensor_digest(*out) : 0);
        errors.push_back(error);
    }
};

TEST(SuffixBatcher, FullBatchesDispatchAndMatchUnbatched)
{
    Network net = small_net();
    ExecutionPlan full(net);
    BatchedExecutionPlan batched(full, /*max_batch=*/2);
    ThreadPool pool(2);
    SuffixBatchOptions opts;
    opts.enabled = true;
    opts.max_batch = 2;
    opts.max_delay_us = 1000000; // Only full batches may dispatch.
    SuffixBatcher batcher(batched, &pool, opts);
    const Tensor a = random_tensor(net.input_shape(), 3);
    const Tensor b = random_tensor(net.input_shape(), 4);
    RecordingClient client;
    batcher.submit(&a, &client, 0, nullptr);
    batcher.submit(&b, &client, 1, nullptr);
    batcher.drain();
    ASSERT_EQ(client.tokens.size(), 2u);
    const SuffixBatchStats stats = batcher.stats();
    EXPECT_EQ(stats.items, 2);
    EXPECT_EQ(stats.batches, 1);
    ASSERT_EQ(stats.occupancy.size(), 2u);
    EXPECT_EQ(stats.occupancy[1], 1);
    // Results bit-identical to unbatched plan execution.
    for (size_t i = 0; i < client.tokens.size(); ++i) {
        const Tensor &in = client.tokens[i] == 0 ? a : b;
        EXPECT_EQ(client.digests[i],
                  tensor_digest(full.forward(in)));
    }
}

TEST(SuffixBatcher, PartialBatchDispatchesByDelayTimer)
{
    Network net = small_net();
    ExecutionPlan full(net);
    BatchedExecutionPlan batched(full, /*max_batch=*/8);
    ThreadPool pool(2);
    SuffixBatchOptions opts;
    opts.enabled = true;
    opts.max_batch = 8;
    opts.max_delay_us = 200;
    SuffixBatcher batcher(batched, &pool, opts);
    const Tensor a = random_tensor(net.input_shape(), 5);
    RecordingClient client;
    batcher.submit(&a, &client, 0, nullptr);
    // No flush: the delay timer alone must dispatch the lone item.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(client.mutex);
            if (!client.tokens.empty()) {
                break;
            }
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "timer never dispatched the partial batch";
        std::this_thread::yield();
    }
    batcher.drain();
    const SuffixBatchStats stats = batcher.stats();
    EXPECT_EQ(stats.items, 1);
    EXPECT_EQ(stats.batches, 1);
    EXPECT_EQ(stats.occupancy[0], 1);
}

TEST(SuffixBatcher, InlineModeRunsBatchOfOne)
{
    Network net = small_net();
    ExecutionPlan full(net);
    BatchedExecutionPlan batched(full, /*max_batch=*/4);
    SuffixBatchOptions opts;
    opts.enabled = true;
    opts.max_batch = 4;
    SuffixBatcher batcher(batched, /*pool=*/nullptr, opts);
    const Tensor a = random_tensor(net.input_shape(), 6);
    RecordingClient client;
    batcher.submit(&a, &client, 7, nullptr);
    // Inline: delivered synchronously, before drain.
    ASSERT_EQ(client.tokens.size(), 1u);
    EXPECT_EQ(client.tokens[0], 7);
    EXPECT_EQ(client.digests[0], tensor_digest(full.forward(a)));
    EXPECT_EQ(batcher.stats().batches, 1);
    EXPECT_EQ(batcher.stats().occupancy[0], 1);
}

// --------------------------------------------------------------------
// Engine-level digest identity

/** A small-search engine config at a given execution shape. */
EngineConfig
small_config(const std::string &batch, i64 threads, i64 depth)
{
    EngineConfig c;
    c.search_radius = 10;
    c.batch = batch;
    c.num_threads = threads;
    c.pipeline_depth = depth;
    return c;
}

/**
 * The acceptance sweep: per-stream digests with suffix batching are
 * bit-identical to the serial reference engine (one thread, depth 1,
 * batch off) for every scenario kind in the serving set, every
 * policy, and both CNN kernels.
 */
TEST(SuffixBatchSweep, BatchedDigestsMatchUnbatchedEverywhere)
{
    Network net = small_net();
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/7, /*num_streams=*/5,
                         /*frames_per_stream=*/4, /*size=*/96);
    const std::vector<std::string> policies = {
        "every_frame",
        "static:interval=3",
        "adaptive_error:th=0.05,max_gap=6",
    };
    const std::vector<std::string> kernels = {"gemm", "direct"};
    for (const std::string &policy : policies) {
        for (const std::string &kernel : kernels) {
            auto config = [&](const std::string &batch, i64 threads,
                              i64 depth) {
                EngineConfig c = small_config(batch, threads, depth);
                c.policy = policy;
                c.kernel = kernel;
                return c;
            };
            Engine serial(net, config("off", 1, 1));
            Engine batched(net,
                           config("auto:max=4,delay_us=200", 4, 3));
            const RunReport a = serial.run(streams);
            const RunReport b = batched.run(streams);
            ASSERT_EQ(a.streams.size(), b.streams.size());
            for (size_t i = 0; i < a.streams.size(); ++i) {
                EXPECT_EQ(a.streams[i].digest, b.streams[i].digest)
                    << "policy " << policy << ", kernel " << kernel
                    << ", stream " << a.streams[i].name;
            }
            EXPECT_EQ(b.batching.items,
                      static_cast<i64>(streams.size()) * 4)
                << "every suffix must route through the batcher";
        }
    }
}

/** Batching without pipelining (depth 1) still batches across streams. */
TEST(SuffixBatchSweep, DepthOneStillBatchesAcrossStreams)
{
    Network net = small_net();
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/9, /*num_streams=*/4,
                         /*frames_per_stream=*/3, /*size=*/96);
    Engine serial(net, small_config("off", 1, 1));
    Engine batched(net, small_config("auto:max=4", 4, 1));
    EXPECT_EQ(serial.run(streams).digest, batched.run(streams).digest);
    EXPECT_EQ(batched.report().batching.items,
              static_cast<i64>(streams.size()) * 3);
}

// --------------------------------------------------------------------
// Engine-level batch=auto

TEST(EngineBatch, SpecValidation)
{
    Network net = small_net();
    EngineConfig config;
    config.batch = "bogus";
    EXPECT_THROW(Engine(net, config), ConfigError);
    config.batch = "auto:max=0";
    EXPECT_THROW(Engine(net, config), ConfigError);
    config.batch = "auto:max=100000";
    EXPECT_THROW(Engine(net, config), ConfigError);
    config.batch = "auto:delay_us=-1";
    EXPECT_THROW(Engine(net, config), ConfigError);
    config.batch = "auto:maxx=4";
    EXPECT_THROW(Engine(net, config), ConfigError);
    config.batch = "off:max=4";
    EXPECT_THROW(Engine(net, config), ConfigError);
    config.batch = "auto:max=4,delay_us=100";
    EXPECT_NO_THROW(Engine(net, config));
}

TEST(EngineBatch, BatchRunMatchesUnbatchedAndReportsOccupancy)
{
    Network net = small_net();
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/15, /*num_streams=*/4,
                         /*frames_per_stream=*/4, /*size=*/96);
    EngineConfig off;
    off.policy = "static:interval=3";
    off.search_radius = 10;
    off.num_threads = 1;
    off.pipeline_depth = 1;
    EngineConfig on = off;
    on.batch = "auto:max=4,delay_us=200";
    on.num_threads = 4;
    on.pipeline_depth = 3;
    Engine unbatched(net, off);
    Engine batched(net, on);
    const RunReport a = unbatched.run(streams);
    const RunReport b = batched.run(streams);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(b.batch, "auto:max=4,delay_us=200");
    EXPECT_EQ(b.batching.items, b.frames);
    EXPECT_GE(b.batching.batches, 1);
    EXPECT_LE(b.batching.batches, b.batching.items);
    EXPECT_GE(b.batching.mean_occupancy(), 1.0);
    // Occupancy appears in the JSON document.
    EXPECT_NE(b.to_json().find("suffix_batching"), std::string::npos);
    EXPECT_NE(b.to_json().find("occupancy_histogram"),
              std::string::npos);
    // The unbatched engine reports empty batching stats.
    EXPECT_EQ(a.batch, "off");
    EXPECT_EQ(a.batching.items, 0);
}

TEST(EngineBatch, SessionsMatchUnbatchedSessions)
{
    Network net = small_net();
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/23, /*num_streams=*/3,
                         /*frames_per_stream=*/4, /*size=*/96);
    EngineConfig off;
    off.policy = "adaptive_error:th=0.05,max_gap=6";
    off.search_radius = 10;
    off.num_threads = 1;
    off.pipeline_depth = 1;
    EngineConfig on = off;
    on.batch = "auto:max=3,delay_us=200";
    on.num_threads = 3;
    on.pipeline_depth = 2;
    Engine unbatched(net, off);
    Engine batched(net, on);
    // Interleave submissions round-robin across sessions, the way
    // frames actually arrive from concurrent feeds.
    for (Engine *engine : {&unbatched, &batched}) {
        for (size_t f = 0; f < streams[0].frames.size(); ++f) {
            for (size_t s = 0; s < streams.size(); ++s) {
                engine->session("cam" + std::to_string(s))
                    .submit(streams[s].frames[f].image);
            }
        }
    }
    const RunReport a = unbatched.report();
    const RunReport b = batched.report();
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (size_t i = 0; i < a.streams.size(); ++i) {
        EXPECT_EQ(a.streams[i].digest, b.streams[i].digest)
            << "session " << a.streams[i].name;
    }
    EXPECT_EQ(b.batching.items, b.frames);
}

TEST(EngineBatch, InlineEngineBatchesOfOneMatch)
{
    Network net = small_net();
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/31, /*num_streams=*/2,
                         /*frames_per_stream=*/3, /*size=*/96);
    EngineConfig off;
    off.num_threads = 1;
    off.pipeline_depth = 1;
    off.search_radius = 10;
    EngineConfig on = off;
    on.batch = "auto";
    Engine unbatched(net, off);
    Engine batched(net, on);
    const RunReport a = unbatched.run(streams);
    const RunReport b = batched.run(streams);
    EXPECT_EQ(a.digest, b.digest);
    // No pool: every batch is a batch of 1, executed inline.
    EXPECT_EQ(b.batching.items, b.batching.batches);
    EXPECT_DOUBLE_EQ(b.batching.mean_occupancy(), 1.0);
}

TEST(EngineBatch, ResetThenResubmitWorks)
{
    Network net = small_net();
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/37, /*num_streams=*/2,
                         /*frames_per_stream=*/3, /*size=*/96);
    EngineConfig config;
    config.batch = "auto:max=2,delay_us=100";
    config.num_threads = 2;
    config.search_radius = 10;
    Engine engine(net, config);
    const RunReport first = engine.run(streams);
    engine.reset();
    const RunReport second = engine.run(streams);
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_EQ(second.batching.items, second.frames);
}

/**
 * The allocation half of the acceptance bar, end to end: with
 * batching enabled, steady-state predicted frames still perform zero
 * tensor-buffer allocations from ingest through batched suffix to
 * commit.
 */
TEST(EngineBatch, SteadyStatePredictedFramesAllocateNothing)
{
    Network net = small_net();
    // One thread: inline, so the global counter stays ours. A huge
    // static interval: after the first key frame, everything is a
    // predicted frame.
    EngineConfig config = small_config("auto:max=4", 1, 3);
    config.policy = "static:interval=1000";
    Engine engine(net, config);

    const Sequence warmup = multi_stream_set(/*seed=*/13, 1, 3, 96)[0];
    const Sequence steady = multi_stream_set(/*seed=*/13, 1, 6, 96)[0];
    Session &cam = engine.session(steady.name);
    cam.submit_all(warmup); // Key frame + slot/arena growth.
    const StreamReport warm = cam.report();

    // Copied before the snapshot and moved in: ingestion itself
    // allocates nothing.
    std::vector<Tensor> frames;
    for (const LabeledFrame &f : steady.frames) {
        frames.push_back(f.image);
    }
    const u64 before = Tensor::buffer_allocations();
    for (Tensor &frame : frames) {
        cam.submit(std::move(frame));
    }
    cam.drain();
    const u64 after = Tensor::buffer_allocations();
    const StreamReport row = cam.report();
    EXPECT_EQ(row.key_frames - warm.key_frames, 0)
        << "steady-state run unexpectedly re-keyed";
    EXPECT_EQ(row.frames - warm.frames, 6);
    EXPECT_EQ(after - before, 0u)
        << "batched predicted frames allocated tensor buffers";
}

} // namespace
} // namespace eva2
