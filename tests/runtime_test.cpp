/**
 * @file
 * Unit tests for the parallel runtime: ThreadPool task completion and
 * exception propagation, ParallelFor edge cases and determinism, and
 * Engine serial-vs-parallel bit-identical outputs.
 *
 * Pools are constructed with explicit thread counts so the parallel
 * code paths are exercised even on single-core CI machines.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "api/engine.h"
#include "cnn/model_zoo.h"
#include "runtime/parallel_for.h"
#include "runtime/stream_executor.h"
#include "runtime/thread_pool.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

TEST(ThreadPool, CompletesAllSubmittedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<i64> sum{0};
    std::vector<std::future<void>> futures;
    for (i64 i = 1; i <= 100; ++i) {
        futures.push_back(pool.submit([&sum, i]() {
            sum.fetch_add(i);
        }));
    }
    for (std::future<void> &f : futures) {
        f.get();
    }
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, SubmitReturnsTaskValue)
{
    ThreadPool pool(2);
    std::future<i64> f = pool.submit([]() -> i64 { return 41 + 1; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    std::future<void> f = pool.submit([]() {
        throw std::runtime_error("task failed");
    });
    EXPECT_THROW(f.get(), std::runtime_error);
    // The worker survives a throwing task.
    EXPECT_EQ(pool.submit([]() -> i64 { return 7; }).get(), 7);
}

TEST(ThreadPool, PendingTasksRunBeforeShutdown)
{
    std::atomic<i64> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            pool.enqueue_detached([&ran]() { ran.fetch_add(1); });
        }
    } // Destructor joins after draining the queue.
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, WorkerThreadsAreMarked)
{
    EXPECT_FALSE(ThreadPool::on_worker_thread());
    ThreadPool pool(1);
    EXPECT_TRUE(pool.submit([]() {
        return ThreadPool::on_worker_thread();
    }).get());
}

TEST(ParallelFor, EmptyRangeNeverCallsBody)
{
    ThreadPool pool(4);
    ParallelForOptions opts;
    opts.pool = &pool;
    std::atomic<i64> calls{0};
    parallel_for(0, 0, [&](i64) { calls.fetch_add(1); }, opts);
    parallel_for(5, 5, [&](i64) { calls.fetch_add(1); }, opts);
    parallel_for(7, 3, [&](i64) { calls.fetch_add(1); }, opts);
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, FewerItemsThanThreads)
{
    ThreadPool pool(8);
    ParallelForOptions opts;
    opts.pool = &pool;
    std::vector<i64> hits(3, 0);
    parallel_for(0, 3, [&](i64 i) {
        hits[static_cast<size_t>(i)] += 1;
    }, opts);
    EXPECT_EQ(hits, (std::vector<i64>{1, 1, 1}));
}

TEST(ParallelFor, EveryIndexProcessedExactlyOnce)
{
    ThreadPool pool(4);
    ParallelForOptions opts;
    opts.pool = &pool;
    const i64 n = 1000;
    std::vector<std::atomic<i64>> hits(n);
    parallel_for(3, 3 + n, [&](i64 i) {
        hits[static_cast<size_t>(i - 3)].fetch_add(1);
    }, opts);
    for (i64 i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "index " << i;
    }
}

TEST(ParallelFor, GrainLargerThanRange)
{
    ThreadPool pool(4);
    ParallelForOptions opts;
    opts.pool = &pool;
    opts.grain = 1000;
    std::atomic<i64> sum{0};
    parallel_for(0, 10, [&](i64 i) { sum.fetch_add(i); }, opts);
    EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelFor, ExceptionRethrownOnCaller)
{
    ThreadPool pool(4);
    ParallelForOptions opts;
    opts.pool = &pool;
    EXPECT_THROW(
        parallel_for(0, 100, [](i64 i) {
            if (i == 57) {
                throw std::runtime_error("bad index");
            }
        }, opts),
        std::runtime_error);
}

TEST(ParallelFor, NestedCallRunsSeriallyWithoutDeadlock)
{
    ThreadPool pool(2);
    ParallelForOptions opts;
    opts.pool = &pool;
    std::atomic<i64> inner_total{0};
    parallel_for(0, 8, [&](i64) {
        // Iterations land on pool workers (where the inner call must
        // degrade to an inline serial loop rather than re-enter the
        // busy pool) and on the participating caller thread (where it
        // may fan out again); either way it must complete correctly.
        parallel_for(0, 10, [&](i64 j) { inner_total.fetch_add(j); },
                     opts);
    }, opts);
    EXPECT_EQ(inner_total.load(), 8 * 45);
}

/** Shared fixture data: a small network and a multi-stream workload. */
struct StreamFixture
{
    Network net;
    std::vector<Sequence> streams;

    StreamFixture()
        : net(build_scaled(alexnet_spec())),
          streams(multi_stream_set(/*seed=*/9, /*num_streams=*/3,
                                   /*frames_per_stream=*/4))
    {
    }

    EngineConfig
    config(i64 threads, i64 depth) const
    {
        EngineConfig c;
        c.policy = "static:interval=2";
        c.num_threads = threads;
        c.pipeline_depth = depth;
        c.store_outputs = true;
        return c;
    }

    /** The serial reference: one thread, depth 1, batch off. */
    EngineConfig serial_config() const { return config(1, 1); }
};

/** Everything an engine's sessions produced for a set of streams. */
struct Served
{
    RunReport report;
    std::vector<std::vector<FrameOutcome>> outcomes;
    std::vector<std::vector<Tensor>> outputs;
};

/** Feed each stream to its own session, drain, and collect. */
Served
serve(Engine &engine, const std::vector<Sequence> &streams)
{
    std::vector<std::vector<FrameTicket>> tickets;
    for (const Sequence &seq : streams) {
        tickets.push_back(engine.session(seq.name).submit_all(seq));
    }
    engine.flush();
    Served out;
    for (size_t i = 0; i < streams.size(); ++i) {
        Session &s = engine.session(streams[i].name);
        out.outcomes.emplace_back();
        for (const FrameTicket &t : tickets[i]) {
            out.outcomes.back().push_back(s.wait(t));
        }
        out.outputs.push_back(s.outputs());
    }
    out.report = engine.report();
    return out;
}

TEST(EngineStreams, ParallelOutputsBitIdenticalToSerial)
{
    StreamFixture fx;
    Engine serial(fx.net, fx.serial_config());
    Engine parallel(fx.net, fx.config(4, 3));

    const Served a = serve(serial, fx.streams);
    const Served b = serve(parallel, fx.streams);

    ASSERT_EQ(a.report.streams.size(), fx.streams.size());
    ASSERT_EQ(b.report.streams.size(), fx.streams.size());
    EXPECT_EQ(a.report.digest, b.report.digest);
    for (size_t i = 0; i < fx.streams.size(); ++i) {
        const StreamReport &sa = a.report.streams[i];
        const StreamReport &sb = b.report.streams[i];
        EXPECT_EQ(sa.name, sb.name);
        EXPECT_EQ(sa.frames, sb.frames);
        EXPECT_EQ(sa.key_frames, sb.key_frames);
        EXPECT_EQ(sa.me_add_ops, sb.me_add_ops);
        ASSERT_EQ(a.outcomes[i].size(), b.outcomes[i].size());
        for (size_t f = 0; f < a.outcomes[i].size(); ++f) {
            EXPECT_EQ(a.outcomes[i][f].is_key, b.outcomes[i][f].is_key);
            EXPECT_EQ(a.outcomes[i][f].top1, b.outcomes[i][f].top1);
            EXPECT_EQ(a.outcomes[i][f].output_digest,
                      b.outcomes[i][f].output_digest);
        }
        ASSERT_EQ(a.outputs[i].size(), fx.streams[i].frames.size());
        ASSERT_EQ(a.outputs[i].size(), b.outputs[i].size());
        for (size_t f = 0; f < a.outputs[i].size(); ++f) {
            EXPECT_TRUE(a.outputs[i][f] == b.outputs[i][f])
                << "stream " << i << " frame " << f;
        }
    }
}

TEST(EngineStreams, AggregationMatchesPerStreamStats)
{
    StreamFixture fx;
    Engine engine(fx.net, fx.config(2, 1));
    const RunReport report = engine.run(fx.streams);

    EXPECT_EQ(report.frames, 3 * 4);
    i64 keys = 0;
    for (const StreamReport &s : report.streams) {
        EXPECT_EQ(s.frames, 4);
        EXPECT_GE(s.key_frames, 1); // First frame is always key.
        keys += s.key_frames;
    }
    EXPECT_EQ(report.key_frames, keys);
    EXPECT_GT(report.key_fraction(), 0.0);
    EXPECT_LE(report.key_fraction(), 1.0);
    EXPECT_GT(report.wall_ms, 0.0);
    EXPECT_GT(report.frames_per_second(), 0.0);
}

TEST(EngineStreams, StatePersistsAcrossRunsAndResets)
{
    StreamFixture fx;
    Engine engine(fx.net, fx.serial_config());
    const RunReport first = engine.run(fx.streams);
    // Sessions keep their key frames, so a second pass over the same
    // frames needs no initial key frame; the report covers only the
    // run's own frames.
    const RunReport second = engine.run(fx.streams);
    EXPECT_EQ(first.frames, second.frames);
    for (const StreamReport &s : second.streams) {
        EXPECT_EQ(s.frames, 4);
    }

    // After a reset the engine reproduces the first run exactly.
    engine.reset();
    const RunReport again = engine.run(fx.streams);
    EXPECT_EQ(first.digest, again.digest);
}

/**
 * A stream whose frames don't match the network input is rejected at
 * submit; run() must surface that only after draining every frame it
 * already submitted (no work may outlive the call), and the engine
 * must work again after a reset.
 */
void
expect_failure_drains_and_recovers(i64 depth)
{
    StreamFixture fx;
    Engine engine(fx.net, fx.config(4, depth));
    std::vector<Sequence> bad = fx.streams;
    bad[1].frames[0].image = Tensor(1, 8, 8);
    EXPECT_THROW(engine.run(bad), ConfigError);
    EXPECT_EQ(engine.in_flight(), 0);
    EXPECT_EQ(engine.session(fx.streams[0].name).completed(), 4);
    engine.reset();
    const RunReport report = engine.run(fx.streams);
    EXPECT_EQ(report.frames, 3 * 4);
}

TEST(EngineStreams, StreamFailurePropagatesWithoutCrashing)
{
    expect_failure_drains_and_recovers(/*depth=*/1);
}

TEST(EngineStreams, PipelinedFramesBitIdenticalAcrossDepthsAndPools)
{
    // The stage scheduler's pipelined execution (fronts serialized,
    // suffixes fanned out, commits in order) must be bit-identical
    // to the serial reference for every depth/pool shape. Run under
    // TSan in CI, this is also the data-race gate for the
    // scheduler's synchronization.
    StreamFixture fx;
    Engine serial(fx.net, fx.serial_config());
    const RunReport reference = serial.run(fx.streams);

    for (const i64 depth : {2, 3, 5}) {
        for (const i64 threads : {1, 2, 4}) {
            Engine pipelined(fx.net, fx.config(threads, depth));
            const RunReport got = pipelined.run(fx.streams);
            EXPECT_EQ(got.digest, reference.digest)
                << "depth " << depth << ", threads " << threads;
            ASSERT_EQ(got.streams.size(), reference.streams.size());
            for (size_t i = 0; i < got.streams.size(); ++i) {
                EXPECT_EQ(got.streams[i].frames,
                          reference.streams[i].frames);
                EXPECT_EQ(got.streams[i].me_add_ops,
                          reference.streams[i].me_add_ops);
            }
        }
    }
}

TEST(EngineStreams, PipelinedFailurePropagatesAndEngineRecovers)
{
    expect_failure_drains_and_recovers(/*depth=*/3);
}

TEST(TensorDigest, SensitiveToValuesAndShape)
{
    Tensor a(1, 2, 2);
    Tensor b(1, 2, 2);
    EXPECT_EQ(tensor_digest(a), tensor_digest(b));
    b.at(0, 1, 1) = 1e-7f;
    EXPECT_NE(tensor_digest(a), tensor_digest(b));
    Tensor c(2, 2, 1); // Same element count, different shape.
    EXPECT_NE(tensor_digest(a), tensor_digest(c));
}

} // namespace
} // namespace eva2
