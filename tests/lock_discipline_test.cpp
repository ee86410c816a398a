/**
 * @file
 * Regression pins for the concurrency bugs the thread-safety
 * annotation pass (PR 10) surfaced, plus a stress test for the
 * self-pipe wake path's EINTR handling.
 *
 * The headline bug: Engine::report() (and reset()) used to drain
 * sessions while holding the engine mutex. A commit still in flight
 * re-enters the engine through note_commit_resident ->
 * evict_to_budget, which takes that same mutex — so the commit
 * blocked forever on the mutex, the drain waited forever on the
 * commit, and the serving shape net::Server::report() exercises
 * (stats from one thread, frames from another) deadlocked. The fix
 * snapshots the session list under the mutex and drains outside it;
 * these tests hammer exactly that interleaving and rely on the CTest
 * timeout to turn a regression back into a failure.
 */
#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "cnn/model_zoo.h"
#include "net/socket.h"
#include "sparse/rle.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

/**
 * A small network plus raw streams (hibernation is lossless for any
 * pixels), and enough sessions to keep the engine
 * over its 1 MB budget — every commit then runs the eviction pass
 * that takes the engine mutex, which is the lock the old report()
 * deadlocked against.
 */
struct EvictingFixture
{
    Network net;
    std::vector<Sequence> protos;
    i64 num_sessions = 0;

    explicit EvictingFixture(i64 num_threads)
        : net(build_scaled(alexnet_spec())),
          protos(multi_stream_set(/*seed=*/47, /*num_streams=*/2,
                                  /*frames_per_stream=*/4))
    {
        // Size the session count so their resident forms overflow
        // the 1 MB budget by a couple of sessions' worth.
        Engine probe(net, config(num_threads, "budget_mb:1048576"));
        probe.session("probe").submit_all(protos[0]);
        probe.flush();
        const i64 per =
            probe.resident_manager()->stats().resident_bytes;
        EXPECT_GT(per, 0);
        num_sessions = (1LL * 1024 * 1024) / per + 3;
    }

    EngineConfig
    config(i64 num_threads, const std::string &memory) const
    {
        EngineConfig c;
        c.policy = "static:interval=2";
        c.num_threads = num_threads;
        c.pipeline_depth = num_threads > 1 ? 2 : 1;
        c.memory = memory;
        return c;
    }

    /**
     * The deadlock reproducer: one thread submits frames round-robin
     * across enough sessions to keep eviction active, while this
     * thread calls report() in a tight loop. With the old
     * drain-under-mutex report() this interleaving wedged within a
     * handful of frames; now it must complete.
     */
    void
    hammer_report(i64 num_threads) const
    {
        Engine engine(net,
                      config(num_threads, "budget_mb:1,hibernate=on"));
        std::vector<Session *> sessions;
        for (i64 i = 0; i < num_sessions; ++i) {
            sessions.push_back(
                &engine.session("cam" + std::to_string(i)));
        }
        std::atomic<bool> done{false};
        std::thread submitter([&]() {
            for (int round = 0; round < 2; ++round) {
                for (size_t i = 0; i < sessions.size(); ++i) {
                    const Sequence &seq =
                        protos[i % protos.size()];
                    for (const LabeledFrame &frame : seq.frames) {
                        (void)sessions[i]->submit(frame.image);
                    }
                }
            }
            done.store(true);
        });
        i64 reports = 0;
        while (!done.load()) {
            (void)engine.report();
            ++reports;
        }
        submitter.join();
        engine.flush();
        const RunReport last = engine.report();
        EXPECT_GT(reports, 0);
        EXPECT_GT(last.frames, 0);
        // The budget was enforced while reports interleaved.
        EXPECT_GT(last.memory.hibernations, 0);
    }
};

TEST(LockDiscipline, ReportConcurrentWithEvictingCommitsInline)
{
    // num_threads=1: submit() processes the frame inline while
    // holding the submit gate, so the commit's eviction pass takes
    // the engine mutex with the gate held — the tightest version of
    // the interleaving.
    EvictingFixture fx(/*num_threads=*/1);
    fx.hammer_report(/*num_threads=*/1);
}

TEST(LockDiscipline, ReportConcurrentWithEvictingCommitsPooled)
{
    // num_threads=2: commits are delivered from pool workers, the
    // net::Server serving shape.
    EvictingFixture fx(/*num_threads=*/2);
    fx.hammer_report(/*num_threads=*/2);
}

TEST(LockDiscipline, ResetWithHibernatedSessionsRestartsCleanly)
{
    // reset() now drains and resets records outside the engine
    // mutex; make sure the restructured path still resets a
    // hibernated fleet to a working state.
    EvictingFixture fx(/*num_threads=*/1);
    Engine engine(
        fx.net, fx.config(/*num_threads=*/1, "budget_mb:1,hibernate=on"));
    for (i64 i = 0; i < fx.num_sessions; ++i) {
        engine.session("cam" + std::to_string(i))
            .submit_all(fx.protos[i % fx.protos.size()]);
    }
    engine.flush();
    ASSERT_GT(engine.report().memory.hibernations, 0);

    engine.reset();
    EXPECT_EQ(engine.report().frames, 0);

    // Sessions stay valid and the budget machinery restarts.
    engine.session("cam0").submit_all(fx.protos[0]);
    engine.flush();
    EXPECT_GT(engine.report().frames, 0);
}

// --------------------------------------------------------------------
// WakePipe EINTR handling

TEST(WakePipe, WakePreservesErrnoAndSurvivesFullPipe)
{
    net::WakePipe pipe;
    // wake() runs inside signal handlers; it must not clobber the
    // interrupted code's errno — on success or on a full pipe.
    errno = ENOENT;
    pipe.wake();
    EXPECT_EQ(errno, ENOENT);

    for (int i = 0; i < 100000; ++i) {
        pipe.wake(); // Fills the pipe; later wakes hit EAGAIN.
    }
    errno = EBADF;
    pipe.wake();
    EXPECT_EQ(errno, EBADF);

    pipe.drain();
    u8 byte = 0;
    errno = 0;
    EXPECT_EQ(::read(pipe.read_fd(), &byte, 1), -1);
    EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
}

TEST(WakePipe, DrainSurvivesSignalStorm)
{
    // Pepper the draining thread with signals (handler installed
    // without SA_RESTART, so reads really see EINTR) while wakers
    // hammer the pipe. The old drain() stopped at the first EINTR,
    // leaving bytes behind; the pipe must end up empty.
    struct sigaction sa{};
    sa.sa_handler = [](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    struct sigaction old{};
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    net::WakePipe pipe;
    std::atomic<bool> stop{false};
    std::thread drainer([&]() {
        while (!stop.load()) {
            pipe.drain();
        }
        pipe.drain(); // Final sweep after the last wake.
    });
    std::vector<std::thread> wakers;
    for (int w = 0; w < 4; ++w) {
        wakers.emplace_back([&]() {
            for (int i = 0; i < 20000; ++i) {
                pipe.wake();
            }
        });
    }
    for (int i = 0; i < 2000; ++i) {
        ::pthread_kill(drainer.native_handle(), SIGUSR1);
    }
    for (std::thread &w : wakers) {
        w.join();
    }
    stop.store(true);
    drainer.join();
    ::sigaction(SIGUSR1, &old, nullptr);

    u8 byte = 0;
    errno = 0;
    EXPECT_EQ(::read(pipe.read_fd(), &byte, 1), -1);
    EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
}

} // namespace
} // namespace eva2
