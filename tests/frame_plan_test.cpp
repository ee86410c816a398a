/**
 * @file
 * Tests for the compiled FramePlan stage graph and its pipelined
 * execution: stage-level parity with the serial AmcPipeline facade,
 * the digest-identity sweep over scenarios x policies x kernels
 * (pipelined vs serial frame execution), the zero-allocation
 * guarantee of the full ingest-to-commit predicted-frame path, and
 * the policy schedule that skips motion estimation nothing reads.
 */
#include <array>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "cnn/model_zoo.h"
#include "runtime/stage_scheduler.h"
#include "runtime/thread_pool.h"
#include "video/scenarios.h"

namespace eva2 {
namespace {

AmcOptions
small_options()
{
    AmcOptions opts;
    opts.search_radius = 10;
    return opts;
}

/** A small single-stream workload on the scaled AlexNet. */
struct PlanFixture
{
    Network net;
    std::vector<Sequence> streams;

    PlanFixture()
        : net(build_scaled(alexnet_spec(),
                           [] {
                               ScaledBuildOptions o;
                               o.input = Shape{1, 96, 96};
                               return o;
                           }()))
    {
        streams = multi_stream_set(/*seed=*/5, /*num_streams=*/1,
                                   /*frames_per_stream=*/4,
                                   /*size=*/96);
    }
};

TEST(FramePlan, StageHalvesMatchTheSerialFacade)
{
    PlanFixture fx;
    // Serial reference through the classic facade.
    AmcPipeline reference(fx.net,
                          std::make_unique<StaticRatePolicy>(2),
                          small_options());
    // The same frames through explicit front/suffix stage calls.
    AmcPipeline staged(fx.net, std::make_unique<StaticRatePolicy>(2),
                       small_options());
    FramePlan &plan = staged.frame_plan();
    plan.set_depth(2);
    ScratchArena arena;
    for (i64 f = 0; f < static_cast<i64>(fx.streams[0].size()); ++f) {
        const Tensor &frame = fx.streams[0][f].image;
        const AmcFrameResult expect = reference.process(frame);
        const FrontResult front =
            plan.run_front(frame, f % 2, arena, nullptr);
        const Tensor &out = plan.run_suffix(f % 2, arena, nullptr);
        EXPECT_EQ(front.is_key, expect.is_key) << "frame " << f;
        EXPECT_EQ(front.me_add_ops, expect.me_add_ops);
        EXPECT_DOUBLE_EQ(front.features.match_error,
                         expect.features.match_error);
        EXPECT_TRUE(out == expect.output) << "frame " << f;
        EXPECT_TRUE(plan.slot_activation(f % 2) ==
                    expect.target_activation)
            << "frame " << f;
    }
    EXPECT_EQ(plan.stats().frames, reference.stats().frames);
    EXPECT_EQ(plan.stats().key_frames, reference.stats().key_frames);
}

TEST(FramePlan, SlotRingRejectsOutOfDepthSlots)
{
    PlanFixture fx;
    AmcPipeline pipeline(fx.net, nullptr, small_options());
    FramePlan &plan = pipeline.frame_plan();
    ScratchArena arena;
    EXPECT_EQ(plan.depth(), 1);
    EXPECT_THROW(
        plan.run_front(fx.streams[0][0].image, 1, arena, nullptr),
        ConfigError);
    EXPECT_THROW(plan.set_depth(0), ConfigError);
    plan.set_depth(3);
    plan.run_front(fx.streams[0][0].image, 2, arena, nullptr);
    EXPECT_NO_THROW(plan.run_suffix(2, arena, nullptr));
    // Slots the front never wrote have no activation to read.
    EXPECT_THROW(plan.run_suffix(1, arena, nullptr), ConfigError);
}

TEST(FramePlan, ForcedPathsMatchFacadeForcedPaths)
{
    PlanFixture fx;
    AmcPipeline a(fx.net, nullptr, small_options());
    AmcPipeline b(fx.net, nullptr, small_options());
    ScratchArena arena;

    const Tensor key_out = a.run_key(fx.streams[0][0].image);
    b.frame_plan().run_front_key(fx.streams[0][0].image, 0, arena,
                                 nullptr);
    EXPECT_TRUE(key_out ==
                b.frame_plan().run_suffix(0, arena, nullptr));

    const AmcFrameResult pred = a.run_predicted(fx.streams[0][1].image);
    const FrontResult front = b.frame_plan().run_front_predicted(
        fx.streams[0][1].image, 0, arena, nullptr);
    EXPECT_FALSE(front.is_key);
    EXPECT_EQ(front.me_add_ops, pred.me_add_ops);
    EXPECT_TRUE(pred.output ==
                b.frame_plan().run_suffix(0, arena, nullptr));
}

/** Counts stage completions (single-threaded use). */
class StageCounter : public AmcObserver
{
  public:
    void
    on_stage(AmcStage stage, double) override
    {
        ++calls_[static_cast<size_t>(stage)];
    }

    i64
    count(AmcStage stage) const
    {
        return calls_[static_cast<size_t>(stage)];
    }

  private:
    std::array<i64, kNumAmcStages> calls_{};
};

/**
 * Forwards is_key_frame to a wrapped policy but never schedules a
 * frame ahead of motion estimation: the run-RFBME-on-every-frame
 * behaviour the scheduled path must reproduce bit for bit.
 */
class NeverSchedules : public KeyFramePolicy
{
  public:
    explicit NeverSchedules(std::unique_ptr<KeyFramePolicy> inner)
        : inner_(std::move(inner))
    {
    }

    bool
    is_key_frame(const FrameFeatures &features) override
    {
        return inner_->is_key_frame(features);
    }

    void reset() override { inner_->reset(); }
    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<KeyFramePolicy> inner_;
};

/** One frame of a scheduled-vs-reference drive. */
struct DrivenFrame
{
    FrontResult front;
    u64 digest = 0;
    bool ran_me = false; ///< kMotionEstimation ran for this frame.
    bool ran_policy = false;
};

std::vector<DrivenFrame>
drive(const Network &net, std::unique_ptr<KeyFramePolicy> policy,
      MotionMode motion, const Sequence &seq)
{
    AmcOptions opts = small_options();
    opts.motion_mode = motion;
    AmcPipeline pipeline(net, std::move(policy), opts);
    FramePlan &plan = pipeline.frame_plan();
    ScratchArena arena;
    StageCounter counter;
    std::vector<DrivenFrame> out;
    for (const LabeledFrame &f : seq.frames) {
        const i64 me_before = counter.count(AmcStage::kMotionEstimation);
        const i64 policy_before = counter.count(AmcStage::kPolicy);
        DrivenFrame d;
        d.front = plan.run_front(f.image, 0, arena, &counter);
        d.digest = tensor_digest(plan.run_suffix(0, arena, &counter));
        d.ran_me =
            counter.count(AmcStage::kMotionEstimation) > me_before;
        d.ran_policy = counter.count(AmcStage::kPolicy) > policy_before;
        out.push_back(d);
    }
    return out;
}

/**
 * Motion estimation runs only where its result is read, and the
 * frames that skip it come out bit-identical to a plan that ran it
 * on every frame and let the policy decide.
 */
TEST(FramePlanSchedule, SkipsOnlyUnreadMotionEstimation)
{
    PlanFixture fx;
    const Sequence seq = multi_stream_set(/*seed=*/17, 1, 10, 96)[0];
    struct Case
    {
        std::string policy;
        MotionMode motion;
    };
    const std::vector<Case> cases = {
        {"every_frame", MotionMode::kCompensation},
        {"static:interval=4", MotionMode::kCompensation},
        {"adaptive_error:th=1e9,max_gap=4", MotionMode::kCompensation},
        {"static:interval=4", MotionMode::kMemoization},
    };
    const PolicyRegistry &reg = PolicyRegistry::instance();
    for (const Case &c : cases) {
        SCOPED_TRACE(c.policy + (c.motion == MotionMode::kMemoization
                                     ? " (memoization)"
                                     : " (compensation)"));
        const std::vector<DrivenFrame> got =
            drive(fx.net, reg.make(c.policy), c.motion, seq);
        const std::vector<DrivenFrame> want = drive(
            fx.net, std::make_unique<NeverSchedules>(reg.make(c.policy)),
            c.motion, seq);
        ASSERT_EQ(got.size(), want.size());
        i64 me_runs = 0;
        i64 later_keys = 0;
        for (size_t i = 0; i < got.size(); ++i) {
            const DrivenFrame &g = got[i];
            EXPECT_EQ(g.front.is_key, want[i].front.is_key)
                << "frame " << i;
            EXPECT_EQ(g.digest, want[i].digest) << "frame " << i;
            EXPECT_EQ(g.front.features.frames_since_key,
                      want[i].front.features.frames_since_key);
            // The reference runs RFBME and the policy on every frame
            // after the first.
            EXPECT_EQ(want[i].ran_me, i > 0) << "frame " << i;
            EXPECT_EQ(want[i].ran_policy, i > 0) << "frame " << i;
            me_runs += g.ran_me ? 1 : 0;
            later_keys += i > 0 && g.front.is_key ? 1 : 0;
            if (i == 0) {
                EXPECT_FALSE(g.ran_me);
                continue;
            }
            // Every key after the first is scheduled in these cases
            // (static rate, or the max-gap cap under an unreachable
            // threshold): no RFBME and no policy call. Predictions
            // run RFBME iff the compensation warp reads its field.
            const bool want_me =
                !g.front.is_key && c.motion == MotionMode::kCompensation;
            EXPECT_EQ(g.ran_me, want_me) << "frame " << i;
            if (g.ran_me) {
                EXPECT_EQ(g.front.me_add_ops, want[i].front.me_add_ops);
                EXPECT_DOUBLE_EQ(g.front.features.match_error,
                                 want[i].front.features.match_error);
            } else {
                EXPECT_EQ(g.front.me_add_ops, 0) << "frame " << i;
                EXPECT_EQ(g.front.features.match_error, 0.0);
                EXPECT_EQ(g.front.features.motion_magnitude, 0.0);
                EXPECT_GT(want[i].front.me_add_ops, 0);
            }
            if (c.policy.rfind("adaptive", 0) == 0) {
                EXPECT_EQ(g.ran_policy, !g.front.is_key) << "frame " << i;
            } else {
                EXPECT_FALSE(g.ran_policy) << "frame " << i;
            }
        }
        EXPECT_GT(later_keys, 0) << "no scheduled key to skip";
        if (c.policy == "every_frame" ||
            c.motion == MotionMode::kMemoization) {
            EXPECT_EQ(me_runs, 0);
        }
    }
}

/**
 * The schedule() contract for every built-in policy: kKey means
 * is_key_frame() answers true, and kPredict false, for any features
 * with that frames_since_key.
 */
TEST(FramePlanSchedule, BuiltInSchedulesAgreeWithIsKeyFrame)
{
    const PolicyRegistry &reg = PolicyRegistry::instance();
    std::vector<std::string> specs = reg.names(); // Default params.
    for (const char *spec :
         {"static:interval=3", "adaptive_error:th=0.02,max_gap=4",
          "block_error:th=0.5,max_gap=1",
          "adaptive_motion:th=60,max_gap=5",
          "motion_magnitude:th=0,max_gap=2"}) {
        specs.push_back(spec);
    }
    const std::vector<double> values = {0.0, 1e-6, 0.02, 0.5,
                                        60.0, 1e3, 1e12};
    for (const std::string &spec : specs) {
        std::unique_ptr<KeyFramePolicy> policy = reg.make(spec);
        i64 decided = 0;
        for (i64 n = 1; n <= 12; ++n) {
            const FrameSchedule s = policy->schedule(n);
            if (s == FrameSchedule::kNeedFeatures) {
                continue;
            }
            ++decided;
            for (const double err : values) {
                for (const double mag : values) {
                    FrameFeatures f;
                    f.match_error = err;
                    f.motion_magnitude = mag;
                    f.frames_since_key = n;
                    EXPECT_EQ(policy->is_key_frame(f),
                              s == FrameSchedule::kKey)
                        << spec << " at frames_since_key " << n;
                }
            }
        }
        // Static rates decide every frame; a max-gap cap decides the
        // frames at or past it.
        if (spec == "every_frame" || spec.rfind("static", 0) == 0) {
            EXPECT_EQ(decided, 12) << spec;
        } else if (spec.find("max_gap") != std::string::npos) {
            EXPECT_GT(decided, 0) << spec;
        }
    }
}

/** Engine config matching small_options(), at a given execution shape. */
EngineConfig
small_config(const std::string &policy, i64 depth, i64 threads)
{
    EngineConfig c;
    c.policy = policy;
    c.search_radius = small_options().search_radius;
    c.num_threads = threads;
    c.pipeline_depth = depth;
    return c;
}

/**
 * The acceptance sweep: for every scenario kind in the multi-stream
 * serving set and every key-frame policy, the pipelined FramePlan path must reproduce the serial reference
 * engine's (one thread, depth 1, batch off) per-stream digests bit
 * for bit.
 */
TEST(FramePlanSweep, PipelinedDigestsMatchSerialEverywhere)
{
    Network net = build_scaled(alexnet_spec(), [] {
        ScaledBuildOptions o;
        o.input = Shape{1, 96, 96};
        return o;
    }());
    // 5 streams cycle through all scenario kinds (objects, pan,
    // occlusion, static, chaotic).
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/7, /*num_streams=*/5,
                         /*frames_per_stream=*/4, /*size=*/96);

    const std::vector<std::string> policies = {
        "every_frame",
        "static:interval=3",
        "adaptive_error:th=0.05,max_gap=6",
        "adaptive_motion:th=60,max_gap=6",
    };

    for (const std::string &policy : policies) {
        Engine serial(net, small_config(policy, 1, 1));
        Engine pipelined(net, small_config(policy, 3, 4));
        const RunReport a = serial.run(streams);
        const RunReport b = pipelined.run(streams);
        ASSERT_EQ(a.streams.size(), b.streams.size());
        for (size_t i = 0; i < a.streams.size(); ++i) {
            EXPECT_EQ(a.streams[i].digest, b.streams[i].digest)
                << "policy " << policy << ", stream "
                << a.streams[i].name;
            EXPECT_EQ(a.streams[i].key_frames, b.streams[i].key_frames);
            EXPECT_EQ(a.streams[i].me_add_ops, b.streams[i].me_add_ops);
        }
        EXPECT_EQ(a.digest, b.digest) << "policy " << policy;
    }
}

TEST(FramePlanSweep, MemoizationModeMatchesToo)
{
    Network net = build_scaled(alexnet_spec(), [] {
        ScaledBuildOptions o;
        o.input = Shape{1, 96, 96};
        return o;
    }());
    const std::vector<Sequence> streams =
        classification_test_set(/*seed=*/11, /*num_sequences=*/2,
                                /*frames_per_sequence=*/4,
                                /*size=*/96);
    auto config = [&](i64 depth, i64 threads) {
        EngineConfig c = small_config("static:interval=3", depth, threads);
        c.motion = "memoization";
        return c;
    };
    Engine serial(net, config(1, 1));
    Engine pipelined(net, config(3, 4));
    EXPECT_EQ(serial.run(streams).digest, pipelined.run(streams).digest);
}

/**
 * Warm one inline session up (key frame, slot/workspace growth), then
 * count tensor-buffer allocations while it serves six more frames.
 * The frames are copied before the snapshot and moved in, so
 * ingestion itself allocates nothing; `keys` receives how many of
 * the six were key frames.
 */
u64
steady_state_allocations(const EngineConfig &config, i64 *keys)
{
    Network net = build_scaled(alexnet_spec(), [] {
        ScaledBuildOptions o;
        o.input = Shape{1, 96, 96};
        return o;
    }());
    Engine engine(net, config);
    const Sequence warmup = multi_stream_set(/*seed=*/13, 1, 3, 96)[0];
    const Sequence steady = multi_stream_set(/*seed=*/13, 1, 6, 96)[0];
    Session &cam = engine.session(steady.name);
    cam.submit_all(warmup);
    const StreamReport warm = cam.report();

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
    EXPECT_EQ(row.frames - warm.frames, 6);
    *keys = row.key_frames - warm.key_frames;
    return after - before;
}

/**
 * The allocation acceptance bar: once warm, a predicted frame's whole
 * journey — ingest, RFBME, motion-field build, warp, suffix, digest,
 * commit — performs zero tensor-buffer allocations.
 */
TEST(FramePlanAllocation, SteadyStatePredictedFramesAllocateNothing)
{
    // A huge static interval: after the first key frame, everything
    // is a predicted frame. One thread: inline, so the global counter
    // stays ours.
    i64 keys = -1;
    const u64 allocations = steady_state_allocations(
        small_config("static:interval=1000", 3, 1), &keys);
    EXPECT_EQ(keys, 0) << "steady-state run unexpectedly re-keyed";
    EXPECT_EQ(allocations, 0u)
        << "predicted frames allocated tensor buffers";
}

/**
 * The memoization short-circuit holds the same bar: re-serving the
 * stored key activation must alias the stored tensor (shared buffer),
 * not deep-copy it, so steady-state memoized frames allocate nothing.
 */
TEST(FramePlanAllocation, SteadyStateMemoizedFramesAllocateNothing)
{
    EngineConfig config = small_config("static:interval=1000", 3, 1);
    config.motion = "memoization";
    i64 keys = -1;
    const u64 allocations = steady_state_allocations(config, &keys);
    EXPECT_EQ(keys, 0) << "steady-state run unexpectedly re-keyed";
    EXPECT_EQ(allocations, 0u)
        << "memoized frames deep-copied the stored activation";
}

TEST(StageScheduler, CommitsInOrderAcrossDepths)
{
    PlanFixture fx;
    const std::vector<Sequence> streams =
        multi_stream_set(/*seed=*/21, 1, 8, 96);
    for (const i64 depth : {1, 2, 4}) {
        ThreadPool pool(3);
        AmcPipeline pipeline(fx.net,
                             std::make_unique<StaticRatePolicy>(3),
                             small_options());
        std::vector<i64> order;
        StageSchedulerOptions opts;
        opts.depth = depth;
        StageScheduler scheduler(
            pipeline, &pool, opts, [&order](FrameCommit commit) {
                order.push_back(commit.frame);
            });
        for (const LabeledFrame &frame : streams[0].frames) {
            scheduler.enqueue(frame.image);
        }
        scheduler.drain();
        ASSERT_EQ(order.size(), streams[0].frames.size());
        for (size_t i = 0; i < order.size(); ++i) {
            EXPECT_EQ(order[i], static_cast<i64>(i))
                << "depth " << depth;
        }
        EXPECT_EQ(scheduler.committed(), scheduler.submitted());
    }
}

TEST(StageScheduler, BadFrameCommitsItsErrorAndTheStreamContinues)
{
    PlanFixture fx;
    ThreadPool pool(2);
    AmcPipeline pipeline(fx.net, nullptr, small_options());
    i64 failures = 0;
    i64 successes = 0;
    StageScheduler scheduler(pipeline, &pool, {},
                             [&](FrameCommit commit) {
                                 if (commit.error) {
                                     ++failures;
                                 } else {
                                     ++successes;
                                 }
                             });
    scheduler.enqueue(fx.streams[0][0].image);
    scheduler.enqueue(Tensor(1, 8, 8)); // Wrong shape: ingest throws.
    scheduler.enqueue(fx.streams[0][1].image);
    scheduler.drain();
    EXPECT_EQ(failures, 1);
    EXPECT_EQ(successes, 2);
}

} // namespace
} // namespace eva2
