#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

#include "cnn/execution_plan.h"
#include "core/frame_plan.h"
#include "hw/eva2_model.h"
#include "runtime/stream_executor.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor_ops.h"
#include "workloads.h"

namespace evabench {

using eva2::AmcStage;
using eva2::Tensor;

namespace {

/**
 * The replay's stage sink: per-stage totals plus one trace span per
 * stage call, parented to the replayed frame's span.
 */
class ReplayObserver : public eva2::AmcObserver
{
  public:
    explicit ReplayObserver(TraceRecorder &trace) : trace_(trace) {}

    void
    on_stage(AmcStage stage, double ms) override
    {
        const size_t i = static_cast<size_t>(stage);
        ms_[i] += ms;
        ++calls_[i];
        if (trace_.enabled()) {
            const Clock::time_point end = Clock::now();
            const auto start =
                end - std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(ms));
            trace_.add(std::string("replay.") +
                           eva2::amc_stage_name(stage),
                       start, end, kReplayStream, frame, parent);
        }
    }

    double
    mean_ms(AmcStage stage) const
    {
        const size_t i = static_cast<size_t>(stage);
        return calls_[i] == 0 ? 0.0
                              : ms_[i] / static_cast<double>(calls_[i]);
    }

    static constexpr i64 kReplayStream = 1000;
    i64 frame = -1;
    u64 parent = 0;

  private:
    TraceRecorder &trace_;
    std::array<double, eva2::kNumAmcStages> ms_{};
    std::array<i64, eva2::kNumAmcStages> calls_{};
};

/** One compiled step of the whole-network plan, re-planned alone. */
struct LedgerStep
{
    eva2::PlanStepInfo info;
    i64 begin = 0;
    i64 end = 0;
    eva2::LayerKind kind = eva2::LayerKind::kConv;
    i64 macs = 0;
    std::unique_ptr<eva2::ExecutionPlan> plan;
    std::unique_ptr<eva2::ScratchArena> arena;
    std::vector<double> ms;
};

/**
 * Time the network one compiled step at a time on `frames`, print
 * the per-layer ledger and set the cnn.* replay metrics. The chained
 * steps must reproduce the whole-network plan bit for bit.
 */
void
layer_ledger(const eva2::Network &net, const eva2::PlanOptions &popts,
             const std::vector<const Tensor *> &frames, RunResult &out)
{
    const eva2::ExecutionPlan whole(net, popts);
    const std::vector<eva2::PlanStepInfo> info = whole.describe();
    std::vector<LedgerStep> steps(info.size());
    for (size_t k = 0; k < info.size(); ++k) {
        LedgerStep &st = steps[k];
        st.info = info[k];
        st.begin = info[k].layer_index;
        st.end = k + 1 < info.size() ? info[k + 1].layer_index
                                     : net.num_layers();
        st.kind = net.layer(st.begin).kind();
        for (i64 l = st.begin; l < st.end; ++l) {
            st.macs += net.layer_macs(l);
        }
        const eva2::Shape in = st.begin == 0 ? net.input_shape()
                                             : net.shape_at(st.begin - 1);
        st.plan = std::make_unique<eva2::ExecutionPlan>(net, st.begin,
                                                        st.end, in, popts);
        st.arena = std::make_unique<eva2::ScratchArena>();
    }

    i64 chain_mismatch = 0;
    eva2::ScratchArena whole_arena;
    // The first frame only warms the arenas; it is not timed.
    for (size_t f = 0; f < frames.size(); ++f) {
        const Tensor *x = frames[f];
        for (LedgerStep &st : steps) {
            const Clock::time_point t0 = Clock::now();
            const Tensor &y = st.plan->run(*x, *st.arena);
            const Clock::time_point t1 = Clock::now();
            if (f > 0) {
                st.ms.push_back(ms_between(t0, t1));
            }
            x = &y;
        }
        const Tensor &ref = whole.run(*frames[f], whole_arena);
        if (eva2::tensor_digest(*x) != eva2::tensor_digest(ref)) {
            ++chain_mismatch;
        }
    }

    double conv_ms = 0.0, fc_ms = 0.0, other_ms = 0.0;
    i64 conv_macs = 0;
    std::printf("\nper-layer ledger (%s, single-threaded, mean of %zu "
                "frames)\n",
                net.name().c_str(), frames.size() - 1);
    std::printf("  %-22s %-6s %-26s %12s %10s %9s\n", "layer", "kind",
                "kernel/variant", "MACs", "ms", "GMAC/s");
    for (const LedgerStep &st : steps) {
        const double ms = mean(st.ms);
        std::string name = st.info.layer;
        if (st.info.fused_relu) {
            name += "+relu";
        }
        std::string kernel = st.info.kernel;
        if (!st.info.variant.empty()) {
            kernel += "/" + st.info.variant;
        }
        const double gmacs =
            ms > 0.0 ? static_cast<double>(st.macs) / (ms * 1e6) : 0.0;
        std::printf("  %-22s %-6s %-26s %12lld %10.4f %9.3f\n",
                    name.c_str(), eva2::layer_kind_name(st.kind),
                    kernel.c_str(), static_cast<long long>(st.macs), ms,
                    gmacs);
        if (st.kind == eva2::LayerKind::kConv) {
            conv_ms += ms;
            conv_macs += st.macs;
        } else if (st.kind == eva2::LayerKind::kFc) {
            fc_ms += ms;
        } else {
            other_ms += ms;
        }
    }
    out.set("cnn.conv_ms", conv_ms, "ms");
    out.set("cnn.fc_ms", fc_ms, "ms");
    out.set("cnn.other_ms", other_ms, "ms");
    out.set("cnn.conv_gmacs",
            conv_ms > 0.0
                ? static_cast<double>(conv_macs) / (conv_ms * 1e6)
                : 0.0,
            "GMAC/s");
    if (chain_mismatch > 0) {
        out.fail("per-step ledger plans differ from the whole-network "
                 "plan on " +
                 std::to_string(chain_mismatch) + " frames");
    }
}

} // namespace

void
ledger_replay(const eva2::Network &net, const eva2::EngineConfig &config,
              const std::vector<const Tensor *> &frames,
              TraceRecorder &trace, RunResult &out)
{
    // Single-threaded: kernel-level parallel_for runs inline.
    eva2::ThreadPool::set_global_size(1);

    const eva2::StreamExecutorOptions so = config.resolve(net);
    eva2::FramePlan plan(net, so.make_policy ? so.make_policy(0) : nullptr,
                         so.amc);
    ReplayObserver obs(trace);
    eva2::ScratchArena arena;
    const bool quantized = so.amc.quantize_storage;

    eva2::RfbmeResult me;
    eva2::RfbmeWorkspace me_ws;
    eva2::MotionField fitted;
    Tensor warped;
    eva2::RleActivation key_rle;
    std::vector<double> rfbme_ms, encode_ms, decode_ms, warp_ms, key_bytes;
    double add_ops = 0.0;
    i64 rfbme_calls = 0;
    for (size_t f = 0; f < frames.size(); ++f) {
        const Tensor &frame = *frames[f];
        const Clock::time_point frame_t0 = Clock::now();
        obs.frame = static_cast<i64>(f);
        obs.parent = trace.next_id();
        // RFBME on exactly the inputs the plan's own motion stage
        // sees next: the stored key pixels and this frame.
        if (plan.has_key_frame()) {
            const Clock::time_point t0 = Clock::now();
            eva2::rfbme_into(plan.key_pixels(), frame, plan.rfbme_config(),
                             me, me_ws);
            const Clock::time_point t1 = Clock::now();
            trace.add("replay.rfbme_into", t0, t1, obs.kReplayStream,
                      obs.frame, obs.parent);
            rfbme_ms.push_back(ms_between(t0, t1));
            add_ops += static_cast<double>(me.add_ops);
            ++rfbme_calls;
        }
        const eva2::FrontResult fr = plan.run_front(frame, 0, arena, &obs);
        (void)plan.run_suffix(0, arena, &obs);
        if (quantized && fr.is_key) {
            const Tensor &act = plan.slot_activation(0);
            eva2::RleParams params;
            if (so.amc.storage_prune_rel > 0.0) {
                const double rms = std::sqrt(
                    eva2::sum_squares(act) / static_cast<double>(act.size()));
                params.zero_threshold =
                    static_cast<float>(so.amc.storage_prune_rel * rms);
            }
            const Clock::time_point t0 = Clock::now();
            key_rle = eva2::rle_encode(act, params);
            const Clock::time_point t1 = Clock::now();
            const Tensor decoded = eva2::rle_decode(key_rle);
            const Clock::time_point t2 = Clock::now();
            trace.add("replay.rle_encode", t0, t1, obs.kReplayStream,
                      obs.frame, obs.parent);
            trace.add("replay.rle_decode", t1, t2, obs.kReplayStream,
                      obs.frame, obs.parent);
            encode_ms.push_back(ms_between(t0, t1));
            decode_ms.push_back(ms_between(t1, t2));
            key_bytes.push_back(static_cast<double>(key_rle.encoded_bytes()));
        } else if (quantized && !fr.is_key && !key_rle.channels.empty()) {
            const eva2::Shape shape = key_rle.shape;
            eva2::fit_field_into(me.field, shape.h, shape.w, fitted);
            const Clock::time_point t0 = Clock::now();
            eva2::warp_activation_rle_into(key_rle, fitted,
                                           plan.target_rf().stride,
                                           so.amc.interp, warped);
            const Clock::time_point t1 = Clock::now();
            trace.add("replay.warp_activation_rle_into", t0, t1,
                      obs.kReplayStream, obs.frame, obs.parent);
            warp_ms.push_back(ms_between(t0, t1));
        }
        trace.add(fr.is_key ? "replay.frame.key" : "replay.frame.predicted",
                  frame_t0, Clock::now(), obs.kReplayStream, obs.frame, 0,
                  obs.parent);
    }

    // Hibernate/hydrate cycles on the warmed plan, one frame between
    // cycles so each hibernation releases real workspaces.
    std::vector<double> hib_ms, hyd_ms;
    if (quantized) {
        for (size_t c = 0; c < 8; ++c) {
            (void)plan.run_front(*frames[c % frames.size()], 0, arena,
                                 nullptr);
            const Clock::time_point t0 = Clock::now();
            plan.hibernate();
            const Clock::time_point t1 = Clock::now();
            plan.hydrate();
            const Clock::time_point t2 = Clock::now();
            trace.add("replay.hibernate", t0, t1, obs.kReplayStream);
            trace.add("replay.hydrate", t1, t2, obs.kReplayStream);
            hib_ms.push_back(ms_between(t0, t1));
            hyd_ms.push_back(ms_between(t1, t2));
        }
    }

    out.set("flow.rfbme_replay_ms", mean(rfbme_ms), "ms");
    out.set("flow.add_ops_per_frame",
            rfbme_calls > 0 ? add_ops / static_cast<double>(rfbme_calls)
                            : 0.0,
            "count");
    out.set("sparse.encode_ms", mean(encode_ms), "ms");
    out.set("sparse.decode_ms", mean(decode_ms), "ms");
    out.set("sparse.warp_rle_ms", mean(warp_ms), "ms");
    out.set("sparse.bytes_per_key", mean(key_bytes), "bytes");
    out.set("sparse.hibernate_ms", mean(hib_ms), "ms");
    out.set("sparse.hydrate_ms", mean(hyd_ms), "ms");

    // The src/hw analytic count next to the measured one.
    eva2::RfbmeOpModel model;
    model.layer_h = me.field.height();
    model.layer_w = me.field.width();
    model.rf_size = plan.rfbme_config().rf_size;
    model.rf_stride = plan.rfbme_config().rf_stride;
    model.search_radius = plan.rfbme_config().search_radius;
    model.search_stride = plan.rfbme_config().search_stride;
    std::printf("\nRFBME add ops per frame: measured %.0f, RfbmeOpModel "
                "predicts %lld (grid %lldx%lld, rf %lld/%lld, radius %lld "
                "stride %lld)\n",
                out.get("flow.add_ops_per_frame"),
                static_cast<long long>(model.rfbme_ops()),
                static_cast<long long>(model.layer_h),
                static_cast<long long>(model.layer_w),
                static_cast<long long>(model.rf_size),
                static_cast<long long>(model.rf_stride),
                static_cast<long long>(model.search_radius),
                static_cast<long long>(model.search_stride));
    std::printf("replay stage means (ms): motion_estimation %.4f, "
                "prefix %.4f, suffix %.4f, warp %.4f, encode %.4f\n",
                obs.mean_ms(AmcStage::kMotionEstimation),
                obs.mean_ms(AmcStage::kPrefix),
                obs.mean_ms(AmcStage::kSuffix), obs.mean_ms(AmcStage::kWarp),
                obs.mean_ms(AmcStage::kEncode));

    // Whole-network forwards are the costliest part of the replay;
    // the ledger times one warm-up plus eight frames.
    const std::vector<const Tensor *> ledger(
        frames.begin(),
        frames.begin() + static_cast<long>(std::min<size_t>(9, frames.size())));
    layer_ledger(net, so.amc.plan, ledger, out);
    eva2::ThreadPool::set_global_size(0);
}

} // namespace evabench
