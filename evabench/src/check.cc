#include <cmath>
#include <iostream>

#include "cnn/execution_plan.h"
#include "eval/metrics.h"
#include "runtime/stream_executor.h"
#include "workloads.h"

namespace evabench {

using eva2::EngineConfig;
using eva2::Network;
using eva2::Tensor;

namespace {

/** ||a - b|| / ||b||, or ||a|| when b is all zeros. */
double
relative_l2(const Tensor &a, const Tensor &b)
{
    double diff = 0.0;
    double norm = 0.0;
    for (i64 i = 0; i < b.size(); ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        diff += d * d;
        norm += static_cast<double>(b[i]) * b[i];
    }
    return norm > 0.0 ? std::sqrt(diff / norm) : std::sqrt(diff);
}

} // namespace

i64
check_streams(const Network &net, const EngineConfig &config,
              const std::vector<std::vector<const Tensor *>> &frames,
              const std::vector<std::vector<Served>> &served,
              bool oracle_only, RunResult &out)
{
    const eva2::StreamExecutorOptions resolved = config.resolve(net);
    const eva2::ExecutionPlan oracle(net, resolved.amc.plan);

    // Single-threaded, unpipelined, untiered reference engine.
    EngineConfig ref_config = config;
    ref_config.num_threads = 1;
    ref_config.pipeline_depth = 1;
    ref_config.memory = "off";
    ref_config.batch = "off";
    ref_config.store_outputs = true;
    std::unique_ptr<eva2::Engine> ref;
    if (!oracle_only) {
        ref = std::make_unique<eva2::Engine>(net, ref_config);
    }

    i64 checked = 0;
    i64 mismatched = 0;
    i64 agree = 0;
    double err_sum = 0.0;
    for (size_t s = 0; s < frames.size(); ++s) {
        const std::vector<const Tensor *> &feed = frames[s];
        std::vector<u64> ref_digest(feed.size(), 0);
        std::vector<Tensor> ref_out;
        if (ref) {
            eva2::Session &session =
                ref->session("check" + std::to_string(s));
            for (size_t i = 0; i < feed.size(); ++i) {
                const eva2::FrameTicket t = session.submit(*feed[i]);
                ref_digest[i] = session.wait(t).output_digest;
            }
            ref_out = session.outputs();
        }
        for (size_t i = 0; i < feed.size(); ++i) {
            const Served &sv = served[s][i];
            const Tensor plain = oracle.forward(*feed[i]);
            const u64 want =
                ref ? ref_digest[i] : eva2::tensor_digest(plain);
            ++checked;
            if (!sv.answered || sv.failed || sv.digest != want) {
                ++mismatched;
                if (mismatched <= 5) {
                    std::cerr << "check: stream " << s << " frame " << i
                              << (sv.answered ? " digest mismatch"
                                              : " not answered")
                              << "\n";
                }
            }
            // Served outputs are the replay's (or, on the plain
            // path, the oracle's) whenever the digests agree.
            err_sum += ref ? relative_l2(ref_out[i], plain) : 0.0;
            if (sv.top1 == eva2::top1(plain)) {
                ++agree;
            }
        }
    }
    const double n = static_cast<double>(std::max<i64>(checked, 1));
    out.set("out_err", err_sum / n, "ratio");
    out.set("top1_agree", static_cast<double>(agree) / n, "fraction");
    out.set("check.frames", static_cast<double>(checked), "count");
    if (mismatched > 0) {
        out.fail(std::to_string(mismatched) + " of " +
                 std::to_string(checked) +
                 " checked frames differ from the reference");
    }
    return mismatched;
}

} // namespace evabench
