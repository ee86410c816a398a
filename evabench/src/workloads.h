/**
 * @file
 * The evabench workloads and the two reference layers they share:
 * the correctness check (served outputs against a single-threaded
 * replay and the plain-CNN oracle) and the single-threaded ledger
 * replay that times each layer's public entry points directly.
 */
#ifndef EVABENCH_WORKLOADS_H
#define EVABENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "api/engine.h"
#include "bench_util.h"

namespace evabench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
};


/** What the server or engine answered for one submitted frame. */
struct Served
{
    bool answered = false; ///< An outcome arrived (not shed, not lost).
    bool failed = false;   ///< Engine failure, or never answered.
    bool shed = false;     ///< Refused by the server (SHED).
    i64 top1 = -1;
    u64 digest = 0;
};

/**
 * Correctness and accuracy of served outputs. For each checked
 * stream, `served[s]` holds the outcomes of `frames[s]` in order.
 *
 *  - oracle_only (the plain-CNN workload): every served digest must
 *    equal the digest of a whole-network ExecutionPlan forward.
 *  - otherwise: every served digest must equal a single-threaded,
 *    pipeline_depth=1, memory=off replay of the same frames under
 *    `config`; the replay's outputs (bit-identical to the served ones
 *    when the digests agree) are then scored against the plain CNN.
 *
 * Sets `out_err` and `top1_agree` on `out` and returns the number of
 * mismatched frames.
 */
i64 check_streams(const eva2::Network &net,
                  const eva2::EngineConfig &config,
                  const std::vector<std::vector<const eva2::Tensor *>> &frames,
                  const std::vector<std::vector<Served>> &served,
                  bool oracle_only, RunResult &out);

/**
 * Single-threaded ledger replay over `frames` (one stream): drives a
 * FramePlan built from `config` through a benchmark-owned observer,
 * times rfbme_into, one ExecutionPlan per compiled CNN step,
 * rle_encode/rle_decode, warp_activation_rle_into and
 * hibernate/hydrate directly, prints the per-layer ledger and sets
 * the replay's per-layer metrics on `out`.
 */
void ledger_replay(const eva2::Network &net,
                   const eva2::EngineConfig &config,
                   const std::vector<const eva2::Tensor *> &frames,
                   TraceRecorder &trace, RunResult &out);

/**
 * Per-layer metrics the engine's own RunReport already carries
 * (stages, batching, memory), shared by every workload.
 */
void report_layers(const eva2::RunReport &r, double wall_s, i64 threads,
                   RunResult &out);

/** amc_cams (amc=true) and plain_cams (amc=false). */
RunResult run_cams(const Options &opts, bool amc);

/** fleet_net: the open-loop served fleet. */
RunResult run_fleet(const Options &opts);

/**
 * The open-loop generator's self-test: inject a sender stall and
 * check that frames due during it are timed from their due time.
 * Returns false (with a reason in `why`) when the accounting is wrong.
 */
bool open_loop_self_test(std::string *why);

} // namespace evabench

#endif // EVABENCH_WORKLOADS_H
