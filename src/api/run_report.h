/**
 * @file
 * Structured results of an Engine run.
 *
 * A RunReport is the serving API's machine-readable outcome record:
 * the resolved configuration, aggregate and per-stream counters
 * (frames, key fraction, RFBME op counts, chained output digests),
 * and per-stage wall time from the instrumentation hook layer. It
 * serializes to JSON so benches and CI can accumulate performance
 * trajectories (`BENCH_*.json`) and deployments can export metrics
 * without scraping stdout tables.
 */
#ifndef EVA2_API_RUN_REPORT_H
#define EVA2_API_RUN_REPORT_H

#include <string>
#include <vector>

#include "core/instrumentation.h"
#include "runtime/resident_set.h"
#include "runtime/suffix_batcher.h"
#include "util/common.h"

namespace eva2 {

/** One pipeline stage's aggregated wall time across streams. */
struct StageReport
{
    std::string stage; ///< amc_stage_name() label.
    double total_ms = 0.0;
    i64 calls = 0;
    /**
     * Stage busy-time as a fraction of the run's wall time: the
     * average number of concurrent executions of this stage across
     * all streams. Under pipelined execution the busy fractions sum
     * past 1.0 — that surplus is exactly the overlap the stage
     * scheduler bought. 0 when the run recorded no wall time.
     */
    double occupancy = 0.0;

    /** Mean latency of one call, in ms (0 when never called). */
    double
    mean_ms() const
    {
        return calls == 0 ? 0.0
                          : total_ms / static_cast<double>(calls);
    }
};

/** One stream's contribution to a run. */
struct StreamReport
{
    std::string name;
    i64 stream_index = 0;
    i64 frames = 0;
    i64 key_frames = 0;
    i64 me_add_ops = 0;
    u64 digest = 0; ///< Frame output digests chained in order.

    double
    key_fraction() const
    {
        return frames == 0 ? 0.0
                           : static_cast<double>(key_frames) /
                                 static_cast<double>(frames);
    }
};

/**
 * Serving front-end counters, filled in by net::Server::report()
 * when the engine sits behind the TCP front end (docs/serving.md);
 * all zero for in-process runs. Byte counts are application-layer
 * (framed messages as written/read, not TCP segments).
 */
struct NetStats
{
    i64 connections_accepted = 0;
    i64 connections_rejected = 0; ///< Admission: max_connections.
    i64 sessions_accepted = 0;
    i64 sessions_rejected = 0; ///< Admission: typed HELLO NACKs.
    i64 frames_in = 0;         ///< Decoded FRAMEs submitted.
    i64 outcomes_out = 0;      ///< OUTCOME digests streamed back.
    i64 shed_window = 0;       ///< Frames past a session's window.
    i64 shed_overload = 0;     ///< Frames shed by the global cap.
    i64 shed_draining = 0;     ///< Frames arriving during drain.
    i64 shed_memory = 0;       ///< Frames shed by the memory budget.
    i64 protocol_errors = 0;   ///< Connections killed mid-parse.
    i64 bytes_in = 0;
    i64 bytes_out = 0;
    /**
     * Times some session's in-flight count reached its window — each
     * one is a completion the sender had to wait for before its next
     * frame, i.e. backpressure actually applied.
     */
    i64 window_stalls = 0;

    i64
    shed_total() const
    {
        return shed_window + shed_overload + shed_draining +
               shed_memory;
    }
};

/** Everything an Engine run (batch or session-fed) produced. */
struct RunReport
{
    // Resolved configuration echo, for provenance in saved reports.
    std::string network;
    std::string policy;
    std::string interp;
    std::string codec;
    std::string kernel;
    std::string target;
    std::string motion;
    /** Suffix batching spec echo ("off" or "auto:max=..,.."). */
    std::string batch;
    /** Memory budget spec echo ("off" or "budget_mb:N[,...]"). */
    std::string memory_spec;
    /**
     * SIMD ISA the kernels can use on this machine ("avx2", "sse2",
     * "neon"), or "scalar" when the build or CPU has none — the
     * compiled ISA only counts if the running CPU supports it.
     */
    std::string simd_isa;
    i64 num_threads = 0;
    /** Frames in flight per stream (<= 1 = serial frame loop). */
    i64 pipeline_depth = 0;

    double wall_ms = 0.0;
    i64 frames = 0;
    i64 key_frames = 0;
    i64 me_add_ops = 0;
    /** Stream digests chained from kDigestSeed in stream order. */
    u64 digest = 0;

    std::vector<StreamReport> streams;
    std::vector<StageReport> stages;
    /** Kernel selection of the compiled plans ({prefix, suffix}). */
    std::vector<PlanRecord> plan;
    /**
     * Cross-stream suffix batching occupancy for this run: how many
     * batches were dispatched, how full they ran (the histogram is
     * indexed by batch size - 1), and the mean. All zero when
     * batching is off — and worth watching when it is on, since mean
     * occupancy near 1 means the delay window never found company
     * and batching is buying nothing.
     */
    SuffixBatchStats batching;
    /** Serving front-end counters (zero without a net::Server). */
    NetStats net;
    /**
     * Resident-session memory tier counters (docs/resident_state.md):
     * tracked bytes and session counts, hibernation/hydration totals,
     * and hydrate latency percentiles. All zero when `memory=off`.
     */
    MemoryStats memory;

    double
    key_fraction() const
    {
        return frames == 0 ? 0.0
                           : static_cast<double>(key_frames) /
                                 static_cast<double>(frames);
    }

    double
    frames_per_second() const
    {
        return wall_ms <= 0.0 ? 0.0
                              : static_cast<double>(frames) * 1000.0 /
                                    wall_ms;
    }

    /** Serialize as a JSON document. */
    std::string to_json(int indent = 2) const;
};

/**
 * Convert an aggregated StageTimings into report rows (all stages).
 * `wall_ms` is the run's wall time occupancies are computed against;
 * pass 0 when unknown (occupancies then report 0).
 */
std::vector<StageReport> stage_reports(const StageTimings &timings,
                                       double wall_ms = 0.0);

/** Format a digest the way reports print it ("0x" + 16 hex digits). */
std::string digest_hex(u64 digest);

} // namespace eva2

#endif // EVA2_API_RUN_REPORT_H
