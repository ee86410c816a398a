/**
 * @file
 * Shared plumbing of the evabench program: clocks, percentiles,
 * process CPU time and peak RSS, the named-metric report every
 * workload fills in, and the Chrome trace-event span recorder.
 */
#ifndef EVABENCH_BENCH_UTIL_H
#define EVABENCH_BENCH_UTIL_H

#include <chrono>
#include <string>
#include <vector>

#include "util/common.h"
#include "util/mutex.h"

namespace evabench {

using eva2::i64;
using eva2::u64;
using Clock = std::chrono::steady_clock;

/** Milliseconds between two time points. */
inline double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Linear-interpolated percentile (p in [0, 1]); 0 for no samples. */
double percentile(std::vector<double> samples, double p);

/** Mean of the samples; 0 for no samples. */
double mean(const std::vector<double> &samples);

/** Median of the samples; 0 for no samples. */
inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

/** Process user+sys CPU time so far, in ms. */
double process_cpu_ms();

/** Peak resident set (VmHWM) in MB; 0 where /proc is unavailable. */
double peak_rss_mb();

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * A workload run's outcome: the metrics in report order, the frame
 * accounting the result line carries, and whether every
 * correctness check passed (with the reasons when not).
 */
struct RunResult
{
    std::vector<Metric> metrics;
    i64 attempted = 0;
    i64 failed = 0;
    bool correct = true;
    std::vector<std::string> problems;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }

    /** Record a failed check; the run then reports correct=false. */
    void
    fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }

    /** Value of a metric already set (0 when absent). */
    double get(const std::string &name) const;
};

/**
 * One benchmark-side span in Chrome trace-event form: a complete
 * ("X") event with thread, frame id and the id of the span that
 * caused it (0 for roots). Ids are unique per recorder.
 */
struct Span
{
    u64 id = 0;
    u64 parent = 0;
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    i64 tid = 0;
    i64 frame = -1;
    i64 stream = -1;
};

/**
 * In-memory span store, thread-safe, written out once at the end of
 * a run as Chrome trace-event JSON (Perfetto and chrome://tracing
 * open it directly). Disabled recorders ignore every call, so
 * untraced runs pay one untaken branch per boundary.
 */
class TraceRecorder
{
  public:
    explicit TraceRecorder(bool enabled, Clock::time_point origin);

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    bool enabled() const { return enabled_; }

    /** Fresh span id (0 when disabled). */
    u64 next_id();

    /** Record a finished span; returns its id (0 when disabled). */
    u64 add(const std::string &name, Clock::time_point start,
            Clock::time_point end, i64 stream = -1, i64 frame = -1,
            u64 parent = 0, u64 id = 0);

    i64 size() const;

    /** Write every span as {"traceEvents": [...]} to `path`. */
    bool write_chrome_json(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    mutable eva2::Mutex mutex_;
    std::vector<Span> spans_ GUARDED_BY(mutex_);
    u64 next_id_ GUARDED_BY(mutex_) = 1;
};

/** Directory traced runs write their Chrome trace JSON to. */
constexpr const char *kTraceDir = ".bench_out";

/**
 * Write `trace` to kTraceDir/trace_<tag>.json and report the path;
 * a failed write fails the run.
 */
void write_trace(const TraceRecorder &trace, const std::string &tag,
                 RunResult &out);

/** Log a phase boundary to stderr with seconds since process start. */
void log_phase(const std::string &what);

/** Small integer id of the calling thread, stable for the process. */
i64 thread_tid();

} // namespace evabench

#endif // EVABENCH_BENCH_UTIL_H
